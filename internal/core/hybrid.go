package core

import "fmt"

// MetaHybrid is a realizable two-component hybrid: a PC-indexed table
// of saturating counters selects between component a and component b
// (section 4.3, Figure 15 — "The meta-predictor is typically a set of
// saturating counters, indexed by the program counter"). The counter
// is biased toward a when high and b when low; it moves up when only a
// was correct and down when only b was correct. Spec kind "hybrid"
// builds one over stride and FCM.
type MetaHybrid struct {
	a, b     Snapshotter
	bits     uint
	counters []uint8
	max      uint8
}

// NewMetaHybrid returns a hybrid over a and b with a 2^bits-entry
// table of 2-bit selection counters.
//
// Size accounting: components plus 2 bits per meta table entry.
func NewMetaHybrid(a, b Snapshotter, bits uint) *MetaHybrid {
	checkBits("meta", bits, 30)
	return &MetaHybrid{a: a, b: b, bits: bits, counters: make([]uint8, 1<<bits), max: 3}
}

// Predict selects a's prediction when the counter is in its upper
// half, b's otherwise.
func (p *MetaHybrid) Predict(pc uint32) uint32 {
	if p.counters[pcIndex(pc, p.bits)] > p.max/2 {
		return p.a.Predict(pc)
	}
	return p.b.Predict(pc)
}

// Update trains both components and steers the selection counter
// toward whichever component was (exclusively) correct.
func (p *MetaHybrid) Update(pc, value uint32) {
	i := pcIndex(pc, p.bits)
	aOK := p.a.Predict(pc) == value
	bOK := p.b.Predict(pc) == value
	switch {
	case aOK && !bOK:
		if p.counters[i] < p.max {
			p.counters[i]++
		}
	case bOK && !aOK:
		if p.counters[i] > 0 {
			p.counters[i]--
		}
	}
	p.a.Update(pc, value)
	p.b.Update(pc, value)
}

// Reset implements Snapshotter: both components and the selection
// counters return to their initial state.
func (p *MetaHybrid) Reset() { resetState(p) }

// walkState lists the state: the selection counters, then both
// components' nested state.
func (p *MetaHybrid) walkState(w *stateWalk) {
	w.table(col8(p.counters, p.max))
	w.nested(p.a)
	w.nested(p.b)
}

// AppendState implements Snapshotter.
func (p *MetaHybrid) AppendState(b []byte) []byte { return appendState(p, b) }

// RestoreState implements Snapshotter.
func (p *MetaHybrid) RestoreState(data []byte) error { return restoreState(p, data) }

// StateTables implements Snapshotter.
func (p *MetaHybrid) StateTables() []TableInfo {
	live := 0
	for _, c := range p.counters {
		if c != 0 {
			live++
		}
	}
	ts := []TableInfo{{Name: "meta", Entries: len(p.counters), Live: live}}
	ts = append(ts, prefixTables(p.a)...)
	return append(ts, prefixTables(p.b)...)
}

// Name implements Predictor.
func (p *MetaHybrid) Name() string {
	return fmt.Sprintf("meta2^%d(%s|%s)", p.bits, p.a.Name(), p.b.Name())
}

// SizeBits implements Predictor.
func (p *MetaHybrid) SizeBits() int64 {
	return p.a.SizeBits() + p.b.SizeBits() + int64(len(p.counters))*2
}
