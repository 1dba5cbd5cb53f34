package core

import (
	"fmt"
	"strings"
)

// PerfectHybrid models a hybrid predictor with a perfect
// meta-predictor, as used in the paper's section 4.3: an event counts
// as correctly predicted when *any* component predicted it, and every
// component is always updated with the outcome. This is an upper bound
// on any realizable selection mechanism over the same components.
//
// PerfectHybrid implements Scorer; it cannot implement a meaningful
// Predict (the oracle choice depends on the outcome), so Predict
// returns the first component's prediction and is only there to
// satisfy Predictor for uniform handling in sweeps.
type PerfectHybrid struct {
	comps []Predictor
}

// NewPerfectHybrid combines the given component predictors under a
// perfect meta-predictor. It panics if no components are given.
//
// Size accounting: the sum of the components (a perfect
// meta-predictor needs no storage of its own — it is an oracle).
func NewPerfectHybrid(comps ...Predictor) *PerfectHybrid {
	if len(comps) == 0 {
		panic("core: perfect hybrid needs at least one component")
	}
	return &PerfectHybrid{comps: comps}
}

// Score implements Scorer: correct iff any component is correct;
// all components are updated.
func (p *PerfectHybrid) Score(pc, value uint32) bool {
	correct := false
	for _, c := range p.comps {
		if c.Predict(pc) == value {
			correct = true
		}
	}
	for _, c := range p.comps {
		c.Update(pc, value)
	}
	return correct
}

// Predict returns the first component's prediction (see type comment).
func (p *PerfectHybrid) Predict(pc uint32) uint32 { return p.comps[0].Predict(pc) }

// Update updates all components.
func (p *PerfectHybrid) Update(pc, value uint32) {
	for _, c := range p.comps {
		c.Update(pc, value)
	}
}

// Name implements Predictor, e.g. "perfect(stride-2^16+fcm-2^16/2^12)".
func (p *PerfectHybrid) Name() string {
	names := make([]string, len(p.comps))
	for i, c := range p.comps {
		names[i] = c.Name()
	}
	return "perfect(" + strings.Join(names, "+") + ")"
}

// SizeBits implements Predictor.
func (p *PerfectHybrid) SizeBits() int64 {
	var s int64
	for _, c := range p.comps {
		s += c.SizeBits()
	}
	return s
}

// MetaHybrid is a realizable two-component hybrid: a PC-indexed table
// of saturating counters selects between component a and component b
// (section 4.3, Figure 15 — "The meta-predictor is typically a set of
// saturating counters, indexed by the program counter"). The counter
// is biased toward a when high and b when low; it moves up when only a
// was correct and down when only b was correct. Spec kind "hybrid"
// builds one over stride and FCM.
type MetaHybrid struct {
	a, b     Predictor
	bits     uint
	counters []uint8
	max      uint8
}

// NewMetaHybrid returns a hybrid over a and b with a 2^bits-entry
// table of 2-bit selection counters.
//
// Size accounting: components plus 2 bits per meta table entry.
func NewMetaHybrid(a, b Predictor, bits uint) *MetaHybrid {
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

// Reset implements Resetter: both components and the selection
// counters return to their initial state.
func (p *MetaHybrid) Reset() {
	clear(p.counters)
	mustReset(p.a)
	mustReset(p.b)
}

// AppendState implements Snapshotter: the selection counters followed
// by both components' nested state.
func (p *MetaHybrid) AppendState(b []byte) []byte {
	b = append(b, p.counters...)
	b = appendNested(b, p.a)
	return appendNested(b, p.b)
}

// RestoreState implements Snapshotter.
func (p *MetaHybrid) RestoreState(data []byte) error {
	if len(data) < len(p.counters) {
		return stateSizeErr("meta-hybrid counters", len(p.counters), len(data))
	}
	for _, c := range data[:len(p.counters)] {
		if c > p.max {
			return fmt.Errorf("%w: meta counter %d exceeds %d", ErrState, c, p.max)
		}
	}
	rest, err := restoreNested(data[len(p.counters):], p.a)
	if err != nil {
		return err
	}
	if rest, err = restoreNested(rest, p.b); err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after meta-hybrid state", ErrState, len(rest))
	}
	copy(p.counters, data)
	return nil
}

// StateTables implements StateTabler.
func (p *MetaHybrid) StateTables() []TableInfo {
	live := 0
	for _, c := range p.counters {
		if c != 0 {
			live++
		}
	}
	ts := []TableInfo{{Name: "meta", Entries: len(p.counters), Live: live}}
	ts = append(ts, prefixTables(p.a.Name(), p.a)...)
	return append(ts, prefixTables(p.b.Name(), p.b)...)
}

// Name implements Predictor.
func (p *MetaHybrid) Name() string {
	return fmt.Sprintf("meta2^%d(%s|%s)", p.bits, p.a.Name(), p.b.Name())
}

// SizeBits implements Predictor.
func (p *MetaHybrid) SizeBits() int64 {
	return p.a.SizeBits() + p.b.SizeBits() + int64(len(p.counters))*2
}
