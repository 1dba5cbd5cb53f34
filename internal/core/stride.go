package core

import (
	"encoding/binary"
	"fmt"
)

// strideEntry is one row of the stride predictor table.
type strideEntry struct {
	last   uint32
	stride uint32
	conf   uint8 // 3-bit saturating confidence counter, 0..7
}

// Stride is the stride predictor variant used throughout the paper:
// a single stride per entry guarded by a 3-bit saturating confidence
// counter. The counter is incremented by 1 on a correct prediction and
// decremented by 2 on a wrong one; the stored stride is replaced only
// while the counter is below its maximum (7). This gives two-delta-like
// robustness (a loop-control reset costs one misprediction, not two)
// without storing a second stride.
type Stride struct {
	bits  uint
	table []strideEntry
}

// Confidence counter parameters (paper section 4, "The confidence
// counter in the stride predictor is a 3-bit counter, which is
// increased by 1 on a correct prediction and decreased by 2 on a wrong
// prediction.").
const (
	strideConfMax       = 7
	strideConfIncrement = 1
	strideConfDecrement = 2
)

// NewStride returns a stride predictor with 2^bits entries.
//
// Size accounting: 2^bits × (32-bit last value + 32-bit stride +
// 3-bit confidence counter) = 2^bits × 67 bits.
func NewStride(bits uint) *Stride {
	checkBits("stride", bits, 30)
	return &Stride{bits: bits, table: make([]strideEntry, 1<<bits)}
}

// Predict returns last value + stride for the entry at pc.
func (p *Stride) Predict(pc uint32) uint32 {
	e := &p.table[pcIndex(pc, p.bits)]
	return e.last + e.stride
}

// Update trains the entry at pc with the produced value.
func (p *Stride) Update(pc, value uint32) {
	strideStep(&p.table[pcIndex(pc, p.bits)], value)
}

// strideStep is the stride update rule for entry e and produced value
// v, shared by Update and RunBatch; it reports 1 if e predicted v, 0
// otherwise. The replacement gate reads the counter *before* this
// outcome is folded in: a fully confident entry keeps its stride
// across a single disruption (e.g. a loop-control reset costs exactly
// one misprediction, matching the two-delta method the paper calls
// "comparable").
func strideStep(e *strideEntry, v uint32) int32 {
	hit := hit01(e.last+e.stride, v)
	if e.conf < strideConfMax {
		e.stride = v - e.last
	}
	if hit != 0 {
		if e.conf < strideConfMax {
			e.conf += strideConfIncrement
		}
	} else if e.conf >= strideConfDecrement {
		e.conf -= strideConfDecrement
	} else {
		e.conf = 0
	}
	e.last = v
	return hit
}

// Reset implements Resetter.
func (p *Stride) Reset() { clear(p.table) }

// strideEntryBytes is one serialized strideEntry: last, stride, conf.
const strideEntryBytes = 4 + 4 + 1

// AppendState implements Snapshotter.
func (p *Stride) AppendState(b []byte) []byte {
	for i := range p.table {
		e := &p.table[i]
		b = binary.BigEndian.AppendUint32(b, e.last)
		b = binary.BigEndian.AppendUint32(b, e.stride)
		b = append(b, e.conf)
	}
	return b
}

// RestoreState implements Snapshotter.
func (p *Stride) RestoreState(data []byte) error {
	if len(data) != strideEntryBytes*len(p.table) {
		return stateSizeErr("stride", strideEntryBytes*len(p.table), len(data))
	}
	for i := range p.table {
		row := data[strideEntryBytes*i:]
		conf := row[8]
		if conf > strideConfMax {
			return fmt.Errorf("%w: stride confidence %d exceeds %d", ErrState, conf, strideConfMax)
		}
		p.table[i] = strideEntry{
			last:   binary.BigEndian.Uint32(row),
			stride: binary.BigEndian.Uint32(row[4:]),
			conf:   conf,
		}
	}
	return nil
}

// StateTables implements StateTabler.
func (p *Stride) StateTables() []TableInfo {
	live := 0
	for i := range p.table {
		if p.table[i] != (strideEntry{}) {
			live++
		}
	}
	return []TableInfo{{Name: "entries", Entries: len(p.table), Live: live}}
}

// Name implements Predictor.
func (p *Stride) Name() string { return fmt.Sprintf("stride-2^%d", p.bits) }

// SizeBits implements Predictor.
func (p *Stride) SizeBits() int64 { return int64(len(p.table)) * (32 + 32 + 3) }

// twoDeltaEntry is one row of the two-delta predictor table.
type twoDeltaEntry struct {
	last uint32
	s1   uint32 // predicting stride
	s2   uint32 // most recent stride
}

// TwoDelta is the two-delta stride predictor of Eickemeyer and
// Vassiliadis, described in the paper's section 2.2: the predicting
// stride s1 is replaced only when the same new stride has been observed
// twice in a row (tracked through s2). Included as an additional
// baseline; the paper's own experiments use the confidence-gated
// Stride predictor instead.
type TwoDelta struct {
	bits  uint
	table []twoDeltaEntry
}

// NewTwoDelta returns a two-delta stride predictor with 2^bits entries.
//
// Size accounting: 2^bits × (32-bit last value + two 32-bit strides)
// = 2^bits × 96 bits.
func NewTwoDelta(bits uint) *TwoDelta {
	checkBits("two-delta", bits, 30)
	return &TwoDelta{bits: bits, table: make([]twoDeltaEntry, 1<<bits)}
}

// Predict returns last value + s1 for the entry at pc.
func (p *TwoDelta) Predict(pc uint32) uint32 {
	e := &p.table[pcIndex(pc, p.bits)]
	return e.last + e.s1
}

// Update trains the entry at pc with the produced value.
func (p *TwoDelta) Update(pc, value uint32) {
	twoDeltaStep(&p.table[pcIndex(pc, p.bits)], value)
}

// twoDeltaStep is the two-delta update rule for entry e and produced
// value v, shared by Update and RunBatch; it reports 1 if e predicted
// v, 0 otherwise. s1 takes the new stride only when it repeats (s2
// match).
func twoDeltaStep(e *twoDeltaEntry, v uint32) int32 {
	hit := hit01(e.last+e.s1, v)
	stride := v - e.last
	if stride == e.s2 {
		e.s1 = stride
	}
	e.s2 = stride
	e.last = v
	return hit
}

// Reset implements Resetter.
func (p *TwoDelta) Reset() { clear(p.table) }

// AppendState implements Snapshotter: last, s1, s2 per entry.
func (p *TwoDelta) AppendState(b []byte) []byte {
	for i := range p.table {
		e := &p.table[i]
		b = binary.BigEndian.AppendUint32(b, e.last)
		b = binary.BigEndian.AppendUint32(b, e.s1)
		b = binary.BigEndian.AppendUint32(b, e.s2)
	}
	return b
}

// RestoreState implements Snapshotter.
func (p *TwoDelta) RestoreState(data []byte) error {
	if len(data) != 12*len(p.table) {
		return stateSizeErr("two-delta", 12*len(p.table), len(data))
	}
	for i := range p.table {
		row := data[12*i:]
		p.table[i] = twoDeltaEntry{
			last: binary.BigEndian.Uint32(row),
			s1:   binary.BigEndian.Uint32(row[4:]),
			s2:   binary.BigEndian.Uint32(row[8:]),
		}
	}
	return nil
}

// StateTables implements StateTabler.
func (p *TwoDelta) StateTables() []TableInfo {
	live := 0
	for i := range p.table {
		if p.table[i] != (twoDeltaEntry{}) {
			live++
		}
	}
	return []TableInfo{{Name: "entries", Entries: len(p.table), Live: live}}
}

// Name implements Predictor.
func (p *TwoDelta) Name() string { return fmt.Sprintf("2delta-2^%d", p.bits) }

// SizeBits implements Predictor.
func (p *TwoDelta) SizeBits() int64 { return int64(len(p.table)) * (32 + 32 + 32) }
