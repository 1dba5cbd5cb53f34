package core

import (
	"fmt"
	"math"
)

// Stride is the stride predictor variant used throughout the paper:
// a single stride per entry guarded by a 3-bit saturating confidence
// counter. The counter is incremented by 1 on a correct prediction and
// decremented by 2 on a wrong one; the stored stride is replaced only
// while the counter is below its maximum (7). This gives two-delta-like
// robustness (a loop-control reset costs one misprediction, not two)
// without storing a second stride.
//
// The table is stored structure-of-arrays (last values, strides and
// counters in separate flat slices), as DFCM's level-1 is; the
// serialized rows stay interleaved (last, stride, conf).
type Stride struct {
	bits   uint
	last   []uint32
	stride []uint32
	conf   []uint8 // 3-bit saturating confidence counter, 0..7
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
	n := 1 << bits
	return &Stride{bits: bits, last: make([]uint32, n), stride: make([]uint32, n), conf: make([]uint8, n)}
}

// Predict returns last value + stride for the entry at pc.
func (p *Stride) Predict(pc uint32) uint32 {
	i := pcIndex(pc, p.bits)
	return p.last[i] + p.stride[i]
}

// Update trains the entry at pc with the produced value.
func (p *Stride) Update(pc, value uint32) {
	strideStep(p.last, p.stride, p.conf, int(pcIndex(pc, p.bits)), value)
}

// strideStep is the stride update rule at entry i for produced value
// v, shared by Update and RunBatch; it reports 1 if the entry predicted
// v, 0 otherwise. It takes the tables as arguments so RunBatch can
// hoist the slices out of its loop. The replacement gate reads the
// counter *before* this outcome is folded in: a fully confident entry
// keeps its stride across a single disruption (e.g. a loop-control
// reset costs exactly one misprediction, matching the two-delta method
// the paper calls "comparable").
func strideStep(last, stride []uint32, conf []uint8, i int, v uint32) int32 {
	lv, c := last[i], conf[i]
	hit := hit01(lv+stride[i], v)
	if c < strideConfMax {
		stride[i] = v - lv
	}
	if hit != 0 {
		if c < strideConfMax {
			c += strideConfIncrement
		}
	} else if c >= strideConfDecrement {
		c -= strideConfDecrement
	} else {
		c = 0
	}
	conf[i] = c
	last[i] = v
	return hit
}

// Reset implements Snapshotter.
func (p *Stride) Reset() { resetState(p) }

// walkState lists the state: rows of (last, stride, conf).
func (p *Stride) walkState(w *stateWalk) {
	w.table(col32(p.last, math.MaxUint32), col32(p.stride, math.MaxUint32), col8(p.conf, strideConfMax))
}

// AppendState implements Snapshotter.
func (p *Stride) AppendState(b []byte) []byte { return appendState(p, b) }

// RestoreState implements Snapshotter.
func (p *Stride) RestoreState(data []byte) error { return restoreState(p, data) }

// StateTables implements Snapshotter.
func (p *Stride) StateTables() []TableInfo {
	live := 0
	for i := range p.last {
		if p.last[i] != 0 || p.stride[i] != 0 || p.conf[i] != 0 {
			live++
		}
	}
	return []TableInfo{{Name: "entries", Entries: len(p.last), Live: live}}
}

// Name implements Predictor.
func (p *Stride) Name() string { return fmt.Sprintf("stride-2^%d", p.bits) }

// SizeBits implements Predictor.
func (p *Stride) SizeBits() int64 { return int64(len(p.last)) * (32 + 32 + 3) }

// TwoDelta is the two-delta stride predictor of Eickemeyer and
// Vassiliadis, described in the paper's section 2.2: the predicting
// stride s1 is replaced only when the same new stride has been observed
// twice in a row (tracked through s2). Included as an additional
// baseline; the paper's own experiments use the confidence-gated
// Stride predictor instead.
//
// Like Stride, the table is stored structure-of-arrays and serialized
// as interleaved (last, s1, s2) rows.
type TwoDelta struct {
	bits uint
	last []uint32
	s1   []uint32 // predicting stride
	s2   []uint32 // most recent stride
}

// NewTwoDelta returns a two-delta stride predictor with 2^bits entries.
//
// Size accounting: 2^bits × (32-bit last value + two 32-bit strides)
// = 2^bits × 96 bits.
func NewTwoDelta(bits uint) *TwoDelta {
	checkBits("two-delta", bits, 30)
	n := 1 << bits
	return &TwoDelta{bits: bits, last: make([]uint32, n), s1: make([]uint32, n), s2: make([]uint32, n)}
}

// Predict returns last value + s1 for the entry at pc.
func (p *TwoDelta) Predict(pc uint32) uint32 {
	i := pcIndex(pc, p.bits)
	return p.last[i] + p.s1[i]
}

// Update trains the entry at pc with the produced value.
func (p *TwoDelta) Update(pc, value uint32) {
	twoDeltaStep(p.last, p.s1, p.s2, int(pcIndex(pc, p.bits)), value)
}

// twoDeltaStep is the two-delta update rule at entry i for produced
// value v, shared by Update and RunBatch; it reports 1 if the entry
// predicted v, 0 otherwise. s1 takes the new stride only when it
// repeats (s2 match).
func twoDeltaStep(last, s1, s2 []uint32, i int, v uint32) int32 {
	lv := last[i]
	hit := hit01(lv+s1[i], v)
	stride := v - lv
	if stride == s2[i] {
		s1[i] = stride
	}
	s2[i] = stride
	last[i] = v
	return hit
}

// Reset implements Snapshotter.
func (p *TwoDelta) Reset() { resetState(p) }

// walkState lists the state: rows of (last, s1, s2).
func (p *TwoDelta) walkState(w *stateWalk) {
	w.table(col32(p.last, math.MaxUint32), col32(p.s1, math.MaxUint32), col32(p.s2, math.MaxUint32))
}

// AppendState implements Snapshotter.
func (p *TwoDelta) AppendState(b []byte) []byte { return appendState(p, b) }

// RestoreState implements Snapshotter.
func (p *TwoDelta) RestoreState(data []byte) error { return restoreState(p, data) }

// StateTables implements Snapshotter.
func (p *TwoDelta) StateTables() []TableInfo {
	live := 0
	for i := range p.last {
		if p.last[i] != 0 || p.s1[i] != 0 || p.s2[i] != 0 {
			live++
		}
	}
	return []TableInfo{{Name: "entries", Entries: len(p.last), Live: live}}
}

// Name implements Predictor.
func (p *TwoDelta) Name() string { return fmt.Sprintf("2delta-2^%d", p.bits) }

// SizeBits implements Predictor.
func (p *TwoDelta) SizeBits() int64 { return int64(len(p.last)) * (32 + 32 + 32) }
