package core

import (
	"encoding/binary"
	"fmt"
)

// LastValue is the last value predictor (Lipasti): the next value
// produced by an instruction is predicted to equal the previous one.
// It excels on constant patterns and is the cheapest table-based
// predictor.
type LastValue struct {
	bits  uint
	table []uint32
}

// NewLastValue returns a last value predictor with 2^bits entries.
//
// Size accounting: 2^bits entries × 32 bits (one stored value each).
func NewLastValue(bits uint) *LastValue {
	checkBits("last-value", bits, 30)
	return &LastValue{bits: bits, table: make([]uint32, 1<<bits)}
}

// Predict returns the value last produced by the instruction at pc
// (or by whichever instruction aliases to its entry).
func (p *LastValue) Predict(pc uint32) uint32 {
	return p.table[pcIndex(pc, p.bits)]
}

// Update stores the produced value.
func (p *LastValue) Update(pc, value uint32) {
	lastValueStep(p.table, int(pcIndex(pc, p.bits)), value)
}

// lastValueStep is the last-value update rule at entry i: it stores v
// and reports 1 if the entry predicted v, 0 otherwise. Update and
// RunBatch both run it; it takes the table as an argument so RunBatch
// can hoist the slice out of its loop.
func lastValueStep(t []uint32, i int, v uint32) int32 {
	hit := hit01(t[i], v)
	t[i] = v
	return hit
}

// Reset implements Resetter.
func (p *LastValue) Reset() { clear(p.table) }

// AppendState implements Snapshotter: the value table, 4 bytes per
// entry.
func (p *LastValue) AppendState(b []byte) []byte {
	for _, v := range p.table {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return b
}

// RestoreState implements Snapshotter.
func (p *LastValue) RestoreState(data []byte) error {
	if len(data) != 4*len(p.table) {
		return stateSizeErr("last-value", 4*len(p.table), len(data))
	}
	for i := range p.table {
		p.table[i] = binary.BigEndian.Uint32(data[4*i:])
	}
	return nil
}

// StateTables implements StateTabler.
func (p *LastValue) StateTables() []TableInfo {
	live := 0
	for _, v := range p.table {
		if v != 0 {
			live++
		}
	}
	return []TableInfo{{Name: "values", Entries: len(p.table), Live: live}}
}

// Name implements Predictor.
func (p *LastValue) Name() string { return fmt.Sprintf("lvp-2^%d", p.bits) }

// SizeBits implements Predictor.
func (p *LastValue) SizeBits() int64 { return int64(len(p.table)) * 32 }
