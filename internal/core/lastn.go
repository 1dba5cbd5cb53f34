package core

import "fmt"

// lastNSlot is one stored candidate value with its selection counter.
type lastNSlot struct {
	value uint32
	conf  uint8 // 2-bit saturating selection counter
	age   uint8 // insertion order; higher = more recent
}

// LastN is the last-n value predictor of Burtscher and Zorn
// ("Exploring Last n Value Prediction", PACT 1999), cited by the
// paper as related work [2]. Each entry holds the n most useful
// recent values with small selection counters; the prediction is the
// value with the highest counter (most recent on ties). It covers
// alternating and small-period patterns the last-value predictor
// misses, without a second table level.
type LastN struct {
	bits  uint
	n     int
	table [][]lastNSlot // rows alias one contiguous backing slice
	clock uint8
}

const lastNConfMax = 3

// NewLastN returns a last-n predictor with 2^bits entries of n values
// each. It panics if n is not in 1..8.
func NewLastN(bits uint, n int) *LastN {
	checkBits("last-n", bits, 30)
	if n < 1 || n > 8 {
		panic("core: last-n width out of range [1,8]")
	}
	t := make([][]lastNSlot, 1<<bits)
	backing := make([]lastNSlot, (1<<bits)*n)
	for i := range t {
		t[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	return &LastN{bits: bits, n: n, table: t}
}

// best returns the index of the slot Predict would use.
func (p *LastN) best(slots []lastNSlot) int {
	bi := 0
	for i := 1; i < len(slots); i++ {
		s, b := &slots[i], &slots[bi]
		if s.conf > b.conf || (s.conf == b.conf && s.age > b.age) {
			bi = i
		}
	}
	return bi
}

// Predict returns the stored value with the highest selection counter.
func (p *LastN) Predict(pc uint32) uint32 {
	slots := p.table[pcIndex(pc, p.bits)]
	return slots[p.best(slots)].value
}

// Update reinforces a matching stored value, or replaces the weakest
// slot with the new value.
func (p *LastN) Update(pc, value uint32) {
	slots := p.table[pcIndex(pc, p.bits)]
	p.clock++
	for i := range slots {
		if slots[i].value == value {
			if slots[i].conf < lastNConfMax {
				slots[i].conf++
			}
			slots[i].age = p.clock
			// Decay the competitors so a dominant value outranks an
			// occasional interloper even right after the glitch.
			for j := range slots {
				if j != i && slots[j].conf > 0 {
					slots[j].conf--
				}
			}
			return
		}
	}
	// Miss: evict the lowest-confidence slot (oldest on ties).
	vi := 0
	for i := 1; i < len(slots); i++ {
		s, v := &slots[i], &slots[vi]
		if s.conf < v.conf || (s.conf == v.conf && s.age < v.age) {
			vi = i
		}
	}
	slots[vi] = lastNSlot{value: value, conf: 1, age: p.clock}
}

// Name implements Predictor.
func (p *LastN) Name() string { return fmt.Sprintf("last%d-2^%d", p.n, p.bits) }

// SizeBits implements Predictor: n values of 32 bits plus a 2-bit
// counter each per entry (ages are bookkeeping, not stored bits in
// the hardware proposal's sense — B&Z track recency implicitly).
func (p *LastN) SizeBits() int64 {
	return int64(len(p.table)) * int64(p.n) * (32 + 2)
}
