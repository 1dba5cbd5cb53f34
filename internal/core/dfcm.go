package core

import (
	"fmt"
	"math"

	"repro/internal/hash"
)

// DFCM is the differential finite context method predictor — the
// paper's contribution. It is an FCM over value *differences*: the
// level-1 table stores, per static instruction, the last value and a
// hashed history of strides; the level-2 table, indexed by the stride
// history only (never the last value), stores the next stride. The
// prediction is lastValue + L2[hash(strideHistory)].
//
// Stride patterns thus collapse: a run with constant stride s has the
// constant difference history (s, s, ..., s) and occupies a single
// level-2 entry regardless of length or base address, while irregular
// repeating patterns remain exactly as context-predictable as under
// FCM. The freed level-2 capacity is what buys the accuracy gain.
//
// The level-1 table is stored structure-of-arrays (last values and
// stride histories in separate flat slices) rather than as a slice of
// {last, hist} structs: the struct layout pads each 12-byte row to 16
// bytes, so SoA removes a quarter of the level-1 memory traffic and
// keeps each stream densely packed for the hardware prefetcher. The
// serialized snapshot layout (interleaved last+hist rows) is
// unchanged.
type DFCM struct {
	l1bits     uint
	l2bits     uint
	strideBits uint // width of strides stored in level-2 (section 4.4)
	h          *hash.FSR
	fold       hash.Shifts // h as Fold32 takes it, when fast
	fast       bool        // Fold32 with fold equals h.Update: the inlined fast path
	l1mask     uint32      // 2^l1bits − 1, applied to pc>>2
	strideMask uint32      // low strideBits set: truncate is one AND
	extShift   uint        // 32 − strideBits: sign-extension shift pair (0 = identity)
	last       []uint32    // level-1: last value per static instruction
	hist       []uint64    // level-1: hashed stride history per static instruction
	l2         []uint32    // next stride per context, truncated to strideBits
}

// NewDFCM returns a DFCM with 2^l1bits level-1 entries and 2^l2bits
// level-2 entries, full 32-bit stored strides, and the paper's FS R-5
// history hash. Use NewDFCMWidth to shrink the stored stride width
// (the paper's section 4.4 experiment) and NewDFCMHash for another
// FS R-k function.
//
// Size accounting: level-1 stores the hashed history plus the 32-bit
// last value (the paper's stated extra cost of DFCM); level-2 stores
// one stride of strideBits per entry.
// Total: 2^l1bits × (l2bits + 32) + 2^l2bits × strideBits.
func NewDFCM(l1bits, l2bits uint) *DFCM {
	return NewDFCMHash(l1bits, l2bits, 32, hash.NewFSR5(l2bits))
}

// NewDFCMWidth is NewDFCM with stored strides truncated to strideBits
// bits (1..32). Truncated strides are sign-extended back to 32 bits
// when predicting, so small positive and negative strides survive
// intact; only the level-2 storage shrinks (the history hash still
// sees the full stride).
func NewDFCMWidth(l1bits, l2bits, strideBits uint) *DFCM {
	return NewDFCMHash(l1bits, l2bits, strideBits, hash.NewFSR5(l2bits))
}

// NewDFCMHash is the fully explicit constructor, with an FS R-k
// history hash. The hash must produce l2bits-wide indices;
// NewDFCMHash panics otherwise, or if strideBits is outside 1..32.
func NewDFCMHash(l1bits, l2bits, strideBits uint, h *hash.FSR) *DFCM {
	checkBits("DFCM level-1", l1bits, 30)
	checkBits("DFCM level-2", l2bits, 30)
	if strideBits == 0 || strideBits > 32 {
		panic(fmt.Sprintf("core: DFCM stride width %d out of range [1,32]", strideBits))
	}
	if h.IndexBits() != l2bits {
		panic(fmt.Sprintf("core: hash produces %d-bit indices, level-2 needs %d",
			h.IndexBits(), l2bits))
	}
	fold, fast := h.Shifts32()
	return &DFCM{
		l1bits:     l1bits,
		l2bits:     l2bits,
		strideBits: strideBits,
		h:          h,
		fold:       fold,
		fast:       fast,
		l1mask:     uint32(1<<l1bits) - 1,
		strideMask: uint32((uint64(1) << strideBits) - 1),
		extShift:   32 - strideBits,
		last:       make([]uint32, 1<<l1bits),
		hist:       make([]uint64, 1<<l1bits),
		l2:         make([]uint32, 1<<l2bits),
	}
}

// signExtend sign-extends a stored stride back to 32 bits: shift the
// sign bit of the stored width up to bit 31, then arithmetic-shift
// back down. shift is 32 − strideBits, 0 at full width, making the
// pair an identity — no width branch on the predict path. shift is at
// most 31, so the &31 changes nothing but lets the compiler drop the
// guard a variable shift otherwise pays.
func signExtend(stored uint32, shift uint) uint32 {
	return uint32(int32(stored<<(shift&31)) >> (shift & 31))
}

// Predict returns the instruction's last value plus the stride the
// level-2 table associates with its current difference history.
func (p *DFCM) Predict(pc uint32) uint32 {
	i := (pc >> 2) & p.l1mask
	return p.last[i] + signExtend(p.l2[p.hist[i]], p.extShift)
}

// Update computes the new stride (value − last), stores it in the
// level-2 entry the prediction came from, folds it into the history,
// and records value as the new last value. On the fast path the
// history fold is the inlined hash.Fold32 instead of a call to
// FSR.Update.
func (p *DFCM) Update(pc, value uint32) {
	i := int((pc >> 2) & p.l1mask)
	h, stride, _ := dfcmStep(p.last, p.hist, p.l2, i, value, p.strideMask, p.extShift)
	if p.fast {
		p.hist[i] = hash.Fold32(h, stride, p.fold)
	} else {
		p.hist[i] = p.h.Update(h, uint64(stride))
	}
}

// dfcmStep is the DFCM update rule at level-1 entry i for produced
// value v, up to the history fold: it stores the new stride v − last[i]
// (masked to the stored width by sMask) in the level-2 entry the
// prediction came from and records v as the last value. It returns
// that entry's index h = hist[i], the full stride the caller folds
// into the history, and 1 if the entry predicted v, 0 otherwise. It
// takes the tables as arguments so RunBatch can hoist the slices out
// of its loop.
func dfcmStep(last []uint32, hist []uint64, l2 []uint32, i int, v, sMask uint32, eShift uint) (h uint64, stride uint32, hit int32) {
	h = hist[i]
	lv := last[i]
	hit = hit01(lv+signExtend(l2[h], eShift), v)
	stride = v - lv
	l2[h] = stride & sMask
	last[i] = v
	return h, stride, hit
}

// L2Index implements L2Indexer.
func (p *DFCM) L2Index(pc uint32) uint64 { return p.hist[(pc>>2)&p.l1mask] }

// L2Entries implements L2Indexer.
func (p *DFCM) L2Entries() int { return len(p.l2) }

// L1Entries implements HistoryFeeder.
func (p *DFCM) L1Entries() int { return len(p.last) }

// L1Index implements HistoryFeeder.
func (p *DFCM) L1Index(pc uint32) uint32 { return (pc >> 2) & p.l1mask }

// HistoryInput implements HistoryFeeder: the DFCM's history consumes
// strides, so the input for an update is value − lastValue. Must be
// called before the Update that consumes the same event.
func (p *DFCM) HistoryInput(pc, value uint32) uint64 {
	return uint64(value - p.last[(pc>>2)&p.l1mask])
}

// Order returns the number of strides influencing a prediction.
func (p *DFCM) Order() int { return p.h.Order() }

// Reset implements Snapshotter.
func (p *DFCM) Reset() { resetState(p) }

// walkState lists the state: level-1 rows (last value, stride
// history), interleaved exactly as the pre-SoA struct layout
// serialized them, then the level-2 strides. A history is a level-2
// index and a stored stride must fit the configured width.
func (p *DFCM) walkState(w *stateWalk) {
	w.table(col32(p.last, math.MaxUint32), col64(p.hist, uint64(len(p.l2)-1)))
	w.table(col32(p.l2, p.strideMask))
}

// AppendState implements Snapshotter.
func (p *DFCM) AppendState(b []byte) []byte { return appendState(p, b) }

// RestoreState implements Snapshotter.
func (p *DFCM) RestoreState(data []byte) error { return restoreState(p, data) }

// StateTables implements Snapshotter.
func (p *DFCM) StateTables() []TableInfo {
	l1Live, l2Live := 0, 0
	for i := range p.last {
		if p.last[i] != 0 || p.hist[i] != 0 {
			l1Live++
		}
	}
	for _, v := range p.l2 {
		if v != 0 {
			l2Live++
		}
	}
	return []TableInfo{
		{Name: "l1", Entries: len(p.last), Live: l1Live},
		{Name: "l2", Entries: len(p.l2), Live: l2Live},
	}
}

// Name implements Predictor.
func (p *DFCM) Name() string {
	if p.strideBits != 32 {
		return fmt.Sprintf("dfcm-2^%d/2^%d/w%d", p.l1bits, p.l2bits, p.strideBits)
	}
	return fmt.Sprintf("dfcm-2^%d/2^%d", p.l1bits, p.l2bits)
}

// SizeBits implements Predictor.
func (p *DFCM) SizeBits() int64 {
	return int64(len(p.last))*int64(p.l2bits+32) + int64(len(p.l2))*int64(p.strideBits)
}
