package core

import (
	"fmt"
	"math"

	"repro/internal/hash"
)

// FCM is the finite context method predictor (Sazeides & Smith): a
// two-level structure in which the level-1 table, indexed by PC, holds
// a hashed history of the values recently produced by the instruction,
// and the shared level-2 table, indexed by that history, holds the
// value most likely to follow the context.
type FCM struct {
	l1bits uint
	l2bits uint
	h      *hash.FSR
	fold   hash.Shifts // h as Fold32 takes it, when fast
	fast   bool        // Fold32 with fold equals h.Update: the inlined fast path
	l1mask uint32      // 2^l1bits − 1, applied to pc>>2
	l1     []uint64    // hashed value history per static instruction
	l2     []uint32    // predicted next value per context
}

// NewFCM returns an FCM with 2^l1bits level-1 entries and 2^l2bits
// level-2 entries, hashing histories with the paper's FS R-5 function.
// Use NewFCMHash to supply a different FS R-k function.
//
// Size accounting: level-1 stores only the hashed history (l2bits bits
// per entry — the full history need not be stored since the hash
// updates incrementally); level-2 stores a 32-bit value per entry.
// Total: 2^l1bits × l2bits + 2^l2bits × 32 bits.
func NewFCM(l1bits, l2bits uint) *FCM {
	return NewFCMHash(l1bits, l2bits, hash.NewFSR5(l2bits))
}

// NewFCMHash is NewFCM with an explicit FS R-k history hash. The hash
// must produce l2bits-wide indices; NewFCMHash panics otherwise.
func NewFCMHash(l1bits, l2bits uint, h *hash.FSR) *FCM {
	checkBits("FCM level-1", l1bits, 30)
	checkBits("FCM level-2", l2bits, 30)
	if h.IndexBits() != l2bits {
		panic(fmt.Sprintf("core: hash produces %d-bit indices, level-2 needs %d",
			h.IndexBits(), l2bits))
	}
	fold, fast := h.Shifts32()
	return &FCM{
		l1bits: l1bits,
		l2bits: l2bits,
		h:      h,
		fold:   fold,
		fast:   fast,
		l1mask: uint32(1<<l1bits) - 1,
		l1:     make([]uint64, 1<<l1bits),
		l2:     make([]uint32, 1<<l2bits),
	}
}

// Predict looks up the instruction's history in level-1 and returns
// the level-2 value stored for that context.
func (p *FCM) Predict(pc uint32) uint32 {
	return p.l2[p.l1[(pc>>2)&p.l1mask]]
}

// Update writes the produced value into the level-2 entry the
// prediction came from and appends the value to the level-1 history.
// On the fast path the history fold is the inlined hash.Fold32
// instead of a call to FSR.Update.
func (p *FCM) Update(pc, value uint32) {
	i := int((pc >> 2) & p.l1mask)
	h, _ := fcmStep(p.l1, p.l2, i, value)
	if p.fast {
		p.l1[i] = hash.Fold32(h, value, p.fold)
	} else {
		p.l1[i] = p.h.Update(h, uint64(value))
	}
}

// fcmStep is the FCM update rule at level-1 entry i for produced value
// v, up to the history fold: it writes v into the level-2 entry the
// prediction came from and returns that entry's index h = l1[i] (the
// history the caller folds v into) and 1 if the entry predicted v, 0
// otherwise. It takes the tables as arguments so RunBatch can hoist
// the slices out of its loop.
func fcmStep(l1 []uint64, l2 []uint32, i int, v uint32) (h uint64, hit int32) {
	h = l1[i]
	hit = hit01(l2[h], v)
	l2[h] = v
	return h, hit
}

// L2Index implements L2Indexer.
func (p *FCM) L2Index(pc uint32) uint64 { return p.l1[(pc>>2)&p.l1mask] }

// L2Entries implements L2Indexer.
func (p *FCM) L2Entries() int { return len(p.l2) }

// L1Entries implements HistoryFeeder.
func (p *FCM) L1Entries() int { return len(p.l1) }

// L1Index implements HistoryFeeder.
func (p *FCM) L1Index(pc uint32) uint32 { return (pc >> 2) & p.l1mask }

// HistoryInput implements HistoryFeeder: the FCM's history consumes
// the produced values themselves.
func (p *FCM) HistoryInput(pc, value uint32) uint64 { return uint64(value) }

// Order returns the number of history values influencing a prediction.
func (p *FCM) Order() int { return p.h.Order() }

// Reset implements Snapshotter.
func (p *FCM) Reset() { resetState(p) }

// walkState lists the state: the level-1 histories, each a level-2
// index (restore rejects one past the level-2 table, which Predict
// would dereference), then the level-2 values.
func (p *FCM) walkState(w *stateWalk) {
	w.table(col64(p.l1, uint64(len(p.l2)-1)))
	w.table(col32(p.l2, math.MaxUint32))
}

// AppendState implements Snapshotter.
func (p *FCM) AppendState(b []byte) []byte { return appendState(p, b) }

// RestoreState implements Snapshotter.
func (p *FCM) RestoreState(data []byte) error { return restoreState(p, data) }

// StateTables implements Snapshotter.
func (p *FCM) StateTables() []TableInfo {
	l1Live, l2Live := 0, 0
	for _, h := range p.l1 {
		if h != 0 {
			l1Live++
		}
	}
	for _, v := range p.l2 {
		if v != 0 {
			l2Live++
		}
	}
	return []TableInfo{
		{Name: "l1", Entries: len(p.l1), Live: l1Live},
		{Name: "l2", Entries: len(p.l2), Live: l2Live},
	}
}

// Name implements Predictor.
func (p *FCM) Name() string { return fmt.Sprintf("fcm-2^%d/2^%d", p.l1bits, p.l2bits) }

// SizeBits implements Predictor.
func (p *FCM) SizeBits() int64 {
	return int64(len(p.l1))*int64(p.l2bits) + int64(len(p.l2))*32
}
