// Package alias implements the paper's aliasing taxonomy (section
// 4.2): every prediction made by a two-level predictor (FCM or DFCM)
// is assigned to exactly one of five categories, checked in priority
// order:
//
//	l1      — some value in the history used to index level-2 was
//	          produced by a different static instruction (level-1
//	          table aliasing),
//	hash    — the complete (unhashed) history recorded at the level-2
//	          entry's last update differs from the current one (hash
//	          aliasing),
//	l2_priv — a private per-instruction level-2 table would have
//	          yielded a different prediction than the shared one,
//	l2_pc   — the level-2 entry was last updated by a different
//	          instruction (but with the same complete history),
//	none    — no aliasing detected.
//
// The analyzer is shadow instrumentation: its predictions are
// bit-identical to the corresponding core.FCM / core.DFCM predictor
// (verified by tests), and the bookkeeping (writer PCs, full
// histories, level-2 tags, private tables) exists only to classify.
package alias

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/trace"
)

// Kind is an aliasing category.
type Kind int

// Categories in the paper's priority order.
const (
	L1 Kind = iota
	Hash
	L2Priv
	L2PC
	None
	NumKinds
)

// String returns the paper's label for the category.
func (k Kind) String() string {
	switch k {
	case L1:
		return "l1"
	case Hash:
		return "hash"
	case L2Priv:
		return "l2_priv"
	case L2PC:
		return "l2_pc"
	case None:
		return "none"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds lists all categories in priority order.
func Kinds() []Kind { return []Kind{L1, Hash, L2Priv, L2PC, None} }

// Analyzer is an instrumented FCM (differential=false) or DFCM
// (differential=true).
//
// Its state is flat structure-of-arrays, like core.DFCM's (DESIGN.md
// §13). Level-1 entry i owns the slots [i·order, (i+1)·order) of
// recVal and recPC: the complete (unhashed) history, oldest first,
// with recN[i] of them filled. Level-2 entry j owns the slots
// [j·order, (j+1)·order) of tagHist: the complete history recorded at
// its last update, tagLen[j]−1 long. The private level-2 table of
// level-1 entry i is the dense 2^l2bits row priv[i], allocated zeroed
// on that entry's first event, so only the entries a trace touches
// cost memory.
type Analyzer struct {
	differential bool
	l1bits       uint
	l1mask       uint32      // 2^l1bits − 1, applied to pc>>2
	h            *hash.FSR   // the paper's FS R-5 history hash
	fold         hash.Shifts // h as Fold32 takes it, when fast
	fast         bool        // Fold32 computes h (l2bits >= 8)
	order        int         // values the hash retains: the complete history's length

	// Level-1, one entry per 2^l1bits.
	last   []uint32 // last value; stays 0 in FCM mode, so value − last is the value
	hist   []uint64 // hashed history, exactly as the real predictor keeps it
	recN   []uint8  // complete-history length, 0..order
	recVal []uint32 // complete-history values (strides in DFCM mode), order slots per entry
	recPC  []uint32 // the instruction that produced each recVal slot

	// Level-2, one entry per 2^l2bits.
	l2      []uint32 // value (or stride), exactly as the real predictor keeps it
	tagPC   []uint32 // instruction of the last update
	tagLen  []uint8  // 1 + length of the complete history recorded at the last update; 0 = never updated
	tagHist []uint32 // complete history recorded at the last update, order slots per entry

	priv [][]uint32 // per level-1 entry: private level-2 row, nil until its first event

	counts [NumKinds]core.Result
}

// New returns an analyzer for a 2^l1bits x 2^l2bits predictor with
// the paper's FS R-5 hash. differential selects DFCM semantics.
func New(l1bits, l2bits uint, differential bool) *Analyzer {
	h := hash.NewFSR5(l2bits)
	fold, fast := h.Shifts32()
	order := h.Order()
	n1, n2 := 1<<l1bits, 1<<l2bits
	return &Analyzer{
		differential: differential,
		l1bits:       l1bits,
		l1mask:       uint32(n1 - 1),
		h:            h,
		fold:         fold,
		fast:         fast,
		order:        order,
		last:         make([]uint32, n1),
		hist:         make([]uint64, n1),
		recN:         make([]uint8, n1),
		recVal:       make([]uint32, n1*order),
		recPC:        make([]uint32, n1*order),
		l2:           make([]uint32, n2),
		tagPC:        make([]uint32, n2),
		tagLen:       make([]uint8, n2),
		tagHist:      make([]uint32, n2*order),
		priv:         make([][]uint32, n1),
	}
}

// Name identifies the analyzed predictor.
func (a *Analyzer) Name() string {
	kind := "fcm"
	if a.differential {
		kind = "dfcm"
	}
	return fmt.Sprintf("%s-2^%d/2^%d (alias analysis)", kind, a.l1bits, a.h.IndexBits())
}

// Step processes one event: predicts, classifies, scores and updates.
// It returns the category and whether the prediction was correct.
//
// Classification applies the paper's rules in priority order. Each
// rule that fires sets its category's bit in a mask whose None bit is
// always set, and the lowest set bit is the category: the first rule
// that fires. Evaluating every rule, rather than branching on each,
// keeps the data-dependent category out of the branch predictor.
func (a *Analyzer) Step(pc, value uint32) (Kind, bool) {
	i := (pc >> 2) & a.l1mask
	row := a.priv[i]
	if row == nil {
		// A new private level-2 table reads zero, like a real zeroed one.
		row = make([]uint32, len(a.l2))
		a.priv[i] = row
	}
	idx := a.hist[i]
	last, stored := a.last[i], a.l2[idx]
	correct := last+stored == value

	n := int(a.recN[i])
	r, t := int(i)*a.order, int(idx)*a.order
	vals, pcs := a.recVal[r:r+a.order], a.recPC[r:r+a.order]
	tag := a.tagHist[t : t+n]
	// l1: all history values must come from the predicted instruction.
	// hash: the complete history must match the one recorded at the
	// level-2 entry; an entry never updated (tagLen 0) cannot match.
	var l1, h uint32
	for k := range tag {
		l1 |= pcs[k] ^ pc
		h |= vals[k] ^ tag[k]
	}
	h |= uint32(a.tagLen[idx]) ^ uint32(n+1)
	// l2_priv: the private level-2 table must agree with the global one.
	// l2_pc: the entry must have been updated by this instruction.
	mask := nonzero(l1)<<L1 | nonzero(h)<<Hash | nonzero(row[idx]^stored)<<L2Priv |
		nonzero(a.tagPC[idx]^pc)<<L2PC | 1<<None
	kind := Kind(bits.TrailingZeros32(mask))
	a.counts[kind].Predictions++
	if correct {
		a.counts[kind].Correct++
	}

	// Update the level-2 entry, shared and private, as the real
	// predictor does, and tag it with this PC and the complete history
	// that selected it.
	w := value - last
	a.l2[idx] = w
	row[idx] = w
	a.tagPC[idx] = pc
	for k := range tag { // a loop: copy would call memmove for these few words
		tag[k] = vals[k]
	}
	a.tagLen[idx] = uint8(n + 1)
	// Level-1: fold w into the hashed history, and append it to the
	// complete one, dropping the oldest item once that holds order.
	if a.fast {
		a.hist[i] = hash.Fold32(idx, w, a.fold)
	} else {
		a.hist[i] = a.h.Update(idx, uint64(w))
	}
	if n == a.order {
		for k := 1; k < n; k++ {
			vals[k-1], pcs[k-1] = vals[k], pcs[k]
		}
		n--
	}
	vals[n], pcs[n] = w, pc
	a.recN[i] = uint8(n + 1)
	if a.differential {
		a.last[i] = value
	}
	return kind, correct
}

// nonzero returns 1 if x != 0 and 0 otherwise, without a branch.
func nonzero(x uint32) uint32 { return uint32(-uint64(x) >> 63) }

// Run classifies an entire trace.
func (a *Analyzer) Run(tr trace.Trace) {
	for _, e := range tr {
		a.Step(e.PC, e.Value)
	}
}

// Counts returns the per-category results (predictions and correct
// counts) accumulated so far.
func (a *Analyzer) Counts() [NumKinds]core.Result { return a.counts }

// Total returns the overall result across categories.
func (a *Analyzer) Total() core.Result {
	var t core.Result
	for _, c := range a.counts {
		t.Add(c)
	}
	return t
}
