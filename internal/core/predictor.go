// Package core implements the value predictors studied in the DFCM
// paper (Goeman, Vandierendonck, De Bosschere, HPCA 2001): the
// last-value predictor, the confidence-gated stride predictor, the
// two-delta stride predictor, the finite context method (FCM), the
// paper's contribution — the differential finite context method
// (DFCM) — and a hybrid with a saturating-counter meta-predictor.
// The paper's perfect meta-predictor is an oracle, not a predictor:
// its hits are the union of its components' per-event hit masks
// (Hits, UnionHits).
//
// All predictors consume the same trace interface: a stream of
// (pc, value) events where pc is the program counter of a static
// instruction and value is the 32-bit integer register value it
// produced. Accuracy is the fraction of events whose value was
// predicted exactly.
//
// Every predictor reports its hardware budget via SizeBits, using the
// accounting documented on its constructor, so that experiments can
// reproduce the paper's accuracy-versus-Kbit plots.
package core

import (
	"math/bits"

	"repro/internal/trace"
)

// Predictor is a value predictor processing one trace event at a time:
// first Predict is consulted for the instruction at pc, then — once the
// instruction's true result is known — Update trains the tables.
// Implementations are deterministic and not safe for concurrent use.
type Predictor interface {
	// Predict returns the predicted result value of the instruction
	// at pc. A prediction is always produced; confidence filtering is
	// out of scope (the paper measures raw accuracy).
	Predict(pc uint32) uint32
	// Update trains the predictor with the actual value produced by
	// the instruction at pc.
	Update(pc, value uint32)
	// Name identifies the predictor configuration in reports.
	Name() string
	// SizeBits returns the storage budget of the predictor in bits.
	SizeBits() int64
}

// BatchRunner is implemented by predictors that can process a whole
// in-memory chunk of events with a concrete-type loop. The top-level
// RunBatch prefers it over the generic per-event loop: one interface
// dispatch per chunk instead of two per event, with the table accesses
// and hash updates fully inlined inside the method. Semantics are
// exactly those of the generic loop; equivalence is pinned by
// TestRunBatchConcreteMatchesGeneric.
type BatchRunner interface {
	// RunBatch processes the events in order and returns the result of
	// exactly that slice. State carries across calls, like Run.
	RunBatch(batch []trace.Event) Result
}

// L2Indexer is implemented by two-level predictors (FCM, DFCM) and
// exposes the level-2 table index a prediction at pc would use. The
// table-usage experiments (paper Figures 6 and 9) build their
// per-entry access histograms through this interface.
type L2Indexer interface {
	// L2Index returns the level-2 index Predict(pc) would consult.
	L2Index(pc uint32) uint64
	// L2Entries returns the number of level-2 table entries.
	L2Entries() int
}

// Resetter is implemented by predictors that can return to their
// freshly-constructed state in place, without reallocating tables.
// After Reset, the predictor behaves exactly like a new instance from
// the same constructor. Long-lived services (internal/serve) use this
// to recycle per-session predictor state; every type a Spec can build
// implements it (see state.go).
type Resetter interface {
	// Reset clears all learned state.
	Reset()
}

// TryReset resets p in place if it implements Resetter and reports
// whether it did; callers fall back to re-construction otherwise.
func TryReset(p Predictor) bool {
	if r, ok := p.(Resetter); ok {
		r.Reset()
		return true
	}
	return false
}

// mustReset resets a wrapped component and panics if it cannot be
// reset — a wrapper's Reset is only meaningful when it reaches every
// table underneath it.
func mustReset(p Predictor) {
	if !TryReset(p) {
		panic("core: " + p.Name() + " does not implement Reset")
	}
}

// Result accumulates prediction outcomes.
type Result struct {
	Predictions uint64
	Correct     uint64
}

// Accuracy returns Correct/Predictions, or 0 for an empty result.
func (r Result) Accuracy() float64 {
	if r.Predictions == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Predictions)
}

// Add merges other into r.
func (r *Result) Add(other Result) {
	r.Predictions += other.Predictions
	r.Correct += other.Correct
}

// Run drives p over all events of src and returns the accumulated
// result: each event is processed as Predict, compare, Update.
func Run(p Predictor, src trace.Source) Result {
	var res Result
	for {
		e, more := src.Next()
		if !more {
			return res
		}
		res.Predictions++
		if p.Predict(e.PC) == e.Value {
			res.Correct++
		}
		p.Update(e.PC, e.Value)
	}
}

// RunBatch drives p over one in-memory slice of events and returns
// the result of exactly that slice. It is the in-memory counterpart
// of Run: callers that already hold a materialized trace avoid the
// per-event Source.Next interface dispatch. Feeding consecutive
// slices of a trace through RunBatch and summing the results is
// exactly equivalent to one Run over the whole trace: predictor state
// carries across calls and Result is a plain event count.
func RunBatch(p Predictor, batch []trace.Event) Result {
	if b, ok := p.(BatchRunner); ok {
		return b.RunBatch(batch)
	}
	return runEach(p, batch, nil)
}

// Hits is RunBatch that also records each event's outcome: bit j%64
// of hits[j/64] is set exactly when batch[j] was predicted (Hit). It
// clears the HitWords(len(batch)) words it covers first, so hits may
// be reused; len(hits) must be at least that. Hits always takes the
// generic per-event loop: only offline experiments read outcomes, so
// the concrete kernels stay count-only.
func Hits(p Predictor, batch []trace.Event, hits []uint64) Result {
	clear(hits[:HitWords(len(batch))])
	return runEach(p, batch, hits)
}

// HitWords returns the number of mask words that hold n events.
func HitWords(n int) int { return (n + 63) / 64 }

// Hit reports whether event j is set in a hit mask.
func Hit(hits []uint64, j int) bool { return hits[j>>6]>>(j&63)&1 != 0 }

// UnionHits returns the number of events set in any of the masks,
// the popcount of their OR. It is the hit count of the paper's
// perfect meta-predictor (§4.3): an oracle that counts an event as
// correct when any component predicted it, with every component
// trained on every event, hits exactly where the components'
// standalone runs hit. All masks must cover the same events.
func UnionHits(masks ...[]uint64) uint64 {
	if len(masks) == 0 {
		return 0
	}
	var n uint64
	for i := range masks[0] {
		var w uint64
		for _, m := range masks {
			w |= m[i]
		}
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// runEach is RunBatch's generic per-event loop: Predict then Update,
// through the interface. A BatchRunner that has no concrete loop for
// its current configuration falls back to it. When hits is non-nil,
// bit j of it is set for each predicted batch[j]; the caller clears
// it first.
func runEach(p Predictor, batch []trace.Event, hits []uint64) Result {
	res := Result{Predictions: uint64(len(batch))}
	for j, e := range batch {
		h := hit01(p.Predict(e.PC), e.Value)
		res.Correct += uint64(h)
		if hits != nil {
			hits[j>>6] |= uint64(h) << (j & 63)
		}
		p.Update(e.PC, e.Value)
	}
	return res
}

// pcIndex maps a program counter to a table index of the given width.
// MR32 instructions are 4-byte aligned (as on the paper's MIPS
// target), so the two always-zero low bits are dropped first; without
// this, three quarters of every PC-indexed table would be dead.
func pcIndex(pc uint32, bits uint) uint32 {
	return (pc >> 2) & uint32((1<<bits)-1)
}

// checkBits panics unless b is a usable table index width.
func checkBits(what string, b, max uint) {
	if b > max {
		panic("core: " + what + " table index width out of range")
	}
}
