// Package core implements the value predictors studied in the DFCM
// paper (Goeman, Vandierendonck, De Bosschere, HPCA 2001): the
// last-value predictor, the confidence-gated stride predictor, the
// two-delta stride predictor, the finite context method (FCM), the
// paper's contribution — the differential finite context method
// (DFCM) — and hybrid predictors with perfect or saturating-counter
// meta-predictors.
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

import "repro/internal/trace"

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

// Scorer is implemented by predictors whose correctness cannot be
// judged by comparing a single predicted value against the outcome —
// notably perfect-meta hybrids, which count an event as correct when
// any component predicted it. Run prefers Score over Predict/Update
// when available. No Spec kind builds a Scorer: an oracle's hits are
// an offline bound (Figure 16) that no serving client can reach.
type Scorer interface {
	// Score predicts, judges and updates in one step, returning
	// whether the event counts as correctly predicted.
	Score(pc, value uint32) bool
}

// BatchRunner is implemented by predictors that can process a whole
// in-memory chunk of events with a concrete-type loop. The top-level
// RunBatch prefers it over the generic per-event loop: one interface
// dispatch per chunk instead of two per event, with the table accesses
// and hash updates fully inlined inside the method. Semantics are
// exactly those of the generic loop (including Score for Scorers);
// equivalence is pinned by TestRunBatchConcreteMatchesGeneric.
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
// result. If p implements Scorer, its one-step Score is used;
// otherwise each event is processed as Predict, compare, Update.
func Run(p Predictor, src trace.Source) Result {
	var res Result
	if s, ok := p.(Scorer); ok {
		for {
			e, more := src.Next()
			if !more {
				return res
			}
			res.Predictions++
			if s.Score(e.PC, e.Value) {
				res.Correct++
			}
		}
	}
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
// the result of exactly that slice. It is the chunked counterpart of
// Run: callers that already hold a materialized trace avoid the
// per-event Source.Next interface dispatch, and a sweep engine can
// interleave many predictors over the same chunk while it is hot in
// cache (internal/engine). Feeding consecutive chunks of a trace
// through RunBatch and summing the results is exactly equivalent to
// one Run over the whole trace: predictor state carries across calls
// and Result is a plain event count.
func RunBatch(p Predictor, batch []trace.Event) Result {
	if b, ok := p.(BatchRunner); ok {
		return b.RunBatch(batch)
	}
	return runEach(p, batch)
}

// runEach is RunBatch's generic per-event loop: Score for Scorers,
// otherwise Predict then Update, through the interface. A BatchRunner
// that has no concrete loop for its current configuration falls back
// to it.
func runEach(p Predictor, batch []trace.Event) Result {
	var res Result
	res.Predictions = uint64(len(batch))
	if s, ok := p.(Scorer); ok {
		for _, e := range batch {
			if s.Score(e.PC, e.Value) {
				res.Correct++
			}
		}
		return res
	}
	for _, e := range batch {
		if p.Predict(e.PC) == e.Value {
			res.Correct++
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
