package engine

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// Stream drives a fixed set of predictors over one incrementally
// arriving event stream. The online autotuner (internal/autotune)
// feeds a Stream with mirrored live traffic, one sampled batch at a
// time, to shadow-evaluate candidate predictor configurations. Each
// Feed is predictor-major: every predictor consumes the whole fed
// slice in one core.RunBatch call (replay), the same rule the
// offline Sweep applies to a whole cached trace.
//
// Feeding a trace through Feed in any number of consecutive slices is
// exactly equivalent to one core.Run per predictor over the whole
// trace: predictor state carries across calls and results are plain
// counters, so slice boundaries cannot change any output. The
// equivalence tests (TestSweepMatchesPerEventRun, TestStreamFeed and
// internal/experiments.TestRegistryDigest) pin that invariant.
//
// A Stream is not safe for concurrent use: exactly one goroutine may
// Feed it.
type Stream struct {
	preds   []core.Predictor
	results []core.Result
	done    bool
}

// NewStream returns a stream over the given predictors. The
// predictors are owned by the stream until a caller takes them back
// with Predictor. The second parameter is unused: it was the replay
// chunk size before Feed became predictor-major, and it stays only so
// existing callers compile unchanged.
func NewStream(preds []core.Predictor, _ int) *Stream {
	return &Stream{
		preds:   preds,
		results: make([]core.Result, len(preds)),
	}
}

// Feed replays one slice of events through every predictor, one
// predictor at a time, accumulating into the stream's running
// results. The events are only read during the call; the caller keeps
// ownership of the slice. Feed after Finalize panics — the results
// were handed out.
func (s *Stream) Feed(events []trace.Event) {
	if s.done {
		panic("engine: Stream.Feed after Finalize")
	}
	replay(s.preds, s.results, events)
}

// Results returns the running per-predictor results accumulated so
// far, aliasing the stream's storage: valid snapshot between Feed
// calls, overwritten by the next Feed. Callers needing a stable copy
// must take one.
func (s *Stream) Results() []core.Result { return s.results }

// Predictor returns the i'th predictor with its state as trained by
// everything fed so far. The reference stays live inside the stream —
// callers taking a predictor out for good (the autotuner's hot-swap
// promotion) must stop feeding the stream afterwards.
func (s *Stream) Predictor(i int) core.Predictor { return s.preds[i] }

// Finalize ends the stream and returns the accumulated per-predictor
// results. Further Feed calls panic.
func (s *Stream) Finalize() []core.Result {
	s.done = true
	return s.results
}
