package engine

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// Stream drives a fixed set of predictors over one incrementally
// arriving event stream. It is the engine's streaming core: the
// offline Sweep replays each benchmark's cached trace through a
// Stream in one Feed call, and the online autotuner
// (internal/autotune) feeds a Stream with mirrored live traffic, one
// sampled batch at a time, to shadow-evaluate candidate predictor
// configurations.
//
// Feeding a trace through Feed in any number of consecutive slices is
// exactly equivalent to one core.Run per predictor over the whole
// trace: predictor state carries across calls and results are plain
// counters, so slice boundaries cannot change any output. The offline
// equivalence tests (TestSweepMatchesPerEventRun, TestStreamFeed and
// internal/experiments.TestRegistryDigest) pin that invariant.
//
// A Stream is not safe for concurrent use: exactly one goroutine may
// Feed it.
type Stream struct {
	preds   []core.Predictor
	results []core.Result
	chunk   int
	done    bool
}

// NewStream returns a stream over the given predictors. The stream
// replays input in chunks of at most chunkSize events so a chunk
// stays hot in cache while every predictor consumes it; chunkSize <= 0
// selects the engine default. The predictors are owned by the stream
// until a caller takes them back with Predictor.
func NewStream(preds []core.Predictor, chunkSize int) *Stream {
	if chunkSize <= 0 {
		chunkSize = defaultChunk
	}
	return &Stream{
		preds:   preds,
		results: make([]core.Result, len(preds)),
		chunk:   chunkSize,
	}
}

// Feed replays one slice of events through every predictor, in order,
// accumulating into the stream's running results. The events are only
// read during the call; the caller keeps ownership of the slice.
// Feed after Finalize panics — the results were handed out.
func (s *Stream) Feed(events []trace.Event) {
	if s.done {
		panic("engine: Stream.Feed after Finalize")
	}
	replayChunks(s.preds, s.results, events, s.chunk)
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
