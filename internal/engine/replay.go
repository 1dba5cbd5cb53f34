package engine

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// replay drives every predictor over events, predictor by predictor:
// each predictor consumes the whole slice in one core.RunBatch call
// before the next predictor starts, so only its tables compete for
// cache while it runs. Results accumulate into results, which is
// exactly one core.Run per predictor over everything replayed so far,
// because predictor state carries across calls and results are plain
// counters.
//
// This is the engine's streaming hot path: it must not allocate, which
// BenchmarkEngineReplay holds at 0 allocs/op under `make allocgate`.
func replay(preds []core.Predictor, results []core.Result, events []trace.Event) {
	for i, p := range preds {
		r := core.RunBatch(p, events)
		results[i].Predictions += r.Predictions
		results[i].Correct += r.Correct
	}
}
