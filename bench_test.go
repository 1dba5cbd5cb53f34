package repro

// One testing.B benchmark per paper table/figure: each bench runs the
// corresponding experiment end to end (trace generation is cached
// after the first iteration, so steady-state iterations measure the
// predictor sweeps). benchBudget keeps -bench=. runs tractable; the
// CLI (cmd/dfcmsim) runs the same experiments at full budgets.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/progs"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

const benchBudget = 120_000

var benchCfg = experiments.Config{Budget: benchBudget}

// smallCfg restricts the costliest sweeps to a benchmark subset.
var smallCfg = experiments.Config{
	Budget:     benchBudget,
	Benchmarks: []string{"li", "ijpeg", "m88ksim", "go"},
}

func runExperiment(b *testing.B, id string, cfg experiments.Config) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

func BenchmarkTable1(b *testing.B)         { runExperiment(b, "table1", benchCfg) }
func BenchmarkFig3(b *testing.B)           { runExperiment(b, "fig3", smallCfg) }
func BenchmarkFig4(b *testing.B)           { runExperiment(b, "fig4", benchCfg) }
func BenchmarkFig6(b *testing.B)           { runExperiment(b, "fig6", benchCfg) }
func BenchmarkFig8(b *testing.B)           { runExperiment(b, "fig8", benchCfg) }
func BenchmarkFig9(b *testing.B)           { runExperiment(b, "fig9", benchCfg) }
func BenchmarkFig10a(b *testing.B)         { runExperiment(b, "fig10a", benchCfg) }
func BenchmarkFig10b(b *testing.B)         { runExperiment(b, "fig10b", benchCfg) }
func BenchmarkFig11a(b *testing.B)         { runExperiment(b, "fig11a", smallCfg) }
func BenchmarkFig11b(b *testing.B)         { runExperiment(b, "fig11b", smallCfg) }
func BenchmarkFig12(b *testing.B)          { runExperiment(b, "fig12", smallCfg) }
func BenchmarkFig13(b *testing.B)          { runExperiment(b, "fig13", smallCfg) }
func BenchmarkFig14(b *testing.B)          { runExperiment(b, "fig14", smallCfg) }
func BenchmarkFig16(b *testing.B)          { runExperiment(b, "fig16", smallCfg) }
func BenchmarkFig17(b *testing.B)          { runExperiment(b, "fig17", smallCfg) }
func BenchmarkSec44(b *testing.B)          { runExperiment(b, "sec44", smallCfg) }
func BenchmarkExtConfidence(b *testing.B)  { runExperiment(b, "ext-confidence", smallCfg) }
func BenchmarkExtRelatedWork(b *testing.B) { runExperiment(b, "ext-relatedwork", smallCfg) }
func BenchmarkExtPredictability(b *testing.B) {
	runExperiment(b, "ext-predictability", smallCfg)
}
func BenchmarkExtILP(b *testing.B)        { runExperiment(b, "ext-ilp", smallCfg) }
func BenchmarkAblationHash(b *testing.B)  { runExperiment(b, "ablation-hash", smallCfg) }
func BenchmarkAblationOrder(b *testing.B) { runExperiment(b, "ablation-order", smallCfg) }
func BenchmarkAblationMeta(b *testing.B)  { runExperiment(b, "ablation-meta", smallCfg) }
func BenchmarkAblationIndex(b *testing.B) { runExperiment(b, "ablation-index", smallCfg) }

// --- microbenchmarks: predictor update throughput ---
//
// These drive predictors through the experiment-shaped loop
// (trace-replay with the workload package). The per-operation
// baselines for the serving hot path — one Predict+Update round trip
// in isolation — live next to the predictors as
// internal/core.Benchmark*_PredictUpdate; compare against those when
// chasing internal/serve throughput regressions.

// benchSink keeps the Predict result observable so the compiler
// cannot treat the call as dead code and elide it.
var benchSink uint64

func benchPredictor(b *testing.B, p core.Predictor) {
	b.Helper()
	body := workload.LoopBody(0x1000, 2, 6, 4, 2)
	events := trace.Collect(workload.Interleave(body, 4096), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := events[i%len(events)]
		if p.Predict(e.PC) == e.Value {
			benchSink++
		}
		p.Update(e.PC, e.Value)
	}
}

func BenchmarkPredictLastValue(b *testing.B) { benchPredictor(b, core.NewLastValue(14)) }
func BenchmarkPredictStride(b *testing.B)    { benchPredictor(b, core.NewStride(14)) }
func BenchmarkPredictTwoDelta(b *testing.B)  { benchPredictor(b, core.NewTwoDelta(14)) }
func BenchmarkPredictFCM(b *testing.B)       { benchPredictor(b, core.NewFCM(14, 12)) }
func BenchmarkPredictDFCM(b *testing.B)      { benchPredictor(b, core.NewDFCM(14, 12)) }
func BenchmarkPredictTAGE(b *testing.B) {
	benchPredictor(b, core.NewTAGE(14, 12, 32, 4, 8, 4, 64))
}
func BenchmarkPredictDFCMDelayed(b *testing.B) {
	benchPredictor(b, core.NewDelayed(core.NewDFCM(14, 12), 64))
}

// benchRunBatch measures the chunked hot path the engine and the
// serving tier actually run: one core.RunBatch call per chunk,
// dispatched once to the predictor's concrete-type loop. ns/op is per
// event, directly comparable to the BenchmarkPredict* per-event
// numbers above; the gap between the two is the per-event interface
// dispatch the batch path eliminates. Chunks are the whole trace
// unless chunk is smaller.
func benchRunBatch(b *testing.B, p core.Predictor, chunk int) {
	b.Helper()
	body := workload.LoopBody(0x1000, 2, 6, 4, 2)
	events := trace.Collect(workload.Interleave(body, 4096), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		for start := 0; start < len(events) && i < b.N; {
			n := min(chunk, len(events)-start, b.N-i)
			benchSink += core.RunBatch(p, events[start:start+n]).Correct
			start += n
			i += n
		}
	}
}

func BenchmarkRunBatchDFCM(b *testing.B)   { benchRunBatch(b, core.NewDFCM(14, 12), math.MaxInt) }
func BenchmarkRunBatchFCM(b *testing.B)    { benchRunBatch(b, core.NewFCM(14, 12), math.MaxInt) }
func BenchmarkRunBatchStride(b *testing.B) { benchRunBatch(b, core.NewStride(14), math.MaxInt) }
func BenchmarkRunBatchTAGE(b *testing.B) {
	benchRunBatch(b, core.NewTAGE(14, 12, 32, 4, 8, 4, 64), math.MaxInt)
}

// BenchmarkRunBatchDelayed is the Figure 17 kernel: DFCM 2^16/2^12
// behind a 64-event update delay, fed in the sweep engine's
// 4096-event chunks.
func BenchmarkRunBatchDelayed(b *testing.B) {
	benchRunBatch(b, core.NewDelayed(core.NewDFCM(16, 12), 64), 4096)
}

// --- microbenchmarks: snapshot encode/decode ---
//
// The checkpoint cost model for internal/serve: Encode is what a
// shard pays per session per checkpoint sweep (capture + container
// encoding into a reused buffer), Decode is the warm-start cost per
// session file. Both run against a warmed serving-sized DFCM so the
// numbers reflect real table occupancy, and report allocs/op — the
// encode path should stay at a handful of allocations regardless of
// table size.

// warmedDFCMSnapshot trains a serving-sized DFCM and returns its spec,
// the predictor, and its encoded snapshot bytes.
func warmedDFCMSnapshot(b *testing.B) (core.Spec, core.Predictor, []byte) {
	b.Helper()
	spec := core.Spec{Kind: "dfcm", L1: 14, L2: 12}
	p, err := spec.New()
	if err != nil {
		b.Fatal(err)
	}
	body := workload.LoopBody(0x1000, 2, 6, 4, 2)
	core.Run(p, trace.Collect(workload.Interleave(body, 4096), 0))
	snap, err := snapshot.Capture(spec, p, snapshot.Meta{Session: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	return spec, p, buf.Bytes()
}

func BenchmarkSnapshotEncodeDFCM(b *testing.B) {
	spec, p, encoded := warmedDFCMSnapshot(b)
	var buf bytes.Buffer
	buf.Grow(len(encoded))
	b.SetBytes(int64(len(encoded)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		snap, err := snapshot.Capture(spec, p, snapshot.Meta{Session: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := snap.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		benchSink += uint64(buf.Len())
	}
}

func BenchmarkSnapshotDecodeDFCM(b *testing.B) {
	_, _, encoded := warmedDFCMSnapshot(b)
	b.SetBytes(int64(len(encoded)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := snapshot.Decode(bytes.NewReader(encoded))
		if err != nil {
			b.Fatal(err)
		}
		p, err := snap.Restore()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += uint64(p.SizeBits())
	}
}

// --- microbenchmark: simulator throughput ---

func BenchmarkSimulator(b *testing.B) {
	// li never exits, so every run executes the whole budget.
	const budget = 100_000
	if _, err := progs.Program("li"); err != nil { // assemble outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int
	for i := 0; i < b.N; i++ {
		tr, err := progs.TraceFor("li", budget)
		if err != nil {
			b.Fatal(err)
		}
		events += len(tr)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*budget), "ns/instruction")
}

// BenchmarkSimulatorStep single-steps li for 100k instructions per op,
// the path internal/ilp takes for every instruction it models.
func BenchmarkSimulatorStep(b *testing.B) {
	const budget = 100_000
	p, err := progs.Program("li")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := vm.New(p, false)
		for c.Executed < budget {
			if err := c.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*budget), "ns/step")
}

func BenchmarkExtLoads(b *testing.B) { runExperiment(b, "ext-loads", smallCfg) }
