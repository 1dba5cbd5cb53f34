package repro

// End-to-end integration tests spanning every subsystem: benchmark
// assembly → simulation → trace serialization → prediction →
// measurement. These are the "does the whole machine reproduce the
// paper" checks; per-package tests cover the parts.

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/progs"
	"repro/internal/trace"
)

// TestEndToEndPipeline pushes one benchmark through the entire stack.
func TestEndToEndPipeline(t *testing.T) {
	// 1. Assemble + simulate.
	tr, err := progs.TraceFor("li", 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) < 50_000 {
		t.Fatalf("trace too short: %d", len(tr))
	}
	// 2. Serialize (compressed) and reload.
	var buf bytes.Buffer
	if err := trace.WriteCompressed(&buf, tr); err != nil {
		t.Fatal(err)
	}
	reloaded, err := trace.ReadAuto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded) != len(tr) {
		t.Fatal("serialization lost events")
	}
	// 3. Predict with the full ladder; the paper's ordering must hold
	// on this context-heavy benchmark.
	acc := func(p core.Predictor) float64 {
		return core.Run(p, reloaded).Accuracy()
	}
	lvp := acc(core.NewLastValue(12))
	stride := acc(core.NewStride(12))
	fcm := acc(core.NewFCM(14, 14))
	dfcm := acc(core.NewDFCM(14, 14))
	if !(lvp < stride && stride < fcm && fcm < dfcm) {
		t.Errorf("predictor ladder violated on li: lvp %.3f, stride %.3f, fcm %.3f, dfcm %.3f",
			lvp, stride, fcm, dfcm)
	}
	// 4. Measure trace statistics for consistency with the ladder.
	st := trace.Summarize(reloaded, 0)
	if st.ConstantFrac > st.StrideFrac {
		t.Errorf("li should be stride-richer than constant-rich (%.3f vs %.3f)",
			st.ConstantFrac, st.StrideFrac)
	}
}

// TestCentralClaimAcrossSuite is the repository's headline assertion:
// on every benchmark, at the paper's working point, the DFCM beats
// the FCM.
func TestCentralClaimAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	for _, bench := range progs.SPECNames() {
		tr, err := progs.TraceFor(bench, 250_000)
		if err != nil {
			t.Fatal(err)
		}
		fcm := core.Run(core.NewFCM(16, 12), tr).Accuracy()
		dfcm := core.Run(core.NewDFCM(16, 12), tr).Accuracy()
		if dfcm < fcm {
			t.Errorf("%s: DFCM %.3f below FCM %.3f", bench, dfcm, fcm)
		}
	}
}

// TestExperimentDeterminism locks the full pipeline bit-for-bit: the
// same configuration must produce the identical rendered table on
// every run (the simulator, benchmarks and predictors use no
// wall-clock or OS randomness).
func TestExperimentDeterminism(t *testing.T) {
	cfg := experiments.Config{Budget: 80_000, Benchmarks: []string{"li", "go"}}
	e, err := experiments.Get("fig10a")
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		experiments.ResetCache()
		res, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	first := render()
	for i := 0; i < 2; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i+2, got, first)
		}
	}
}

// TestWeightedMeanMatchesManualAggregation cross-checks the harness's
// summary statistic against a by-hand computation.
func TestWeightedMeanMatchesManualAggregation(t *testing.T) {
	benches := []string{"li", "m88ksim"}
	var manual core.Result
	var per []metrics.BenchResult
	for _, b := range benches {
		tr, err := progs.TraceFor(b, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		r := core.Run(core.NewDFCM(12, 10), tr)
		manual.Add(r)
		per = append(per, metrics.BenchResult{Benchmark: b, Result: r})
	}
	if got, want := metrics.WeightedMean(per), manual.Accuracy(); got != want {
		t.Errorf("WeightedMean %.6f != pooled accuracy %.6f", got, want)
	}
}
