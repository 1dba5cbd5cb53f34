package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// testCfg keeps test runtime modest while staying statistically
// meaningful.
var testCfg = Config{Budget: 200_000}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-hash", "ablation-index", "ablation-meta", "ablation-order",
		"ext-confidence", "ext-ilp", "ext-loads", "ext-predictability", "ext-relatedwork", "ext-tage",
		"fig10a", "fig10b", "fig11a", "fig11b", "fig12", "fig13",
		"fig14", "fig16", "fig17", "fig3", "fig4", "fig6", "fig8",
		"fig9", "sec44", "table1",
	}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Artifact == "" || e.Run == nil {
			t.Errorf("%s: incomplete definition", e.ID)
		}
	}
	if _, err := Get("fig3"); err != nil {
		t.Error(err)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown id did not error")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.budget() != DefaultBudget {
		t.Errorf("default budget = %d", c.budget())
	}
	if len(c.benchmarks()) != 8 {
		t.Errorf("default benchmarks = %v", c.benchmarks())
	}
	c = Config{Budget: 42, Benchmarks: []string{"li"}}
	if c.budget() != 42 || len(c.benchmarks()) != 1 {
		t.Error("explicit config ignored")
	}
}

// accFromTable extracts a float cell.
func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not a float: %v", s, err)
	}
	return v
}

func TestFig10aDFCMBeatsFCMEverywhere(t *testing.T) {
	res, err := runFig10a(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Tables[0]
	if len(tbl.Rows) != len(l2Sweep) {
		t.Fatalf("got %d rows", len(tbl.Rows))
	}
	var gapSmall, gapLarge float64
	for i, row := range tbl.Rows {
		f, d := cellFloat(t, row[1]), cellFloat(t, row[2])
		if d < f {
			t.Errorf("l2=2^%s: DFCM %.3f < FCM %.3f", row[0], d, f)
		}
		if i == 0 {
			gapSmall = d - f
		}
		if i == len(tbl.Rows)-1 {
			gapLarge = d - f
		}
	}
	if gapSmall <= gapLarge {
		t.Errorf("gap should shrink with L2 size: small %.3f, large %.3f", gapSmall, gapLarge)
	}
}

func TestFig10bEveryBenchmarkImproves(t *testing.T) {
	res, err := runFig10b(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Tables[0].Rows {
		f, d := cellFloat(t, row[1]), cellFloat(t, row[2])
		if d < f-0.005 {
			t.Errorf("%s: DFCM %.3f below FCM %.3f", row[0], d, f)
		}
	}
}

func TestFig3FCMBestAtScale(t *testing.T) {
	res, err := runFig3(Config{Budget: 150_000, Benchmarks: []string{"li", "m88ksim", "perl"}})
	if err != nil {
		t.Fatal(err)
	}
	best := func(tbl int) float64 {
		b := 0.0
		for _, row := range res.Tables[tbl].Rows {
			if v := cellFloat(t, row[2]); v > b {
				b = v
			}
		}
		return b
	}
	lvp, stride, fcm := best(0), best(1), best(2)
	if fcm <= lvp || fcm <= stride {
		t.Errorf("FCM best %.3f should beat LVP %.3f and stride %.3f at large sizes", fcm, lvp, stride)
	}
}

func TestFig4And8WorkedExamples(t *testing.T) {
	r4, err := runFig4(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := runFig8(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	// FCM should use >= 7 entries, DFCM fewer.
	fcmEntries := cellFloat(t, r4.Tables[0].Rows[0][0])
	dfcmEntries := cellFloat(t, r8.Tables[0].Rows[0][0])
	if fcmEntries < 7 {
		t.Errorf("FCM worked example uses %v entries, want >= 7", fcmEntries)
	}
	if dfcmEntries >= fcmEntries {
		t.Errorf("DFCM (%v entries) should use fewer than FCM (%v)", dfcmEntries, fcmEntries)
	}
}

// strideHistFor runs the Figure 6/9 instrumentation over one
// benchmark: a 2^16-entry level-1, 4096-entry level-2 predictor with
// a 64K-entry stride-predictor oracle, counting stride-pattern
// accesses per level-2 entry. It replays one predictor through
// metrics.StrideHist; the experiments use strideHistsFor, which builds
// both histograms from a single pass.
func strideHistFor(cfg Config, bench string, differential bool) (metrics.Histogram, error) {
	tr, err := traceFor(bench, fig69Budget(cfg, bench))
	if err != nil {
		return nil, err
	}
	var p core.Predictor
	if differential {
		p = core.NewDFCM(16, 12)
	} else {
		p = core.NewFCM(16, 12)
	}
	h := metrics.NewStrideHist(4096, 16)
	return h.Run(p, tr), nil
}

func TestFig9DFCMConcentratesStrides(t *testing.T) {
	cfg := Config{Budget: 200_000}
	for _, bench := range []string{"norm", "li"} {
		fg, err := strideHistFor(cfg, bench, false)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := strideHistFor(cfg, bench, true)
		if err != nil {
			t.Fatal(err)
		}
		if f, d := fg.EntriesOver(100), dg.EntriesOver(100); d >= f {
			t.Errorf("%s: DFCM spreads strides over %d entries (>100 accesses), FCM %d — want fewer",
				bench, d, f)
		}
	}
}

func TestFig12AliasAccuracyOrdering(t *testing.T) {
	res, err := runFig12(Config{Budget: 200_000, Benchmarks: []string{"li", "m88ksim", "go", "cc1"}})
	if err != nil {
		t.Fatal(err)
	}
	acc := map[string]float64{}
	frac := map[string]float64{}
	for _, row := range res.Tables[0].Rows {
		frac[row[0]] = cellFloat(t, row[1])
		acc[row[0]] = cellFloat(t, row[2])
	}
	if acc["hash"] > acc["none"] {
		t.Errorf("hash accuracy %.3f above none %.3f", acc["hash"], acc["none"])
	}
	if acc["l2_pc"] < 0.5 && frac["l2_pc"] > 0.02 {
		t.Errorf("l2_pc accuracy %.3f; paper finds it benign", acc["l2_pc"])
	}
	total := 0.0
	for _, f := range frac {
		total += f
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("fractions sum to %.3f", total)
	}
}

func TestFig13L2PCGrowsUnderDFCM(t *testing.T) {
	res, err := runFig13(Config{Budget: 200_000, Benchmarks: []string{"li", "norm", "ijpeg"}})
	if err != nil {
		t.Fatal(err)
	}
	// avg row is last; l2_pc is column 4.
	fcmAvg := res.Tables[0].Rows[len(res.Tables[0].Rows)-1]
	dfcmAvg := res.Tables[1].Rows[len(res.Tables[1].Rows)-1]
	if f, d := cellFloat(t, fcmAvg[4]), cellFloat(t, dfcmAvg[4]); d <= f {
		t.Errorf("l2_pc fraction should grow under DFCM: %.3f -> %.3f", f, d)
	}
}

func TestFig14FewerMispredictionsUnderDFCM(t *testing.T) {
	res, err := runFig14(Config{Budget: 200_000, Benchmarks: []string{"li", "ijpeg", "go"}})
	if err != nil {
		t.Fatal(err)
	}
	// Total misprediction fraction is the last column of the avg row.
	fcmAvg := res.Tables[0].Rows[len(res.Tables[0].Rows)-1]
	dfcmAvg := res.Tables[1].Rows[len(res.Tables[1].Rows)-1]
	f := cellFloat(t, fcmAvg[len(fcmAvg)-1])
	d := cellFloat(t, dfcmAvg[len(dfcmAvg)-1])
	if d >= f {
		t.Errorf("misprediction rate should drop under DFCM: %.3f -> %.3f", f, d)
	}
}

func TestFig16DFCMCompetitiveWithPerfectHybrid(t *testing.T) {
	res, err := runFig16(Config{Budget: 200_000, Benchmarks: []string{"li", "ijpeg", "m88ksim", "norm"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Tables[0].Rows {
		d := cellFloat(t, row[2])
		sf := cellFloat(t, row[3])
		sd := cellFloat(t, row[4])
		if d < sf-0.03 {
			t.Errorf("l2=2^%s: DFCM %.3f far below perfect STRIDE+FCM %.3f", row[0], d, sf)
		}
		if sd < d {
			t.Errorf("l2=2^%s: STRIDE+DFCM %.3f below DFCM %.3f (impossible for a perfect hybrid)",
				row[0], sd, d)
		}
		if sd > d+0.1 {
			t.Errorf("l2=2^%s: STRIDE+DFCM adds %.3f; paper finds at most ~.04", row[0], sd-d)
		}
	}
}

func TestFig17DelayDegrades(t *testing.T) {
	res, err := runFig17(Config{Budget: 200_000, Benchmarks: []string{"li", "go", "cc1"}})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	first := cellFloat(t, rows[0][2])
	last := cellFloat(t, rows[len(rows)-1][2])
	if last >= first {
		t.Errorf("DFCM accuracy should degrade with delay: %.3f -> %.3f", first, last)
	}
	// Weak monotonicity with tolerance.
	prevF, prevD := 2.0, 2.0
	for _, row := range rows {
		f, d := cellFloat(t, row[1]), cellFloat(t, row[2])
		if f > prevF+0.02 || d > prevD+0.02 {
			t.Errorf("non-monotone degradation at delay %s", row[0])
		}
		prevF, prevD = f, d
	}
}

func TestSec44WidthTradeoff(t *testing.T) {
	res, err := runSec44(Config{Budget: 200_000, Benchmarks: []string{"li", "norm", "vortex"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Tables[0].Rows {
		w32 := cellFloat(t, row[1])
		w16 := cellFloat(t, row[2])
		w8 := cellFloat(t, row[3])
		if w16 > w32+0.005 || w8 > w16+0.005 {
			t.Errorf("l2=2^%s: accuracy should not grow as width shrinks (%.3f/%.3f/%.3f)",
				row[0], w32, w16, w8)
		}
	}
}

func TestTable1ReportsCounts(t *testing.T) {
	res, err := runTable1(Config{Budget: 100_000, Benchmarks: []string{"li", "compress"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Tables[0].Rows {
		instr := cellFloat(t, row[3])
		preds := cellFloat(t, row[4])
		if instr < 100_000 || preds <= 0 || preds >= instr {
			t.Errorf("%s: instructions %v, predictions %v implausible", row[0], instr, preds)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	cfg := Config{Budget: 120_000, Benchmarks: []string{"li", "m88ksim"}}
	for _, id := range []string{"ablation-hash", "ablation-order", "ablation-meta"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) == 0 || len(res.Tables[0].Rows) == 0 {
			t.Errorf("%s produced no data", id)
		}
	}
}

func TestResultRendering(t *testing.T) {
	res, err := runFig4(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "fig4") || !strings.Contains(s, "note:") {
		t.Errorf("render:\n%s", s)
	}
}

func TestTraceCacheCoherent(t *testing.T) {
	a, err := traceFor("li", 50_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traceFor("li", 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("cache returned different backing arrays for identical key")
	}
	ResetCache()
	c, err := traceFor("li", 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != len(a) {
		t.Error("regenerated trace differs in length")
	}
}

func TestWeightedHelper(t *testing.T) {
	// Run norm to completion: its stride-heavy normalization loops
	// come after the (noisy) PRNG fill phase.
	acc, err := weighted(Config{Budget: 2_000_000, Benchmarks: []string{"norm"}},
		func() core.Predictor { return core.NewStride(12) })
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.4 {
		t.Errorf("stride accuracy on norm = %.3f, expected high (stride-heavy program)", acc)
	}
}
