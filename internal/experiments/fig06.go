package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// fig69Benches are the two benchmarks the paper plots in Figures 6
// and 9.
var fig69Benches = []string{"norm", "li"}

// fig69Budget is the per-benchmark budget of the Figure 6/9
// instrumentation: norm runs to completion, as in the paper.
func fig69Budget(cfg Config, bench string) uint64 {
	if bench == "norm" {
		return 0
	}
	return cfg.budget()
}

// strideOracleHits returns a benchmark's trace plus the 2^16-entry
// stride-oracle hit mask over it. The mask is a pure function of the
// trace, so it is memoized next to the trace itself
// (TraceCache.Derived) and shared by Figures 6 and 9 across runs.
func strideOracleHits(cfg Config, bench string) (trace.Trace, []uint64, error) {
	budget := fig69Budget(cfg, bench)
	tr, err := traceFor(bench, budget)
	if err != nil {
		return nil, nil, err
	}
	v, err := traceCache.Derived(bench, budget, "stride-hits-2^16",
		func(tr trace.Trace) (any, error) {
			return metrics.StrideHits(16, tr), nil
		})
	if err != nil {
		return nil, nil, err
	}
	return tr, v.([]uint64), nil
}

// strideHistsFor computes the FCM and the DFCM histogram of one
// benchmark from a single trace pass with a shared oracle mask;
// bit-identical to two strideHistFor runs.
func strideHistsFor(cfg Config, bench string) (fcm, dfcm metrics.Histogram, err error) {
	tr, hits, err := strideOracleHits(cfg, bench)
	if err != nil {
		return nil, nil, err
	}
	hs := metrics.StrideHistsFromHits(hits, tr, core.NewFCM(16, 12), core.NewDFCM(16, 12))
	return hs[0], hs[1], nil
}

func histTable(title string, hists map[string]metrics.Histogram, order []string) *metrics.Table {
	t := &metrics.Table{Title: title,
		Headers: append([]string{"l2-entry rank"}, order...)}
	// Logarithmic ranks, matching the paper's log-scale reading.
	ranks := []int{0, 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023, 2047, 4095}
	for _, r := range ranks {
		row := []string{fmt.Sprint(r)}
		for _, name := range order {
			g := hists[name]
			if r < len(g) {
				row = append(row, fmt.Sprint(g[r]))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// histRanks and histLog downsample a sorted histogram for plotting
// (every 32nd rank) with a log-transformed count, matching the
// paper's log-scale y axis.
func histRanks(g metrics.Histogram) []float64 {
	var out []float64
	for i := 0; i < len(g); i += 32 {
		out = append(out, float64(i))
	}
	return out
}

func histLog(g metrics.Histogram) []float64 {
	var out []float64
	for i := 0; i < len(g); i += 32 {
		out = append(out, math.Log10(1+float64(g[i])))
	}
	return out
}

func summarizeHist(res *Result, label string, g metrics.Histogram) {
	res.addNote("%s: %d entries accessed >100 times, %d entries >1000 times, %d entries nonzero, %d stride accesses total",
		label, g.EntriesOver(100), g.EntriesOver(1000), g.EntriesOver(0), g.Total())
}

func runFig6(cfg Config) (*Result, error) {
	res := &Result{ID: "fig6", Title: "stride accesses per (sorted) FCM level-2 entry: norm and li"}
	hists := make([]metrics.Histogram, len(fig69Benches))
	s := newSweep(cfg)
	for i, bench := range fig69Benches {
		i, bench := i, bench
		s.AddTask(func() error {
			tr, hits, err := strideOracleHits(cfg, bench)
			if err != nil {
				return err
			}
			hists[i] = metrics.StrideHistsFromHits(hits, tr, core.NewFCM(16, 12))[0]
			return nil
		})
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	for i, bench := range fig69Benches {
		g := hists[i]
		res.Tables = append(res.Tables,
			histTable(fmt.Sprintf("FCM, %s (sorted descending)", bench),
				map[string]metrics.Histogram{"FCM": g}, []string{"FCM"}))
		summarizeHist(res, bench+" FCM", g)
	}
	return res, nil
}

func runFig9(cfg Config) (*Result, error) {
	res := &Result{ID: "fig9", Title: "stride accesses per (sorted) level-2 entry: FCM vs DFCM"}
	type histPair struct{ f, d metrics.Histogram }
	hists := make([]histPair, len(fig69Benches))
	s := newSweep(cfg)
	for i, bench := range fig69Benches {
		i, bench := i, bench
		s.AddTask(func() error {
			fg, dg, err := strideHistsFor(cfg, bench)
			if err != nil {
				return err
			}
			hists[i] = histPair{f: fg, d: dg}
			return nil
		})
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	for i, bench := range fig69Benches {
		fg, dg := hists[i].f, hists[i].d
		res.Tables = append(res.Tables,
			histTable(fmt.Sprintf("%s (sorted descending)", bench),
				map[string]metrics.Histogram{"FCM": fg, "DFCM": dg}, []string{"FCM", "DFCM"}))
		chart := &metrics.Plot{
			Title:  fmt.Sprintf("Figure 9 (%s): stride accesses per sorted level-2 entry", bench),
			XLabel: "l2-entry rank", YLabel: "log10(1 + accesses)",
		}
		chart.AddSeries("FCM", histRanks(fg), histLog(fg))
		chart.AddSeries("DFCM", histRanks(dg), histLog(dg))
		res.Charts = append(res.Charts, chart)
		summarizeHist(res, bench+" FCM", fg)
		summarizeHist(res, bench+" DFCM", dg)
		f100, d100 := fg.EntriesOver(100), dg.EntriesOver(100)
		if d100 < f100 {
			res.addNote("%s: DFCM concentrates stride traffic on %d entries (>100 accesses) vs FCM's %d — the paper's key observation",
				bench, d100, f100)
		} else {
			res.addNote("WARNING %s: DFCM did not reduce stride-entry spread (%d vs %d)", bench, d100, f100)
		}
	}
	return res, nil
}

func init() {
	register(Experiment{
		ID:       "fig6",
		Title:    "how stride patterns crowd the FCM level-2 table",
		Artifact: "Figure 6",
		Run:      runFig6,
	})
	register(Experiment{
		ID:       "fig9",
		Title:    "stride occupancy of the level-2 table, FCM vs DFCM",
		Artifact: "Figure 9",
		Run:      runFig9,
	})
}
