package experiments

import (
	"fmt"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/metrics"
)

// aliasRun classifies one benchmark's trace with the 2^12 x 2^12
// configuration of the paper's section 4.2.
func aliasRun(cfg Config, bench string, differential bool) (*alias.Analyzer, error) {
	tr, err := traceFor(bench, cfg.budget())
	if err != nil {
		return nil, err
	}
	an := alias.New(12, 12, differential)
	an.Run(tr)
	return an, nil
}

// aliasRuns classifies every benchmark's trace, one sweep task per
// benchmark, and returns the per-benchmark category counts in
// cfg.benchmarks() order.
func aliasRuns(cfg Config, differential bool) ([][alias.NumKinds]core.Result, error) {
	benches := cfg.benchmarks()
	counts := make([][alias.NumKinds]core.Result, len(benches))
	s := newSweep(cfg)
	for i, bench := range benches {
		i, bench := i, bench
		s.AddTask(func() error {
			an, err := aliasRun(cfg, bench, differential)
			if err != nil {
				return err
			}
			counts[i] = an.Counts()
			return nil
		})
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	return counts, nil
}

// aliasTotals sums per-category results over all benchmarks.
func aliasTotals(cfg Config, differential bool) ([alias.NumKinds]core.Result, error) {
	var totals [alias.NumKinds]core.Result
	counts, err := aliasRuns(cfg, differential)
	if err != nil {
		return totals, err
	}
	for _, c := range counts {
		for k := range totals {
			totals[k].Add(c[k])
		}
	}
	return totals, nil
}

func runFig12(cfg Config) (*Result, error) {
	res := &Result{ID: "fig12", Title: "prediction accuracy per aliasing type (FCM, 2^12/2^12)"}
	totals, err := aliasTotals(cfg, false)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{Headers: []string{"aliasing type", "fraction of predictions", "accuracy"}}
	var all core.Result
	for _, c := range totals {
		all.Add(c)
	}
	for _, k := range alias.Kinds() {
		c := totals[k]
		t.AddRow(k.String(),
			metrics.F(float64(c.Predictions)/float64(all.Predictions)),
			metrics.F(c.Accuracy()))
	}
	res.Tables = append(res.Tables, t)

	badMax := maxAcc(totals[alias.L1], totals[alias.Hash])
	goodMin := minAcc(totals[alias.None], totals[alias.L2PC])
	if badMax < goodMin {
		res.addNote("l1/hash accuracies (<= %.3f) are well below none/l2_pc (>= %.3f), as in the paper",
			badMax, goodMin)
	} else {
		res.addNote("WARNING: aliasing-type accuracy ordering deviates from the paper (l1/hash max %.3f vs none/l2_pc min %.3f)",
			badMax, goodMin)
	}
	res.addNote("l2_priv accuracy %.3f (paper: above 50%%, hurt only by longer learning time)",
		totals[alias.L2Priv].Accuracy())
	return res, nil
}

func maxAcc(rs ...core.Result) float64 {
	m := 0.0
	for _, r := range rs {
		if a := r.Accuracy(); a > m {
			m = a
		}
	}
	return m
}

func minAcc(rs ...core.Result) float64 {
	m := 1.0
	for _, r := range rs {
		if a := r.Accuracy(); a < m {
			m = a
		}
	}
	return m
}

// aliasMixTable renders per-benchmark category fractions. If wrongOnly
// is set, fractions are mispredictions per category over all
// predictions (Figure 14); otherwise all predictions (Figure 13).
func aliasMixTable(cfg Config, differential, wrongOnly bool) (*metrics.Table, [alias.NumKinds]core.Result, error) {
	var totals [alias.NumKinds]core.Result
	label := "FCM"
	if differential {
		label = "DFCM"
	}
	t := &metrics.Table{Title: label,
		Headers: []string{"benchmark", "l1", "hash", "l2_priv", "l2_pc", "none", "total"}}
	row := func(name string, counts [alias.NumKinds]core.Result) {
		var all core.Result
		for _, c := range counts {
			all.Add(c)
		}
		cells := []string{name}
		var totalFrac float64
		for _, k := range alias.Kinds() {
			c := counts[k]
			num := c.Predictions
			if wrongOnly {
				num = c.Predictions - c.Correct
			}
			f := float64(num) / float64(all.Predictions)
			totalFrac += f
			cells = append(cells, metrics.F(f))
		}
		cells = append(cells, metrics.F(totalFrac))
		t.AddRow(cells...)
	}
	counts, err := aliasRuns(cfg, differential)
	if err != nil {
		return nil, totals, err
	}
	for i, bench := range cfg.benchmarks() {
		c := counts[i]
		row(bench, c)
		for k := range totals {
			totals[k].Add(c[k])
		}
	}
	row("avg", totals)
	return t, totals, nil
}

func runFig13(cfg Config) (*Result, error) {
	res := &Result{ID: "fig13", Title: "aliasing type mix over all predictions (2^12/2^12)"}
	ft, ftot, err := aliasMixTable(cfg, false, false)
	if err != nil {
		return nil, err
	}
	dt, dtot, err := aliasMixTable(cfg, true, false)
	if err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, ft, dt)

	var fAll, dAll core.Result
	for k := range ftot {
		fAll.Add(ftot[k])
		dAll.Add(dtot[k])
	}
	fracOf := func(c core.Result, all core.Result) float64 {
		return float64(c.Predictions) / float64(all.Predictions)
	}
	res.addNote("l2_pc fraction: FCM %.3f -> DFCM %.3f (paper: arises almost twice as often under DFCM)",
		fracOf(ftot[alias.L2PC], fAll), fracOf(dtot[alias.L2PC], dAll))
	res.addNote("hash fraction: FCM %.3f -> DFCM %.3f (paper: decreases)",
		fracOf(ftot[alias.Hash], fAll), fracOf(dtot[alias.Hash], dAll))
	res.addNote("none fraction: FCM %.3f -> DFCM %.3f (paper: DFCM has even fewer no-aliasing cases)",
		fracOf(ftot[alias.None], fAll), fracOf(dtot[alias.None], dAll))
	return res, nil
}

func runFig14(cfg Config) (*Result, error) {
	res := &Result{ID: "fig14", Title: "aliasing type mix among mispredictions (2^12/2^12)"}
	ft, ftot, err := aliasMixTable(cfg, false, true)
	if err != nil {
		return nil, err
	}
	dt, dtot, err := aliasMixTable(cfg, true, true)
	if err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, ft, dt)

	var fAll, dAll core.Result
	var fWrong, dWrong, fHashWrong, dHashWrong uint64
	for k := range ftot {
		fAll.Add(ftot[k])
		dAll.Add(dtot[k])
		fWrong += ftot[k].Predictions - ftot[k].Correct
		dWrong += dtot[k].Predictions - dtot[k].Correct
	}
	fHashWrong = ftot[alias.Hash].Predictions - ftot[alias.Hash].Correct
	dHashWrong = dtot[alias.Hash].Predictions - dtot[alias.Hash].Correct
	res.addNote("misprediction rate: FCM %.3f -> DFCM %.3f",
		float64(fWrong)/float64(fAll.Predictions), float64(dWrong)/float64(dAll.Predictions))
	res.addNote("hash-aliased mispredictions (of all predictions): FCM %.3f -> DFCM %.3f (paper: 34%% -> 25%%)",
		float64(fHashWrong)/float64(fAll.Predictions), float64(dHashWrong)/float64(dAll.Predictions))
	if dWrong > 0 {
		res.addNote(fmt.Sprintf("hash aliasing causes %.0f%%%% of remaining DFCM mispredictions (paper: 59%%%%)",
			100*float64(dHashWrong)/float64(dWrong)))
	}
	return res, nil
}

func init() {
	register(Experiment{
		ID:       "fig12",
		Title:    "accuracy per aliasing category",
		Artifact: "Figure 12",
		Run:      runFig12,
	})
	register(Experiment{
		ID:       "fig13",
		Title:    "aliasing mix over all predictions, FCM vs DFCM",
		Artifact: "Figure 13",
		Run:      runFig13,
	})
	register(Experiment{
		ID:       "fig14",
		Title:    "aliasing mix among mispredictions, FCM vs DFCM",
		Artifact: "Figure 14",
		Run:      runFig14,
	})
}
