package experiments

import (
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/progs"
	"repro/internal/trace"
)

// loadPCs returns the set of text addresses holding load instructions
// in a benchmark, classified statically from the encoded words.
func loadPCs(bench string) (map[uint32]bool, error) {
	p, err := progs.Program(bench)
	if err != nil {
		return nil, err
	}
	set := make(map[uint32]bool)
	for i, w := range p.Text {
		if isa.DecodeDeps(w).Load {
			set[uint32(isa.TextBase+4*i)] = true
		}
	}
	return set, nil
}

// runExtLoads evaluates selective value prediction — predicting only
// load instructions, the related-work efficiency approach of
// Lipasti's LVP and Burtscher & Zorn ([2], [11] in the paper) — and
// contrasts it with predicting every register-producing instruction.
// The paper calls this approach "complementary to ours"; this
// experiment shows what each side of that trade gives up: loads are a
// minority of predictable instructions, and their predictability is
// not systematically higher on these workloads.
func runExtLoads(cfg Config) (*Result, error) {
	res := &Result{ID: "ext-loads",
		Title: "selective prediction: loads only vs all register-producing instructions (DFCM 2^16/2^12)"}
	t := &metrics.Table{Headers: []string{
		"benchmark", "load frac", "acc (loads)", "acc (non-loads)", "acc (all)"}}
	var totLoads, totAll core.Result
	type cell struct{ loadRes, otherRes core.Result }
	cells := make([]cell, len(cfg.benchmarks()))
	s := newSweep(cfg)
	s.AddScan(func(i int, bench string, tr trace.Trace) error {
		loads, err := loadPCs(bench)
		if err != nil {
			return err
		}
		// One predictor sees the whole stream (tables shared, as in
		// hardware); outcomes are attributed per class.
		hits := make([]uint64, core.HitWords(len(tr)))
		all := core.Hits(core.NewDFCM(16, 12), tr, hits)
		var loadRes core.Result
		for j, e := range tr {
			if loads[e.PC] {
				loadRes.Predictions++
				if core.Hit(hits, j) {
					loadRes.Correct++
				}
			}
		}
		otherRes := core.Result{Predictions: all.Predictions - loadRes.Predictions, Correct: all.Correct - loadRes.Correct}
		cells[i] = cell{loadRes: loadRes, otherRes: otherRes}
		return nil
	})
	if err := s.Run(); err != nil {
		return nil, err
	}
	for i, bench := range cfg.benchmarks() {
		loadRes, otherRes := cells[i].loadRes, cells[i].otherRes
		var all core.Result
		all.Add(loadRes)
		all.Add(otherRes)
		totLoads.Add(loadRes)
		totAll.Add(all)
		t.AddRow(bench,
			metrics.F(float64(loadRes.Predictions)/float64(all.Predictions)),
			metrics.F(loadRes.Accuracy()), metrics.F(otherRes.Accuracy()),
			metrics.F(all.Accuracy()))
	}
	res.Tables = append(res.Tables, t)
	loadShare := float64(totLoads.Predictions) / float64(totAll.Predictions)
	res.addNote("loads are %.0f%% of predictable instructions; restricting prediction to them forfeits the other %.0f%% (the paper: selective prediction is complementary — it does not fix the FCM's stride inefficiency)",
		100*loadShare, 100*(1-loadShare))
	return res, nil
}

func init() {
	register(Experiment{
		ID:       "ext-loads",
		Title:    "loads-only selective prediction",
		Artifact: "section 5 (selective prediction), extension",
		Run:      runExtLoads,
	})
}
