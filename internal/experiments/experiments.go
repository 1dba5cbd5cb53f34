// Package experiments defines one runnable experiment per table and
// figure of the paper's evaluation, plus the ablations DESIGN.md calls
// out. Each experiment regenerates the corresponding artifact as
// plain-text tables: the same rows/series the paper plots, computed
// over this repository's benchmark suite (see DESIGN.md for the
// workload substitution).
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/progs"
	"repro/internal/trace"
)

// Config controls an experiment run.
type Config struct {
	// Budget is the per-benchmark instruction budget (the paper
	// simulates the first 200M instructions; the default here is 1M,
	// which already saturates the qualitative results for the smaller
	// synthetic benchmarks).
	Budget uint64
	// Benchmarks selects the SPECint stand-ins to use; nil means all
	// eight.
	Benchmarks []string
}

// DefaultBudget is the per-benchmark instruction budget used when
// Config.Budget is zero.
const DefaultBudget = 1_000_000

func (c Config) budget() uint64 {
	if c.Budget == 0 {
		return DefaultBudget
	}
	return c.Budget
}

func (c Config) benchmarks() []string {
	if len(c.Benchmarks) == 0 {
		return progs.SPECNames()
	}
	return c.Benchmarks
}

// Result is the output of one experiment.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	// Charts render the same data the way the paper's figures plot
	// it (ASCII, optional log axes).
	Charts []*metrics.Plot
	// Notes record the qualitative checks the paper's text makes
	// about the artifact (e.g. "DFCM >= FCM at every size").
	Notes []string
}

func (r *Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		s += "\n" + t.String()
	}
	for _, c := range r.Charts {
		s += "\n" + c.String()
	}
	for _, n := range r.Notes {
		s += "\nnote: " + n
	}
	if len(r.Notes) > 0 {
		s += "\n"
	}
	return s
}

func (r *Result) addNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Experiment is one reproducible artifact.
type Experiment struct {
	ID       string
	Title    string
	Artifact string // which paper table/figure this regenerates
	Run      func(Config) (*Result, error)
}

var (
	regMu    sync.Mutex
	registry []Experiment
)

func register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	for _, x := range registry {
		if x.ID == e.ID {
			panic("experiments: duplicate id " + e.ID)
		}
	}
	registry = append(registry, e)
}

// All lists every experiment, sorted by ID.
func All() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// traceCache memoizes benchmark traces by (name, budget) with
// per-key singleflight, so that sweeps over dozens of predictor
// configurations regenerate each trace once and concurrent first
// fills for distinct benchmarks generate in parallel.
var traceCache = engine.NewTraceCache(progs.TraceFor)

// traceFor returns the (cached) trace of one benchmark.
func traceFor(name string, budget uint64) (trace.Trace, error) {
	return traceCache.Get(name, budget)
}

// ResetCache drops all cached traces (used by benchmarks that vary
// the budget).
func ResetCache() {
	traceCache.Reset()
}

// newSweep returns an engine sweep over cfg's benchmark set and
// budget, backed by the shared trace cache. Experiments register all
// their predictor configurations (and scans) first, call Run once,
// and then read results — so every configuration is fed from a single
// replay of each benchmark's trace.
func newSweep(cfg Config) *engine.Sweep {
	return engine.NewSweep(engine.Options{}, traceCache, cfg.benchmarks(), cfg.budget())
}

// sweep runs one predictor configuration over every configured
// benchmark and returns the per-benchmark results in benchmark order.
// Single-configuration convenience over newSweep; multi-configuration
// experiments batch their configs into one engine sweep instead.
func sweep(cfg Config, mk func() core.Predictor) ([]metrics.BenchResult, error) {
	s := newSweep(cfg)
	j := s.Add(mk)
	if err := s.Run(); err != nil {
		return nil, err
	}
	return j.PerBench(), nil
}

// weighted runs a sweep and returns only the weighted-mean accuracy.
func weighted(cfg Config, mk func() core.Predictor) (float64, error) {
	per, err := sweep(cfg, mk)
	if err != nil {
		return 0, err
	}
	return metrics.WeightedMean(per), nil
}

// l2Sweep is the standard level-2 size axis of the paper's figures.
var l2Sweep = []uint{8, 10, 12, 14, 16, 18, 20}

// lvpStrideSweep is the table-size axis for the single-level
// predictors in Figure 3.
var lvpStrideSweep = []uint{6, 8, 10, 12, 14, 16}
