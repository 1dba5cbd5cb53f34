// Package engine executes predictor sweeps — the (configuration ×
// benchmark) grids behind every figure of the paper — over traces
// generated once per benchmark and shared by every configuration.
//
// A sweep is predictor-major. Each (configuration, benchmark) pair is
// one work unit: it takes the benchmark's cached trace, builds a fresh
// predictor and replays the whole trace through it in one
// core.RunBatch call. A worker therefore holds one configuration's
// tables at a time, and they stay cache-resident for the whole trace
// instead of being evicted by the sweep's other configurations. All
// units run on one worker pool sized by GOMAXPROCS, and traces come
// from a TraceCache whose per-key singleflight lets distinct
// benchmarks generate concurrently while duplicate requests coalesce.
// The paper's perfect meta-predictor (Sweep.Union) runs no unit: it
// is scored from its components' per-event hit masks.
// The online autotuner (internal/autotune) feeds live traffic through
// a Stream, which replays each fed slice predictor by predictor in
// the same way.
//
// Results are bit-identical to one sequential core.Run per
// configuration: every unit gets its own predictor instance, it sees
// the benchmark's whole event sequence in order, and all accumulation
// is integer arithmetic into index-addressed slots, so scheduling
// order cannot change any output (DESIGN.md §9). The engine tests
// compare against core.Run, and internal/experiments pins a digest of
// every rendered artifact.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Options is the sweep configuration. It has no fields: a sweep always
// runs one unit per (configuration, benchmark) on a GOMAXPROCS-sized
// pool. The type stays so NewSweep's signature is unchanged for
// existing callers.
type Options struct{}

// Job is one predictor configuration registered with a sweep, or the
// union of such configurations (Sweep.Union). After Sweep.Run returns
// nil, its accessors expose the per-benchmark results.
type Job struct {
	mk  func() core.Predictor
	per []metrics.BenchResult
	// hits is non-nil on a union's components: their units record one
	// hit mask per benchmark in it, through core.Hits, and Run drops
	// a benchmark's masks once its union rows are combined.
	hits [][]uint64
	// of lists a union's component jobs; mk is nil then.
	of []*Job
}

// PerBench returns the job's results in the sweep's benchmark order.
// Valid only after the owning Sweep.Run returned nil.
func (j *Job) PerBench() []metrics.BenchResult { return j.per }

// Weighted returns the prediction-count-weighted mean accuracy over
// the job's benchmarks (the paper's summary statistic).
func (j *Job) Weighted() float64 { return metrics.WeightedMean(j.per) }

// Sweep collects work over a fixed benchmark list, then executes all
// of it in one Run. Three kinds of work are supported: predictor
// configurations (Add) replay each benchmark's cached trace in one
// unit per (configuration, benchmark); per-benchmark trace scans
// (AddScan) and free-form tasks (AddTask) run as their own units on
// the same pool. Unions of configurations (Union) run no unit of
// their own. A Sweep is not safe for concurrent registration; Run
// may be called once.
type Sweep struct {
	cache   *TraceCache
	benches []string
	budget  uint64
	jobs    []*Job
	unions  []*Job
	scans   []func(i int, bench string, tr trace.Trace) error
	tasks   []func() error
}

// NewSweep returns an empty sweep over the given benchmarks at the
// given per-benchmark instruction budget, reading traces through
// cache.
func NewSweep(_ Options, cache *TraceCache, benchmarks []string, budget uint64) *Sweep {
	return &Sweep{cache: cache, benches: benchmarks, budget: budget}
}

// Add registers a predictor configuration. mk is called once per
// benchmark, possibly concurrently, and must return a fresh
// independent predictor each time.
func (s *Sweep) Add(mk func() core.Predictor) *Job {
	j := &Job{mk: mk}
	s.jobs = append(s.jobs, j)
	return j
}

// Union registers the paper's perfect meta-predictor over the given
// configurations (§4.3, Figure 16): an event counts as predicted when
// any of them predicted it, and each trains on every event as it does
// alone. Its hits on a benchmark are therefore the popcount of the OR
// of the components' hit masks, so it replays nothing: the
// components' units record their masks (core.Hits instead of
// core.RunBatch), and Run combines every union's row for a benchmark
// as soon as the benchmark's last component unit finishes. The jobs,
// at least one, must come from Add on this sweep.
func (s *Sweep) Union(jobs ...*Job) *Job {
	for _, j := range jobs {
		j.hits = make([][]uint64, len(s.benches))
	}
	u := &Job{of: jobs}
	s.unions = append(s.unions, u)
	return u
}

// AddScan registers a custom pass over every benchmark's trace. fn is
// called once per benchmark — concurrently across benchmarks — with
// the benchmark's index in the sweep's benchmark list, its name and
// its cached trace. fn must confine its writes to state owned by this
// scan (typically an i-indexed slot) and must not modify the trace.
func (s *Sweep) AddScan(fn func(i int, bench string, tr trace.Trace) error) {
	s.scans = append(s.scans, fn)
}

// AddTask registers a free-form unit of work on the sweep's pool, for
// per-benchmark computations that do not consume the sweep's shared
// traces (VM reruns, ILP measurement, fixed-benchmark scans).
func (s *Sweep) AddTask(fn func() error) {
	s.tasks = append(s.tasks, fn)
}

// Run executes all registered work and blocks until it finishes,
// returning the first error in unit submission order.
//
// A predictor configuration runs as a scan that replays the cached
// trace through a fresh predictor, so every scan and configuration
// gets one unit per benchmark. Units are queued scan-major (benchmark
// inner), so the pool's first units request distinct benchmarks and
// cold trace generation runs in parallel; the later units of a
// benchmark then find its trace cached.
//
// The units of union components follow, queued benchmark-major
// (component inner). A counter per benchmark tracks its component
// units; the one that finishes last combines every union's row for
// that benchmark and drops the benchmark's masks. So a few
// benchmarks' masks are held at a time, not every benchmark's until
// the pool drains.
func (s *Sweep) Run() error {
	var plain, comps []func(i int, bench string, tr trace.Trace) error
	pending := make([]atomic.Int32, len(s.benches))
	for _, j := range s.jobs {
		j.per = make([]metrics.BenchResult, len(s.benches))
		if j.hits == nil {
			plain = append(plain, func(bi int, bench string, tr trace.Trace) error {
				j.per[bi] = metrics.BenchResult{Benchmark: bench, Result: core.RunBatch(j.mk(), tr)}
				return nil
			})
			continue
		}
		for bi := range pending {
			pending[bi].Add(1)
		}
		comps = append(comps, func(bi int, bench string, tr trace.Trace) error {
			j.hits[bi] = make([]uint64, core.HitWords(len(tr)))
			j.per[bi] = metrics.BenchResult{Benchmark: bench, Result: core.Hits(j.mk(), tr, j.hits[bi])}
			if pending[bi].Add(-1) == 0 {
				s.combineUnions(bi)
			}
			return nil
		})
	}
	for _, u := range s.unions {
		u.per = make([]metrics.BenchResult, len(s.benches))
	}
	var units []func() error
	unit := func(scan func(int, string, trace.Trace) error, bi int) {
		bench := s.benches[bi]
		units = append(units, func() error {
			tr, err := s.cache.Get(bench, s.budget)
			if err != nil {
				return err
			}
			return scan(bi, bench, tr)
		})
	}
	for _, scan := range append(plain, s.scans...) {
		for bi := range s.benches {
			unit(scan, bi)
		}
	}
	for bi := range s.benches {
		for _, scan := range comps {
			unit(scan, bi)
		}
	}
	units = append(units, s.tasks...)
	return runPool(units, runtime.GOMAXPROCS(0))
}

// combineUnions scores every union on benchmark bi from its
// components' hit masks, then drops those masks. A component may
// belong to several unions, so the masks go only after all of them.
// Run calls it once per benchmark, after the last component unit.
func (s *Sweep) combineUnions(bi int) {
	for _, u := range s.unions {
		masks := make([][]uint64, len(u.of))
		for k, j := range u.of {
			masks[k] = j.hits[bi]
		}
		u.per[bi] = u.of[0].per[bi]
		u.per[bi].Result.Correct = core.UnionHits(masks...)
	}
	for _, u := range s.unions {
		for _, j := range u.of {
			j.hits[bi] = nil
		}
	}
}

// runPool executes the units on a bounded worker pool and returns the
// first error in unit order. Every unit runs regardless of other
// units' errors: units write only their own slots, so finishing the
// batch keeps the error report deterministic without cancellation
// plumbing.
func runPool(units []func() error, workers int) error {
	if workers > len(units) {
		workers = len(units)
	}
	errs := make([]error, len(units))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = units[i]()
			}
		}()
	}
	for i := range units {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
