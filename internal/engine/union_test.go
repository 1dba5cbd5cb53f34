package engine

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestSweepUnionDropsMasks: union components run benchmark-major, and
// a benchmark's masks are dropped once its union rows are combined, so
// a single worker never holds masks of two benchmarks and none is left
// after Run. The stride job is a component of both unions.
func TestSweepUnionDropsMasks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benches := []string{"a", "b", "c"}
	cache := NewTraceCache(func(string, uint64) (trace.Trace, error) { return synthTrace(500), nil })
	s := NewSweep(Options{}, cache, benches, 0)
	var jobs []*Job
	// mk runs on the one worker at the start of each unit, so it may
	// read the masks without synchronization.
	held := func(mk func() core.Predictor) func() core.Predictor {
		return func() core.Predictor {
			n := 0
			for bi := range benches {
				for _, j := range jobs {
					if j.hits != nil && j.hits[bi] != nil {
						n++
						break
					}
				}
			}
			if n > 1 {
				t.Errorf("masks of %d benchmarks held at once", n)
			}
			return mk()
		}
	}
	st := s.Add(held(func() core.Predictor { return core.NewStride(8) }))
	f := s.Add(held(func() core.Predictor { return core.NewFCM(8, 8) }))
	d := s.Add(held(func() core.Predictor { return core.NewDFCM(8, 8) }))
	jobs = []*Job{st, f, d}
	sf, sd := s.Union(st, f), s.Union(st, d)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		for bi, h := range j.hits {
			if h != nil {
				t.Errorf("%s: mask still held after Run", benches[bi])
			}
		}
	}
	for bi, bench := range benches {
		for _, u := range []*Job{sf, sd} {
			if got := u.PerBench()[bi]; got.Benchmark != bench || got.Result.Predictions != 500 {
				t.Errorf("union row %d = %+v, want %s over 500 events", bi, got, bench)
			}
		}
	}
}
