package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// synthTrace builds a deterministic event stream mixing stride,
// constant and context-dependent values over a handful of PCs.
func synthTrace(n int) trace.Trace {
	tr := make(trace.Trace, 0, n)
	var x uint32
	for i := 0; i < n; i++ {
		pc := uint32(0x1000 + 4*(i%7))
		switch i % 3 {
		case 0:
			x += 3
		case 1:
			x = uint32(i % 5)
		default:
			x = x*2 + 1
		}
		tr = append(tr, trace.Event{PC: pc, Value: x})
	}
	return tr
}

func synthGen(tr trace.Trace) Generator {
	return func(name string, budget uint64) (trace.Trace, error) {
		return tr, nil
	}
}

// stateConfigs covers the predictor shapes the experiments sweep,
// including a Scorer (perfect hybrid). Each constructor also returns
// the Snapshotters that together hold the predictor's whole state: the
// predictor itself, or the components of the perfect hybrid, which
// keeps no state of its own. A predictor that is neither panics here.
func stateConfigs() []func() (core.Predictor, []core.Snapshotter) {
	self := func(p core.Predictor) (core.Predictor, []core.Snapshotter) {
		return p, []core.Snapshotter{p.(core.Snapshotter)}
	}
	return []func() (core.Predictor, []core.Snapshotter){
		func() (core.Predictor, []core.Snapshotter) { return self(core.NewLastValue(8)) },
		func() (core.Predictor, []core.Snapshotter) { return self(core.NewStride(8)) },
		func() (core.Predictor, []core.Snapshotter) { return self(core.NewFCM(8, 10)) },
		func() (core.Predictor, []core.Snapshotter) { return self(core.NewDFCM(8, 10)) },
		func() (core.Predictor, []core.Snapshotter) {
			return self(core.NewDelayed(core.NewDFCM(8, 10), 16))
		},
		func() (core.Predictor, []core.Snapshotter) {
			s, f := core.NewStride(8), core.NewFCM(8, 10)
			return core.NewPerfectHybrid(s, f), []core.Snapshotter{s, f}
		},
	}
}

// configs is stateConfigs without the state parts.
func configs() []func() core.Predictor {
	var mks []func() core.Predictor
	for _, mk := range stateConfigs() {
		mks = append(mks, func() core.Predictor { p, _ := mk(); return p })
	}
	return mks
}

// TestSweepMatchesPerEventRun: the chunked multi-predictor single-pass
// replay must produce exactly the per-event core.Run results, for
// every config — through a Sweep over two benchmarks, and through a
// Stream at several chunk sizes (including ones that do not divide
// the trace length).
func TestSweepMatchesPerEventRun(t *testing.T) {
	tr := synthTrace(10_000)
	want := make([]core.Result, len(configs()))
	for ji, mk := range configs() {
		want[ji] = core.Run(mk(), trace.NewReader(tr))
	}

	benches := []string{"a", "b"}
	s := NewSweep(Options{}, NewTraceCache(synthGen(tr)), benches, 0)
	var jobs []*Job
	for _, mk := range configs() {
		jobs = append(jobs, s.Add(mk))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for ji, j := range jobs {
		for bi, bench := range benches {
			got := j.PerBench()[bi]
			if got.Benchmark != bench {
				t.Fatalf("job %d bench %d labeled %q", ji, bi, got.Benchmark)
			}
			if got.Result != want[ji] {
				t.Errorf("sweep job %d %s: got %+v want %+v", ji, bench, got.Result, want[ji])
			}
		}
	}

	for _, chunk := range []int{1, 7, 1024, 4096, 1 << 20} {
		var preds []core.Predictor
		for _, mk := range configs() {
			preds = append(preds, mk())
		}
		st := NewStream(preds, chunk)
		st.Feed(tr)
		for ji, got := range st.Finalize() {
			if got != want[ji] {
				t.Errorf("chunk %d job %d: got %+v want %+v", chunk, ji, got, want[ji])
			}
		}
	}
}

// TestTraceCacheCoalescesDuplicates: concurrent Gets for the same key
// share one generator run.
func TestTraceCacheCoalescesDuplicates(t *testing.T) {
	var calls atomic.Int32
	cache := NewTraceCache(func(name string, budget uint64) (trace.Trace, error) {
		calls.Add(1)
		return synthTrace(10), nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cache.Get("same", 42); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("generator ran %d times for one key", n)
	}
	cache.Reset()
	if _, err := cache.Get("same", 42); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("Reset did not drop the entry (calls=%d)", n)
	}
}

// TestTraceCacheDistinctKeysOverlap is the regression test for the
// first-fill serialization bug: the old experiments cache held its
// mutex across the whole generator run, so two "concurrent" misses
// for different benchmarks generated one after the other. Here both
// generator invocations must be in flight at the same time; each
// blocks until the other has started, so a serialized cache would
// deadlock (bounded by the watchdog below) instead of passing.
func TestTraceCacheDistinctKeysOverlap(t *testing.T) {
	started := make(chan string, 2)
	release := make(chan struct{})
	cache := NewTraceCache(func(name string, budget uint64) (trace.Trace, error) {
		started <- name
		<-release
		return synthTrace(1), nil
	})
	done := make(chan error, 2)
	for _, name := range []string{"li", "go"} {
		name := name
		go func() {
			_, err := cache.Get(name, 7)
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("second generator never started: first fill is serialized")
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestWorkerPoolBounded: no more than the pool's worker count of units execute
// at once, and every unit runs.
func TestWorkerPoolBounded(t *testing.T) {
	const workers, n = 2, 16
	var cur, max, ran atomic.Int32
	units := make([]func() error, n)
	for i := range units {
		units[i] = func() error {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			ran.Add(1)
			return nil
		}
	}
	if err := runPool(units, workers); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Errorf("%d of %d units ran", ran.Load(), n)
	}
	if m := max.Load(); m > workers {
		t.Errorf("%d units ran concurrently, pool bound is %d", m, workers)
	}
}

// TestRunReportsFirstErrorInOrder: errors surface deterministically by
// submission order, not completion order.
func TestRunReportsFirstErrorInOrder(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	units := []func() error{
		func() error { time.Sleep(20 * time.Millisecond); return errA },
		func() error { return errB },
	}
	if err := runPool(units, 4); err != errA {
		t.Errorf("got %v, want first-submitted error %v", err, errA)
	}
}

// TestScansAndTasks: scans receive the right (index, bench, trace)
// and tasks run; a scan error propagates out of Run.
func TestScansAndTasks(t *testing.T) {
	tr := synthTrace(100)
	benches := []string{"a", "b", "c"}
	s := NewSweep(Options{}, NewTraceCache(synthGen(tr)), benches, 5)
	seen := make([]string, len(benches))
	s.AddScan(func(i int, bench string, got trace.Trace) error {
		if len(got) != len(tr) {
			return fmt.Errorf("scan %d: trace len %d", i, len(got))
		}
		seen[i] = bench
		return nil
	})
	taskRan := false
	s.AddTask(func() error { taskRan = true; return nil })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, bench := range benches {
		if seen[i] != bench {
			t.Errorf("scan slot %d = %q, want %q", i, seen[i], bench)
		}
	}
	if !taskRan {
		t.Error("task did not run")
	}

	s2 := NewSweep(Options{}, NewTraceCache(synthGen(tr)), benches, 5)
	boom := errors.New("boom")
	s2.AddScan(func(i int, bench string, got trace.Trace) error { return boom })
	if err := s2.Run(); err != boom {
		t.Errorf("scan error not propagated: %v", err)
	}
}

// TestGeneratorErrorPropagates: a trace generation failure fails the
// sweep.
func TestGeneratorErrorPropagates(t *testing.T) {
	boom := errors.New("no such benchmark")
	cache := NewTraceCache(func(string, uint64) (trace.Trace, error) { return nil, boom })
	s := NewSweep(Options{}, cache, []string{"a"}, 1)
	s.Add(func() core.Predictor { return core.NewLastValue(4) })
	if err := s.Run(); err != boom {
		t.Errorf("got %v, want %v", err, boom)
	}
}

// BenchmarkEngineReplay measures the steady-state chunked replay loop
// itself: predictors are constructed once outside the timed region,
// so ReportAllocs shows the per-pass allocation count of the hot
// path, which must stay at zero.
func BenchmarkEngineReplay(b *testing.B) {
	tr := synthTrace(1 << 16)
	preds := []core.Predictor{
		core.NewFCM(10, 12),
		core.NewDFCM(10, 12),
		core.NewStride(10),
		core.NewLastValue(10),
	}
	results := make([]core.Result, len(preds))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayChunks(preds, results, tr, defaultChunk)
	}
	b.ReportMetric(float64(len(tr)*len(preds)), "events/op")
}
