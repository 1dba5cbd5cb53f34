package engine

import (
	"errors"
	"fmt"
	"runtime"
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

// configs covers the predictor shapes the experiments sweep. Each
// one is a core.Snapshotter, so its whole state can be compared.
func configs() []func() core.Predictor {
	return []func() core.Predictor{
		func() core.Predictor { return core.NewLastValue(8) },
		func() core.Predictor { return core.NewStride(8) },
		func() core.Predictor { return core.NewFCM(8, 10) },
		func() core.Predictor { return core.NewDFCM(8, 10) },
		func() core.Predictor { return core.NewDelayed(core.NewDFCM(8, 10), 16) },
	}
}

// TestSweepMatchesPerEventRun: the predictor-major sweep must produce
// exactly the per-event core.Run results, for every config, on every
// benchmark. (TestStreamFeed covers the Stream at many feed sizes.)
func TestSweepMatchesPerEventRun(t *testing.T) {
	tr := synthTrace(10_000)
	want := make([]core.Result, len(configs()))
	for ji, mk := range configs() {
		want[ji] = core.Run(mk(), tr)
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
}

// unionRef is the perfect meta-predictor replayed event by event:
// every component predicts and trains on each event, and the event
// counts when any component predicted it.
func unionRef(tr trace.Trace, comps ...core.Predictor) core.Result {
	res := core.Result{Predictions: uint64(len(tr))}
	for _, e := range tr {
		hit := false
		for _, p := range comps {
			if p.Predict(e.PC) == e.Value {
				hit = true
			}
			p.Update(e.PC, e.Value)
		}
		if hit {
			res.Correct++
		}
	}
	return res
}

// TestSweepUnion: a union job's result on every benchmark equals the
// per-event OR of its components, for pairs and triples of configs,
// with a component shared by several unions and also read alone, on
// traces whose last mask word is partial; the components' own
// results stay those of core.Run.
func TestSweepUnion(t *testing.T) {
	lens := map[string]int{"a": 10_000, "b": 4_099, "c": 67}
	benches := []string{"a", "b", "c"}
	trs := map[string]trace.Trace{}
	for _, b := range benches {
		// Every fifth event continues a stride on its own PC, so the
		// stride component hits where the two-level ones need warmup.
		tr := synthTrace(lens[b])
		for i := 4; i < len(tr); i += 5 {
			tr[i] = trace.Event{PC: 0x2000, Value: uint32(7 * i)}
		}
		trs[b] = tr
	}
	cache := NewTraceCache(func(name string, _ uint64) (trace.Trace, error) { return trs[name], nil })
	s := NewSweep(Options{}, cache, benches, 0)
	mks := configs()
	jobs := make([]*Job, len(mks))
	for i, mk := range mks {
		jobs[i] = s.Add(mk)
	}
	st, f, d, dl := jobs[1], jobs[2], jobs[3], jobs[4]
	unions := []struct {
		u   *Job
		idx []int
	}{
		{s.Union(st, f), []int{1, 2}},
		{s.Union(st, d), []int{1, 3}},
		{s.Union(jobs[0], st, dl), []int{0, 1, 4}},
		{s.Union(f), []int{2}},
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for bi, bench := range benches {
		tr := trs[bench]
		for ji, mk := range mks {
			if got, want := jobs[ji].PerBench()[bi].Result, core.Run(mk(), tr); got != want {
				t.Errorf("%s: component %d = %+v, want %+v", bench, ji, got, want)
			}
		}
		for ui, c := range unions {
			comps := make([]core.Predictor, len(c.idx))
			for k, i := range c.idx {
				comps[k] = mks[i]()
			}
			want := unionRef(tr, comps...)
			got := c.u.PerBench()[bi]
			if got.Benchmark != bench || got.Result != want {
				t.Errorf("%s: union %d = %+v, want %s %+v", bench, ui, got, bench, want)
			}
		}
	}
}

// countingPred is a BatchRunner that records the length of every
// RunBatch call it receives and predicts nothing.
type countingPred struct{ calls []int }

func (c *countingPred) Predict(uint32) uint32 { return 0 }
func (c *countingPred) Update(uint32, uint32) {}
func (c *countingPred) Name() string          { return "counting" }
func (c *countingPred) SizeBits() int64       { return 0 }
func (c *countingPred) RunBatch(batch []trace.Event) core.Result {
	c.calls = append(c.calls, len(batch))
	return core.Result{Predictions: uint64(len(batch))}
}

// TestSweepUnitShape pins the predictor-major unit: a sweep builds one
// predictor per (job, benchmark), and each one receives its
// benchmark's whole trace in exactly one RunBatch call.
func TestSweepUnitShape(t *testing.T) {
	lens := map[string]int{"a": 300, "b": 10_000, "c": 7}
	benches := []string{"a", "b", "c"}
	cache := NewTraceCache(func(name string, _ uint64) (trace.Trace, error) {
		return synthTrace(lens[name]), nil
	})
	s := NewSweep(Options{}, cache, benches, 0)
	var mu sync.Mutex
	var made []*countingPred
	const jobs = 4
	var js []*Job
	for i := 0; i < jobs; i++ {
		js = append(js, s.Add(func() core.Predictor {
			p := &countingPred{}
			mu.Lock()
			made = append(made, p)
			mu.Unlock()
			return p
		}))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(made) != jobs*len(benches) {
		t.Fatalf("mk ran %d times, want %d (jobs × benchmarks)", len(made), jobs*len(benches))
	}
	perLen := map[int]int{}
	for i, p := range made {
		if len(p.calls) != 1 {
			t.Fatalf("predictor %d got %d RunBatch calls, want 1: %v", i, len(p.calls), p.calls)
		}
		perLen[p.calls[0]]++
	}
	for _, bench := range benches {
		if perLen[lens[bench]] != jobs {
			t.Errorf("%d whole-trace batches of %s (len %d), want %d", perLen[lens[bench]], bench, lens[bench], jobs)
		}
	}
	for ji, j := range js {
		for bi, bench := range benches {
			if got := j.PerBench()[bi]; got.Benchmark != bench || got.Result.Predictions != uint64(lens[bench]) {
				t.Errorf("job %d slot %d = %+v, want %s with %d predictions", ji, bi, got, bench, lens[bench])
			}
		}
	}
}

// TestSweepColdStartParallel: the first units of a sweep must request
// distinct benchmarks, so two workers generate two cold traces at
// once. The generator blocks until both benchmarks are generating and
// fails after a timeout, so a benchmark-major unit order — both
// workers waiting on the first benchmark's singleflight — fails here.
func TestSweepColdStartParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var mu sync.Mutex
	generating := 0
	both := make(chan struct{})
	cache := NewTraceCache(func(name string, _ uint64) (trace.Trace, error) {
		mu.Lock()
		if generating++; generating == 2 {
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
			return synthTrace(100), nil
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("%s generated alone: cold trace generation is serialized", name)
		}
	})
	s := NewSweep(Options{}, cache, []string{"a", "b"}, 0)
	for i := 0; i < 3; i++ {
		s.Add(func() core.Predictor { return core.NewLastValue(4) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
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

// BenchmarkEngineReplay measures the steady-state predictor-major
// replay loop itself: predictors are constructed once outside the
// timed region, so ReportAllocs shows the per-pass allocation count
// of the hot path, which must stay at zero.
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
		replay(preds, results, tr)
	}
	b.ReportMetric(float64(len(tr)*len(preds)), "events/op")
}
