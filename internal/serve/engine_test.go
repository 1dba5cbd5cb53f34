package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testSpec is the predictor configuration the engine tests run — the
// paper's DFCM at small table sizes.
var testSpec = core.Spec{Kind: "dfcm", L1: 10, L2: 10}

// testEvents generates a deterministic mixed workload trace: shifting
// the seed PC keeps distinct sessions' traces distinct.
func testEvents(basePC uint32, n int) trace.Trace {
	body := workload.LoopBody(basePC, 2, 6, 4, 2)
	return trace.Collect(workload.Interleave(body, (n+13)/14), n)
}

// offlineHits is the ground truth: the hit count of an offline
// core.Run over events under spec.
func offlineHits(t *testing.T, spec core.Spec, events trace.Trace) uint64 {
	t.Helper()
	p, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	return core.Run(p, events).Correct
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Spec.Kind == "" {
		cfg.Spec = testSpec
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// runThroughEngine replays events through one session in batches of
// batch, returning the total hit count.
func runThroughEngine(t *testing.T, e *Engine, session uint64, events trace.Trace, batch int) uint64 {
	t.Helper()
	var hits uint64
	for start := 0; start < len(events); start += batch {
		end := min(start+batch, len(events))
		h, st := e.RunBatch(session, events[start:end])
		if st != StatusOK {
			t.Fatalf("RunBatch: status %v", st)
		}
		hits += uint64(h)
	}
	return hits
}

// delayedSpec serves testSpec's DFCM behind a 16-event update delay,
// the configuration that runs core's fused delayed-update kernel.
var delayedSpec = core.Spec{Kind: "dfcm", L1: 10, L2: 10, Delay: 16}

// servedSpecs holds one spec of every Spec kind, plus delayedSpec, at
// small table sizes: the served-parity tables run each of them.
var servedSpecs = []core.Spec{
	{Kind: "lvp", L1: 10},
	{Kind: "stride", L1: 10},
	{Kind: "2delta", L1: 10},
	{Kind: "fcm", L1: 10, L2: 10},
	testSpec,
	{Kind: "hybrid", L1: 10, L2: 10},
	{Kind: "tage", L1: 9, L2: 8},
	delayedSpec,
}

// sessionStat returns one session's entry in the engine's stats.
func sessionStat(t *testing.T, e *Engine, session uint64) SessionStat {
	t.Helper()
	for _, ss := range e.Snapshot().SessionStats {
		if ss.Session == session {
			return ss
		}
	}
	t.Fatalf("session %d missing from stats", session)
	return SessionStat{}
}

// TestRunBatchMatchesOffline: for every Spec kind, a served session
// scores the offline core.Run hit count over RunBatch at any chunk
// size, and over UpdateBatch as judged by the engine (SessionStats).
func TestRunBatchMatchesOffline(t *testing.T) {
	events := testEvents(0x1000, 5000)
	for _, spec := range servedSpecs {
		want := offlineHits(t, spec, events)
		for _, batch := range []int{1, 7, 64, len(events)} {
			e := newTestEngine(t, Config{Shards: 4, Spec: spec})
			if got := runThroughEngine(t, e, 1, events, batch); got != want {
				t.Errorf("%+v RunBatch chunk %d: %d hits, offline %d", spec, batch, got, want)
			}
		}
		e := newTestEngine(t, Config{Shards: 2, Spec: spec})
		for start := 0; start < len(events); start += 64 {
			if st := e.UpdateBatch(1, events[start:min(start+64, len(events))]); st != StatusOK {
				t.Fatalf("UpdateBatch: status %v", st)
			}
		}
		if ss := sessionStat(t, e, 1); ss.Hits != want || ss.Lookups != uint64(len(events)) {
			t.Errorf("%+v UpdateBatch: %d hits over %d judged lookups, offline %d over %d",
				spec, ss.Hits, ss.Lookups, want, len(events))
		}
	}
}

// TestDelayedSessionSnapshotResumes: a delayed session snapshotted
// mid-stream, with updates still pending, and restored on a fresh
// engine scores the rest of the stream batch for batch like the
// unmigrated session and ends in the same snapshot.
func TestDelayedSessionSnapshotResumes(t *testing.T) {
	events := testEvents(0x5000, 6000)
	const session, batch = 31, 64
	half := len(events) / 2
	ref := newTestEngine(t, Config{Shards: 2, Spec: delayedSpec})
	a := newTestEngine(t, Config{Shards: 2, Spec: delayedSpec})
	b := newTestEngine(t, Config{Shards: 1, Spec: delayedSpec})
	runThroughEngine(t, ref, session, events[:half], batch)
	runThroughEngine(t, a, session, events[:half], batch)
	blob, st := a.SnapshotSession(session)
	if st != StatusOK {
		t.Fatalf("SnapshotSession: %v", st)
	}
	if st := b.RestoreSession(session, blob); st != StatusOK {
		t.Fatalf("RestoreSession: %v", st)
	}
	for start := half; start < len(events); start += batch {
		chunk := events[start:min(start+batch, len(events))]
		want, _ := ref.RunBatch(session, chunk)
		got, st := b.RunBatch(session, chunk)
		if st != StatusOK {
			t.Fatalf("restored RunBatch: %v", st)
		}
		if got != want {
			t.Fatalf("batch at %d: restored session %d hits, unmigrated %d", start, got, want)
		}
	}
	wantBlob, _ := ref.SnapshotSession(session)
	gotBlob, _ := b.SnapshotSession(session)
	if !bytes.Equal(gotBlob, wantBlob) {
		t.Error("restored session's final snapshot differs from the unmigrated session's")
	}
}

// TestSplitPredictUpdateMatchesOffline: for every Spec kind, a client
// that sends one event per frame and counts the PredictBatch answers
// that match scores the offline core.Run hit count, as does the
// engine's own judgement of the UpdateBatch that follows.
func TestSplitPredictUpdateMatchesOffline(t *testing.T) {
	// With batch size 1 the split PredictBatch/UpdateBatch path is
	// sequentially consistent with the offline loop.
	events := testEvents(0x3000, 2000)
	for _, spec := range servedSpecs {
		want := offlineHits(t, spec, events)
		e := newTestEngine(t, Config{Shards: 2, Spec: spec})
		var hits uint64
		for _, ev := range events {
			values, st := e.PredictBatch(9, []uint32{ev.PC})
			if st != StatusOK || len(values) != 1 {
				t.Fatalf("PredictBatch: status %v, %d values", st, len(values))
			}
			if values[0] == ev.Value {
				hits++
			}
			if st := e.UpdateBatch(9, events[:0]); st != StatusOK {
				t.Fatalf("empty UpdateBatch: status %v", st)
			}
			if st := e.UpdateBatch(9, []trace.Event{ev}); st != StatusOK {
				t.Fatalf("UpdateBatch: status %v", st)
			}
		}
		if hits != want {
			t.Errorf("%+v split replay: client counted %d hits, offline %d", spec, hits, want)
		}
		if judged := sessionStat(t, e, 9).Hits; judged != want {
			t.Errorf("%+v split replay: engine judged %d hits, offline %d", spec, judged, want)
		}
	}
}

func TestSessionIsolation(t *testing.T) {
	// Interleaved sessions must behave exactly like separate offline
	// runs: no predictor state leaks between sessions.
	a, b := testEvents(0x1000, 3000), testEvents(0x9000, 3000)
	wantA, wantB := offlineHits(t, testSpec, a), offlineHits(t, testSpec, b)
	e := newTestEngine(t, Config{Shards: 3})
	var hitsA, hitsB uint64
	for start := 0; start < 3000; start += 50 {
		ha, st := e.RunBatch(100, a[start:start+50])
		if st != StatusOK {
			t.Fatal(st)
		}
		hb, st := e.RunBatch(200, b[start:start+50])
		if st != StatusOK {
			t.Fatal(st)
		}
		hitsA += uint64(ha)
		hitsB += uint64(hb)
	}
	if hitsA != wantA || hitsB != wantB {
		t.Errorf("interleaved sessions: A=%d (want %d), B=%d (want %d)",
			hitsA, wantA, hitsB, wantB)
	}
}

func TestResetSessionMatchesFresh(t *testing.T) {
	events := testEvents(0x4000, 2000)
	want := offlineHits(t, testSpec, events)
	e := newTestEngine(t, Config{Shards: 2})
	first := runThroughEngine(t, e, 7, events, 100)
	if st := e.ResetSession(7); st != StatusOK {
		t.Fatalf("ResetSession: %v", st)
	}
	second := runThroughEngine(t, e, 7, events, 100)
	if first != want || second != want {
		t.Errorf("replays around reset: %d then %d, offline %d", first, second, want)
	}
	if got := e.Snapshot().Resets; got != 1 {
		t.Errorf("snapshot resets = %d, want 1", got)
	}
}

func TestConcurrentSessions(t *testing.T) {
	// Many goroutines stream distinct sessions concurrently; each
	// session's result must equal its offline run. Run under -race
	// this is the engine's core isolation property. One shard makes
	// every goroutine contend for the same lock.
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testConcurrentSessions(t, shards)
		})
	}
}

func testConcurrentSessions(t *testing.T, shards int) {
	const goroutines = 16
	e := newTestEngine(t, Config{Shards: shards, MailboxDepth: 256})
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			events := testEvents(uint32(0x1000+0x800*g), 2000)
			p, err := testSpec.New()
			if err != nil {
				errs <- err.Error()
				return
			}
			want := core.Run(p, events).Correct
			var hits uint64
			for start := 0; start < len(events); start += 100 {
				for {
					h, st := e.RunBatch(uint64(g), events[start:start+100])
					if st == StatusBusy {
						continue // backpressure: retry
					}
					if st != StatusOK {
						errs <- st.String()
						return
					}
					hits += uint64(h)
					break
				}
			}
			if hits != want {
				errs <- "session hit mismatch"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// gatedTap stalls the request in service inside Mirror, which runs
// under the shard lock, until the test opens the gate — letting the
// backpressure test fill a shard's queue deterministically.
type gatedTap struct {
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedTap) Mirror(session, seq uint64, events []trace.Event) {
	g.entered <- struct{}{}
	<-g.gate
}

func TestBackpressureShedsInsteadOfBlocking(t *testing.T) {
	gp := &gatedTap{entered: make(chan struct{}), gate: make(chan struct{})}
	e := newTestEngine(t, Config{Shards: 1, MailboxDepth: 1})
	e.SetTap(gp)
	one := trace.Trace{{PC: 4, Value: 0}}

	results := make(chan Status, 2)
	go func() { _, st := e.RunBatch(1, one); results <- st }()
	<-gp.entered // first request is now executing on the shard
	go func() { _, st := e.RunBatch(1, one); results <- st }()
	// Wait for the second request to occupy the single queue slot.
	for e.Snapshot().QueueDepth != 1 {
		time.Sleep(time.Millisecond)
	}

	// Third request finds the queue full: shed, not blocked.
	if _, st := e.RunBatch(1, one); st != StatusBusy {
		t.Fatalf("overflow request: status %v, want busy", st)
	}
	if got := e.Snapshot().Dropped; got != 1 {
		t.Errorf("snapshot dropped = %d, want 1", got)
	}

	gp.gate <- struct{}{} // release first
	<-gp.entered          // second starts
	gp.gate <- struct{}{} // release second
	for i := 0; i < 2; i++ {
		if st := <-results; st != StatusOK {
			t.Errorf("queued request %d: status %v", i, st)
		}
	}
}

// TestEngineStartsNoShardGoroutines: requests run on their callers'
// goroutines under the shard locks, so an engine without a checkpoint
// ticker runs no goroutine of its own, before or after traffic, and
// Close leaves none behind.
func TestEngineStartsNoShardGoroutines(t *testing.T) {
	leakcheck.Check(t)
	before := runtime.NumGoroutine()
	e, err := NewEngine(Config{Spec: testSpec, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("NewEngine started %d goroutine(s)", got-before)
	}
	if _, st := e.RunBatch(1, testEvents(0x1000, 100)); st != StatusOK {
		t.Fatalf("RunBatch: %v", st)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutine(s) running after a request", got-before)
	}
	e.Close()
}

func TestMaxSessionsCap(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1, MaxSessions: 2})
	one := trace.Trace{{PC: 4, Value: 0}}
	for id := uint64(1); id <= 2; id++ {
		if _, st := e.RunBatch(id, one); st != StatusOK {
			t.Fatalf("session %d: %v", id, st)
		}
	}
	if _, st := e.RunBatch(3, one); st != StatusBusy {
		t.Errorf("session over cap: status %v, want busy", st)
	}
	if got := e.Snapshot().Sessions; got != 2 {
		t.Errorf("snapshot sessions = %d, want 2", got)
	}
}

// engineOp is one exported engine op, called on session id.
type engineOp struct {
	name string
	call func(e *Engine, id uint64) Status
	// atCap is the answer when id is not live and the engine is at
	// its session cap: the ops that create (or install) a session are
	// busy, Snapshot and Swap never create one and answer bad-request.
	atCap Status
}

// engineOps lists every exported engine op. RestoreSession installs a
// snapshot of session id taken on a scratch engine of the same spec.
func engineOps(t *testing.T) []engineOp {
	t.Helper()
	one := trace.Trace{{PC: 4, Value: 0}}
	src := newTestEngine(t, Config{Shards: 1})
	for id := uint64(1); id <= 2; id++ {
		if _, st := src.RunBatch(id, one); st != StatusOK {
			t.Fatalf("source session %d: %v", id, st)
		}
	}
	p, err := testSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	return []engineOp{
		{"PredictBatch", func(e *Engine, id uint64) Status {
			_, st := e.PredictBatch(id, []uint32{4})
			return st
		}, StatusBusy},
		{"PredictBatchAppend", func(e *Engine, id uint64) Status {
			_, st := e.PredictBatchAppend(id, []uint32{4}, make([]uint32, 0, 1))
			return st
		}, StatusBusy},
		{"UpdateBatch", func(e *Engine, id uint64) Status { return e.UpdateBatch(id, one) }, StatusBusy},
		{"RunBatch", func(e *Engine, id uint64) Status {
			_, st := e.RunBatch(id, one)
			return st
		}, StatusBusy},
		{"ResetSession", func(e *Engine, id uint64) Status { return e.ResetSession(id) }, StatusBusy},
		{"SnapshotSession", func(e *Engine, id uint64) Status {
			_, st := e.SnapshotSession(id)
			return st
		}, StatusBadRequest},
		{"RestoreSession", func(e *Engine, id uint64) Status {
			blob, st := src.SnapshotSession(id)
			if st != StatusOK {
				t.Fatalf("source snapshot %d: %v", id, st)
			}
			return e.RestoreSession(id, blob)
		}, StatusBusy},
		{"SwapSession", func(e *Engine, id uint64) Status { return e.SwapSession(id, testSpec, p) }, StatusBadRequest},
	}
}

// newReleaseEngine is an engine with checkpointing on, so that
// expectReleased's sweep takes every shard lock. It is not closed on
// cleanup: expectReleased closes it under a deadline, and a leaked lock
// would hang a cleanup Close past the test timeout.
func newReleaseEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	cfg.Spec = testSpec
	cfg.CheckpointDir = t.TempDir()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// expectReleased checks that a finished op left nothing behind and
// closes e: no admission count on any shard, and neither the engine
// read lock (Close takes the write lock, even on a closed engine) nor
// any shard lock (the checkpoint sweep takes each one) still held.
func expectReleased(t *testing.T, e *Engine) {
	t.Helper()
	if q := e.Snapshot().QueueDepth; q != 0 {
		t.Errorf("queue depth %d after the op, want 0", q)
	}
	for i, s := range e.shards {
		if n := s.load.Load(); n != 0 {
			t.Errorf("shard %d admission count %d after the op, want 0", i, n)
		}
	}
	done := make(chan struct{})
	go func() {
		e.Close()
		_, _ = e.CheckpointAll()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close or the checkpoint sweep hung: the op leaked the engine read lock or a shard lock")
	}
}

// TestClosedEngineRejects: every op on a closed engine answers
// StatusClosed, even on a live session, and holds nothing after.
func TestClosedEngineRejects(t *testing.T) {
	for _, op := range engineOps(t) {
		t.Run(op.name, func(t *testing.T) {
			e := newReleaseEngine(t, Config{Shards: 2})
			if _, st := e.RunBatch(1, trace.Trace{{PC: 4, Value: 0}}); st != StatusOK {
				t.Fatalf("warmup: %v", st)
			}
			e.Close()
			e.Close() // idempotent
			if st := op.call(e, 1); st != StatusClosed {
				t.Errorf("post-close %s: status %v, want closed", op.name, st)
			}
			expectReleased(t, e)
		})
	}
}

// TestEveryOpShedsAtBound: with the shard's one request in service and
// its one waiting slot taken, every op is shed: StatusBusy at once,
// counted in Dropped, with its admission count undone.
func TestEveryOpShedsAtBound(t *testing.T) {
	one := trace.Trace{{PC: 4, Value: 0}}
	for _, op := range engineOps(t) {
		t.Run(op.name, func(t *testing.T) {
			gp := &gatedTap{entered: make(chan struct{}), gate: make(chan struct{})}
			e := newReleaseEngine(t, Config{Shards: 1, MailboxDepth: 1})
			e.SetTap(gp)
			results := make(chan Status, 2)
			go func() { _, st := e.RunBatch(1, one); results <- st }()
			<-gp.entered
			go func() { _, st := e.RunBatch(1, one); results <- st }()
			for e.Snapshot().QueueDepth != 1 {
				time.Sleep(time.Millisecond)
			}
			if st := op.call(e, 1); st != StatusBusy {
				t.Errorf("%s at the bound: status %v, want busy", op.name, st)
			}
			if got := e.Snapshot().Dropped; got != 1 {
				t.Errorf("dropped = %d, want 1", got)
			}
			gp.gate <- struct{}{}
			<-gp.entered
			gp.gate <- struct{}{}
			for i := 0; i < 2; i++ {
				if st := <-results; st != StatusOK {
					t.Errorf("queued request %d: status %v", i, st)
				}
			}
			e.SetTap(nil)
			expectReleased(t, e)
		})
	}
}

// TestFailedOpsReleaseLocks: an op refused after admission — a missing
// session at the session cap, or a restore under a foreign spec —
// answers its status and holds nothing after.
func TestFailedOpsReleaseLocks(t *testing.T) {
	for _, op := range engineOps(t) {
		t.Run("cap/"+op.name, func(t *testing.T) {
			e := newReleaseEngine(t, Config{Shards: 1, MaxSessions: 1})
			if _, st := e.RunBatch(1, trace.Trace{{PC: 4, Value: 0}}); st != StatusOK {
				t.Fatalf("warmup: %v", st)
			}
			if st := op.call(e, 2); st != op.atCap {
				t.Errorf("%s on a missing session at the cap: status %v, want %v", op.name, st, op.atCap)
			}
			if got := e.Snapshot().Sessions; got != 1 {
				t.Errorf("sessions = %d, want 1", got)
			}
			expectReleased(t, e)
		})
	}
	t.Run("RestoreSession/spec-mismatch", func(t *testing.T) {
		src := newTestEngine(t, Config{Shards: 1, Spec: core.Spec{Kind: "fcm", L1: 10, L2: 10}})
		if _, st := src.RunBatch(1, trace.Trace{{PC: 4, Value: 0}}); st != StatusOK {
			t.Fatalf("source warmup: %v", st)
		}
		blob, st := src.SnapshotSession(1)
		if st != StatusOK {
			t.Fatalf("source snapshot: %v", st)
		}
		e := newReleaseEngine(t, Config{Shards: 1})
		if st := e.RestoreSession(1, blob); st != StatusSpecMismatch {
			t.Errorf("foreign-spec restore: status %v, want spec-mismatch", st)
		}
		expectReleased(t, e)
	})
}

func TestEngineRequiresFactory(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("NewEngine without a Spec must fail")
	}
	if _, err := NewEngine(Config{Spec: core.Spec{Kind: "dfcm", L1: 10}}); err == nil {
		t.Error("NewEngine with an invalid Spec must fail")
	}
}

func TestSnapshotCounters(t *testing.T) {
	events := testEvents(0x5000, 1400)
	e := newTestEngine(t, Config{Shards: 2})
	runThroughEngine(t, e, 1, events, 200)
	pcs := make([]uint32, 10)
	if _, st := e.PredictBatch(2, pcs); st != StatusOK {
		t.Fatal(st)
	}
	st := e.Snapshot()
	if st.Predictor != "dfcm-2^10/2^10" {
		t.Errorf("predictor name %q", st.Predictor)
	}
	if st.Predictions != 1410 {
		t.Errorf("predictions = %d, want 1410", st.Predictions)
	}
	if st.Updates != 1400 {
		t.Errorf("updates = %d, want 1400", st.Updates)
	}
	if st.Sessions != 2 {
		t.Errorf("sessions = %d, want 2", st.Sessions)
	}
	if st.Hits == 0 || st.HitRate <= 0 {
		t.Errorf("hits = %d, hit rate = %v", st.Hits, st.HitRate)
	}
	if len(st.ShardStats) != 2 {
		t.Fatalf("shard stats: %d entries", len(st.ShardStats))
	}
	occupied := 0
	for _, ss := range st.ShardStats {
		occupied += ss.Sessions
	}
	if occupied != 2 {
		t.Errorf("shard occupancy sums to %d, want 2", occupied)
	}
}

// TestStatsHitRateCountsJudgedLookups: the engine-level hit rate is
// Hits over judged lookups (Updates), the rule SessionStat uses, so
// UpdateBatch-only traffic counts and PredictBatch-only lookups, which
// nothing judges, do not. The merged cluster view follows the same
// rule.
func TestStatsHitRateCountsJudgedLookups(t *testing.T) {
	events := testEvents(0x6000, 4000)
	e := newTestEngine(t, Config{Shards: 2})
	check := func(label string, st Stats) {
		t.Helper()
		if st.Updates == 0 || st.Hits == 0 {
			t.Fatalf("%s: %d hits over %d judged lookups", label, st.Hits, st.Updates)
		}
		if st.HitRate < 0 || st.HitRate > 1 || st.HitRate != float64(st.Hits)/float64(st.Updates) {
			t.Errorf("%s: hit rate %v, want %d/%d", label, st.HitRate, st.Hits, st.Updates)
		}
	}
	if st := e.UpdateBatch(1, events); st != StatusOK {
		t.Fatalf("UpdateBatch: %v", st)
	}
	st := e.Snapshot()
	check("UpdateBatch only", st)
	if ss := sessionStat(t, e, 1); ss.HitRate != st.HitRate {
		t.Errorf("engine hit rate %v, its only session's %v", st.HitRate, ss.HitRate)
	}
	if _, s := e.PredictBatch(1, []uint32{0x6000, 0x6004}); s != StatusOK {
		t.Fatalf("PredictBatch: %v", s)
	}
	check("UpdateBatch then PredictBatch", e.Snapshot())
	runThroughEngine(t, e, 2, events, 256)
	var merged Stats
	merged.Merge(e.Snapshot())
	merged.Merge(e.Snapshot())
	check("merged", merged)
}

// TestStatsAreSumsOverSessions: the engine totals are derived from the
// sessions, so they stay their sums through every way a session comes
// to be or changes — first traffic, a restore of a new and of a live
// session, a swap and a reset — and the per-shard session counts sum
// to the live-session count. The session cap still answers StatusBusy
// to new sessions, by traffic or by restore, while a restore over a
// live session at the cap succeeds.
func TestStatsAreSumsOverSessions(t *testing.T) {
	events := testEvents(0x7000, 1200)
	e := newTestEngine(t, Config{Shards: 3, MaxSessions: 4})
	check := func(label string, sessions int) {
		t.Helper()
		st := e.Snapshot()
		var preds, hits, updates uint64
		for _, ss := range st.SessionStats {
			preds += ss.Predictions
			hits += ss.Hits
			updates += ss.Lookups
		}
		if st.Predictions != preds || st.Hits != hits || st.Updates != updates {
			t.Errorf("%s: engine predictions/hits/updates %d/%d/%d, session sums %d/%d/%d",
				label, st.Predictions, st.Hits, st.Updates, preds, hits, updates)
		}
		occupied, shardPreds := 0, uint64(0)
		for _, sh := range st.ShardStats {
			occupied += sh.Sessions
			shardPreds += sh.Predictions
		}
		if st.Sessions != sessions || occupied != sessions || len(st.SessionStats) != sessions {
			t.Errorf("%s: %d sessions, shards hold %d, %d session stats; want %d",
				label, st.Sessions, occupied, len(st.SessionStats), sessions)
		}
		if shardPreds != st.Predictions {
			t.Errorf("%s: shard predictions sum to %d, engine %d", label, shardPreds, st.Predictions)
		}
	}

	runThroughEngine(t, e, 1, events, 100)
	if st := e.UpdateBatch(2, events[:500]); st != StatusOK {
		t.Fatalf("UpdateBatch: %v", st)
	}
	if _, st := e.PredictBatch(3, []uint32{0x7000, 0x7004}); st != StatusOK {
		t.Fatalf("PredictBatch: %v", st)
	}
	check("created", 3)

	// A donor engine trains sessions 2 and 4 further than e has, so
	// their restores carry lifetime counters e has never seen.
	donor := newTestEngine(t, Config{Shards: 2})
	runThroughEngine(t, donor, 2, events, 300)
	runThroughEngine(t, donor, 4, events[:700], 70)
	blob := func(id uint64) []byte {
		b, st := donor.SnapshotSession(id)
		if st != StatusOK {
			t.Fatalf("SnapshotSession(%d): %v", id, st)
		}
		return b
	}
	if st := e.RestoreSession(4, blob(4)); st != StatusOK {
		t.Fatalf("restore of new session 4: %v", st)
	}
	check("restored new", 4)
	if _, st := e.RunBatch(5, events[:10]); st != StatusBusy {
		t.Errorf("traffic for a fifth session at the cap: %v, want busy", st)
	}
	runThroughEngine(t, donor, 5, events[:50], 50)
	if st := e.RestoreSession(5, blob(5)); st != StatusBusy {
		t.Errorf("restore of a fifth session at the cap: %v, want busy", st)
	}
	check("at cap", 4)
	if st := e.RestoreSession(2, blob(2)); st != StatusOK {
		t.Fatalf("restore over live session 2 at the cap: %v", st)
	}
	if got, want := sessionStat(t, e, 2).Lookups, uint64(len(events)); got != want {
		t.Errorf("restored session 2 has %d lookups, want the donor's %d", got, want)
	}
	check("restored live", 4)

	p, err := testSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	if st := e.SwapSession(3, testSpec, p); st != StatusOK {
		t.Fatalf("SwapSession: %v", st)
	}
	runThroughEngine(t, e, 3, events[:400], 40)
	check("swapped", 4)
	if st := e.ResetSession(1); st != StatusOK {
		t.Fatalf("ResetSession: %v", st)
	}
	runThroughEngine(t, e, 1, events[:200], 50)
	check("reset", 4)
	if st := e.Snapshot(); st.Resets != 1 || st.Swaps != 1 || st.Restored != 2 {
		t.Errorf("resets/swaps/restored = %d/%d/%d, want 1/1/2", st.Resets, st.Swaps, st.Restored)
	}
}
