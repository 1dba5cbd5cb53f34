package autotune

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// strideEvents is a single-PC arithmetic sequence: a last-value
// predictor is always wrong on it (step != 0), stride and DFCM are
// near-perfect after warmup — a workload whose best spec is
// unambiguous, so promotion tests don't flake.
func strideEvents(pc uint32, n int, start, step uint32) trace.Trace {
	tr := make(trace.Trace, n)
	v := start
	for i := range tr {
		tr[i] = trace.Event{PC: pc, Value: v}
		v += step
	}
	return tr
}

func newEngine(t testing.TB, spec core.Spec) *serve.Engine {
	t.Helper()
	e, err := serve.NewEngine(serve.Config{Spec: spec, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func stateBytes(t *testing.T, p core.Predictor) []byte {
	t.Helper()
	s, ok := p.(core.Snapshotter)
	if !ok {
		t.Fatalf("%T is not a Snapshotter", p)
	}
	return s.AppendState(nil)
}

// TestSwapEquivalence is the deterministic-swap acceptance test: with
// a fixed sample seed, a session that gets hot-swapped must match —
// bit for bit, from the swap point on — a reference predictor of the
// winning spec trained on the same mirrored subsequence.
func TestSwapEquivalence(t *testing.T) {
	leakcheck.Check(t)
	bootSpec := core.Spec{Kind: "lvp", L1: 4}
	candSpec := core.Spec{Kind: "dfcm", L1: 8, L2: 8}
	e := newEngine(t, bootSpec)
	tn, err := New(Config{
		Engine:       e,
		Boot:         bootSpec,
		Candidates:   []core.Spec{candSpec},
		Window:       128,
		MinMirrored:  256,
		MailboxDepth: 1024,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()

	const (
		sid     = 11
		B       = 64
		batches = 20
	)
	events := strideEvents(0x1000, B*batches, 100, 3)

	// Drive batch by batch, syncing the tuner after each so the swap
	// point is observed at the exact batch whose processing caused it.
	swapAt := -1
	for i := 0; i < batches; i++ {
		if _, st := e.RunBatch(sid, events[i*B:(i+1)*B]); st != serve.StatusOK {
			t.Fatalf("batch %d: %v", i, st)
		}
		tn.Sync()
		if st := tn.Status(); st.Swaps > 0 {
			if st.Swaps != 1 {
				t.Fatalf("batch %d: %d swaps, want exactly 1", i, st.Swaps)
			}
			swapAt = i
			break
		}
	}
	if swapAt < 0 {
		t.Fatalf("no swap in %d batches; status %+v", batches, tn.Status())
	}

	// The promoted shadow was trained on every batch up to and
	// including swapAt (sample rate 1, nothing shed: mailbox is deep
	// and every batch was synced). The reference is a fresh predictor
	// of the winning spec over exactly that prefix.
	ref, err := candSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	cut := (swapAt + 1) * B
	core.Run(ref, events[:cut])

	// From the swap point the session and the reference must agree on
	// every batch's hit count...
	for i := swapAt + 1; i < batches; i++ {
		chunk := events[i*B : (i+1)*B]
		got, st := e.RunBatch(sid, chunk)
		if st != serve.StatusOK {
			t.Fatalf("post-swap batch %d: %v", i, st)
		}
		want := core.Run(ref, chunk).Correct
		if uint64(got) != want {
			t.Fatalf("post-swap batch %d: %d hits, reference %d", i, got, want)
		}
	}

	// ...and end bit-identical: the session's snapshot restores to the
	// reference's exact table state, under the winning spec.
	blob, st := e.SnapshotSession(sid)
	if st != serve.StatusOK {
		t.Fatalf("SnapshotSession: %v", st)
	}
	snap, err := snapshot.Decode(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Spec.Canonical() != candSpec.Canonical() {
		t.Fatalf("snapshot spec %+v, want winning %+v", snap.Spec, candSpec.Canonical())
	}
	restored, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, restored), stateBytes(t, ref)) {
		t.Error("swapped session state differs from reference trained on the mirrored subsequence")
	}
}

// TestNoSwapBitIdentity: a session whose candidates never win — and
// every session on a tuner-disabled engine — must serve bit-identically
// with and without the tuner attached. The tap observes; it must not
// touch.
func TestNoSwapBitIdentity(t *testing.T) {
	leakcheck.Check(t)
	bootSpec := core.Spec{Kind: "dfcm", L1: 8, L2: 8}
	events := strideEvents(0x2000, 1500, 7, 5)

	run := func(tuned bool) []byte {
		e := newEngine(t, bootSpec)
		if tuned {
			tn, err := New(Config{
				Engine: e,
				Boot:   bootSpec,
				// A hopeless candidate: lvp never beats DFCM here.
				Candidates:   []core.Spec{{Kind: "lvp", L1: 2}},
				Window:       128,
				MinMirrored:  256,
				MailboxDepth: 1024,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tn.Close()
			defer func() {
				tn.Sync()
				if st := tn.Status(); st.Swaps != 0 {
					t.Fatalf("hopeless candidate was promoted: %+v", st)
				}
			}()
		}
		for start := 0; start < len(events); start += 100 {
			if _, st := e.RunBatch(4, events[start:start+100]); st != serve.StatusOK {
				t.Fatalf("RunBatch: %v", st)
			}
		}
		blob, st := e.SnapshotSession(4)
		if st != serve.StatusOK {
			t.Fatalf("SnapshotSession: %v", st)
		}
		return blob
	}

	if !bytes.Equal(run(true), run(false)) {
		t.Error("tuner-attached session snapshot differs from untuned engine")
	}
}

// TestEfficiencyObjective: two specs with equal windowed accuracy but
// different table budgets. The efficiency objective (accuracy per
// Kbit) promotes the small one; the accuracy objective, with its
// hysteresis margin, must leave the tie alone.
func TestEfficiencyObjective(t *testing.T) {
	bootSpec := core.Spec{Kind: "stride", L1: 12}
	candSpec := core.Spec{Kind: "stride", L1: 4}
	events := strideEvents(0x3000, 2000, 1, 9)

	for _, tc := range []struct {
		objective string
		wantSwaps uint64
	}{
		{"efficiency", 1},
		{"accuracy", 0},
	} {
		e := newEngine(t, bootSpec)
		tn, err := New(Config{
			Engine:       e,
			Boot:         bootSpec,
			Candidates:   []core.Spec{candSpec},
			Objective:    tc.objective,
			Window:       128,
			MinMirrored:  256,
			MailboxDepth: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		for start := 0; start < len(events); start += 100 {
			if _, st := e.RunBatch(6, events[start:start+100]); st != serve.StatusOK {
				t.Fatalf("RunBatch: %v", st)
			}
			tn.Sync()
		}
		if st := tn.Status(); st.Swaps != tc.wantSwaps {
			t.Errorf("objective %q: %d swaps, want %d (status %+v)",
				tc.objective, st.Swaps, tc.wantSwaps, st.PerSession)
		}
		tn.Close()
	}
}

// TestStatusShape: the per-session view carries the incumbent, its
// twin shadow at index 0, and coherent windowed scores.
func TestStatusShape(t *testing.T) {
	bootSpec := core.Spec{Kind: "dfcm", L1: 8, L2: 8}
	candSpec := core.Spec{Kind: "dfcm", L1: 10, L2: 10}
	e := newEngine(t, bootSpec)
	tn, err := New(Config{Engine: e, Boot: bootSpec, Candidates: []core.Spec{candSpec}, MailboxDepth: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	events := strideEvents(0x4000, 600, 3, 2)
	for _, sid := range []uint64{8, 1} {
		if _, st := e.RunBatch(sid, events); st != serve.StatusOK {
			t.Fatalf("RunBatch: %v", st)
		}
	}
	tn.Sync()
	st := tn.Status()
	if st.Objective != "accuracy" {
		t.Errorf("objective %q", st.Objective)
	}
	if st.Sessions != 2 || len(st.PerSession) != 2 {
		t.Fatalf("tracking %d/%d sessions, want 2", st.Sessions, len(st.PerSession))
	}
	if st.MirroredEvents != 1200 || st.MirroredBatches != 2 {
		t.Errorf("mirrored %d events in %d batches, want 1200 in 2", st.MirroredEvents, st.MirroredBatches)
	}
	if st.PerSession[0].Session != 1 || st.PerSession[1].Session != 8 {
		t.Errorf("sessions not sorted: %d, %d", st.PerSession[0].Session, st.PerSession[1].Session)
	}
	for _, ps := range st.PerSession {
		if ps.Incumbent != bootSpec.Canonical() {
			t.Errorf("session %d incumbent %+v", ps.Session, ps.Incumbent)
		}
		if ps.Mirrored != 600 {
			t.Errorf("session %d mirrored %d, want 600", ps.Session, ps.Mirrored)
		}
		if len(ps.Shadows) != 2 {
			t.Fatalf("session %d has %d shadows, want 2", ps.Session, len(ps.Shadows))
		}
		if ps.Shadows[0].Spec != bootSpec.Canonical() || ps.Shadows[1].Spec != candSpec.Canonical() {
			t.Errorf("session %d shadow specs %+v", ps.Session, ps.Shadows)
		}
		for _, sh := range ps.Shadows {
			if sh.WindowLookups == 0 || sh.WindowHits > sh.WindowLookups {
				t.Errorf("session %d shadow %+v: bad window", ps.Session, sh)
			}
			if sh.SizeBits <= 0 || sh.PerKbit != sh.Accuracy*1024/float64(sh.SizeBits) {
				t.Errorf("session %d shadow %+v: bad size/per-kbit", ps.Session, sh)
			}
		}
	}
}

// TestMirrorShedsWhenFull: a full mailbox sheds instead of blocking.
// The tuner is closed first so the consumer is provably absent and the
// count is deterministic; Mirror stays safe to call in that state
// (served requests may race Close).
func TestMirrorShedsWhenFull(t *testing.T) {
	bootSpec := core.Spec{Kind: "lvp", L1: 4}
	e := newEngine(t, bootSpec)
	tn, err := New(Config{Engine: e, Boot: bootSpec, Candidates: []core.Spec{{Kind: "stride", L1: 4}}, MailboxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	tn.Close()
	events := strideEvents(0x5000, 32, 1, 1)
	for i := 0; i < 5; i++ {
		tn.Mirror(1, uint64(i*32), events)
	}
	if got := tn.shed.Load(); got != 3 {
		t.Errorf("shed %d batches, want 3 (mailbox depth 2)", got)
	}
	if got := tn.mirroredBatches.Load(); got != 2 {
		t.Errorf("enqueued %d batches, want 2", got)
	}
	if st := tn.Status(); !st.Closed {
		t.Error("Status on closed tuner did not report Closed")
	}
	tn.Close() // idempotent
}

// TestSamplingDeterministic: the sampling hash is a pure function of
// (seed, session, seq) — same seed, same subsequence — and lands near
// the configured rate.
func TestSamplingDeterministic(t *testing.T) {
	mk := func(seed uint64) *Tuner {
		return &Tuner{cfg: Config{SampleRate: 0.5, Seed: seed}}
	}
	a, b, c := mk(1), mk(1), mk(2)
	var picked, diff int
	const n = 20000
	for seq := uint64(0); seq < n; seq++ {
		pa := a.sampled(9, seq)
		if pa != b.sampled(9, seq) {
			t.Fatalf("seq %d: same seed disagrees", seq)
		}
		if pa {
			picked++
		}
		if pa != c.sampled(9, seq) {
			diff++
		}
	}
	if picked < n*4/10 || picked > n*6/10 {
		t.Errorf("rate 0.5 picked %d/%d", picked, n)
	}
	if diff == 0 {
		t.Error("different seeds produced identical subsequences")
	}
}

// TestSampledSubsequenceEquivalence: with a fractional sample rate the
// shadows train on exactly the hash-selected subsequence — rebuilding
// that subsequence offline from the same (seed, session, seq) triple
// reproduces the shadow's state bit for bit.
func TestSampledSubsequenceEquivalence(t *testing.T) {
	bootSpec := core.Spec{Kind: "lvp", L1: 4}
	candSpec := core.Spec{Kind: "dfcm", L1: 8, L2: 8}
	e := newEngine(t, bootSpec)
	tn, err := New(Config{
		Engine:       e,
		Boot:         bootSpec,
		Candidates:   []core.Spec{candSpec},
		SampleRate:   0.5,
		Seed:         7,
		Window:       1 << 20, // no rotation, no promotion interference
		MinMirrored:  1 << 30, // never promote: isolate the sampling path
		MailboxDepth: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()

	const B = 50
	events := strideEvents(0x6000, 1000, 11, 4)
	var mirrored trace.Trace
	var seq uint64
	for start := 0; start < len(events); start += B {
		chunk := events[start : start+B]
		if tn.sampled(3, seq) {
			mirrored = append(mirrored, chunk...)
		}
		if _, st := e.RunBatch(3, chunk); st != serve.StatusOK {
			t.Fatalf("RunBatch: %v", st)
		}
		seq += B
	}
	tn.Sync()
	st := tn.Status()
	if st.MirroredEvents != uint64(len(mirrored)) || st.Shed != 0 {
		t.Fatalf("mirrored %d events (shed %d), offline selection says %d",
			st.MirroredEvents, st.Shed, len(mirrored))
	}
	ref, err := candSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	core.Run(ref, mirrored)
	// White-box: compare the candidate shadow's state directly. The
	// Sync above flushed the mailbox and nothing has mirrored since, so
	// the loop is idle and the states map quiescent.
	shadow := tn.states[3].stream.Predictor(1)
	if !bytes.Equal(stateBytes(t, shadow), stateBytes(t, ref)) {
		t.Error("sampled shadow state differs from offline replay of the hash-selected subsequence")
	}
}

func TestParseSpecs(t *testing.T) {
	got, err := ParseSpecs("dfcm:12:10, dfcm:14:12:16 ,stride:14,lvp:8,dfcm:10:8:32:4,tage:10:8,tage:10:8:32:0:6:10:2:96")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Spec{
		{Kind: "dfcm", L1: 12, L2: 10},
		{Kind: "dfcm", L1: 14, L2: 12, Width: 16},
		{Kind: "stride", L1: 14},
		{Kind: "lvp", L1: 8},
		{Kind: "dfcm", L1: 10, L2: 8, Width: 32, Delay: 4},
		{Kind: "tage", L1: 10, L2: 8},
		{Kind: "tage", L1: 10, L2: 8, Width: 32, Tables: 6, Tag: 10, HistMin: 2, HistMax: 96},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d specs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("spec %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{
		"", "dfcm", "dfcm:12:10,", "dfcm:twelve:10", "nope:4",
		"fcm:10", "dfcm:12:10:16:2:9", "dfcm:99:10",
		"tage:10:8:32:0:13",         // table count past TAGEMaxTables
		"tage:10:8:32:0:4:8:64:4",   // hmin above hmax
		"tage:10:8:32:0:4:8:4:129",  // history past TAGEMaxHist
		"tage:10:8:32:0:4:8:4:64:1", // too many positions
		"stride:8:0:0:0:4:8:4:64",   // tage geometry on a non-tage kind
	} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Errorf("ParseSpecs(%q) accepted", bad)
		}
	}
}

func TestNewValidation(t *testing.T) {
	bootSpec := core.Spec{Kind: "lvp", L1: 4}
	e := newEngine(t, bootSpec)
	cases := []Config{
		{Boot: bootSpec, Candidates: []core.Spec{{Kind: "stride", L1: 4}}}, // no engine
		{Engine: e, Boot: core.Spec{Kind: "nope"}, Candidates: []core.Spec{{Kind: "stride", L1: 4}}},
		{Engine: e, Boot: bootSpec},                                         // no candidates
		{Engine: e, Boot: bootSpec, Candidates: []core.Spec{{Kind: "fcm"}}}, // invalid candidate
		{Engine: e, Boot: bootSpec, Candidates: []core.Spec{{Kind: "stride", L1: 4}}, Objective: "x"},
	}
	for i, cfg := range cases {
		if tn, err := New(cfg); err == nil {
			tn.Close()
			t.Errorf("case %d: New accepted %+v", i, cfg)
		}
	}
	// Duplicate candidates collapse.
	tn, err := New(Config{Engine: e, Boot: bootSpec, Candidates: []core.Spec{
		{Kind: "dfcm", L1: 8, L2: 8},
		{Kind: "dfcm", L1: 8, L2: 8, Width: 32}, // canonically the same
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	if len(tn.candidates) != 1 {
		t.Errorf("%d candidates after dedup, want 1", len(tn.candidates))
	}
}

// TestMirrorZeroAlloc: once the envelope pool is warm, Mirror
// allocates nothing on any of its paths: a batch the sampling hash
// skips, a batch enqueued into a mailbox with room, and a batch shed
// because the mailbox is full. The tuner is closed, so the test
// drains the mailbox itself and returns each envelope to the pool as
// the loop would. The session ID is wide on purpose: formatting or
// boxing it would allocate, which a small ID might not.
func TestMirrorZeroAlloc(t *testing.T) {
	if leakcheck.RaceEnabled {
		t.Skip("race detector instrumentation allocates; zero-alloc budget holds in pure builds only")
	}
	spec := core.Spec{Kind: "dfcm", L1: 10, L2: 10}
	tn, err := New(Config{Engine: newEngine(t, spec), Boot: spec,
		Candidates: []core.Spec{{Kind: "stride", L1: 10}}, MailboxDepth: 1, SampleRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	tn.Close()
	const session = 0x9e3779b97f4a7c15
	events := strideEvents(0x1000, 256, 1, 3)
	var seq uint64
	mirror := func() {
		seq++
		tn.Mirror(session, seq, events)
		select {
		case m := <-tn.mail:
			tn.pool.Put(m.b)
		default:
		}
	}
	for i := 0; i < 8; i++ {
		mirror()
	}
	if tn.mirroredBatches.Load() == 0 || tn.skipped.Load() == 0 {
		t.Fatalf("warm-up took one path only: %d mirrored, %d skipped",
			tn.mirroredBatches.Load(), tn.skipped.Load())
	}
	if n := testing.AllocsPerRun(100, mirror); n != 0 {
		t.Errorf("Mirror, sampled or skipped: %.1f allocs/op, want 0", n)
	}
	for tn.shed.Load() == 0 {
		seq++
		tn.Mirror(session, seq, events)
	}
	if n := testing.AllocsPerRun(100, func() {
		seq++
		tn.Mirror(session, seq, events)
	}); n != 0 {
		t.Errorf("Mirror into a full mailbox: %.1f allocs/op, want 0", n)
	}
}

// --- benchmarks ---

// BenchmarkServeMirrorTap measures the serving hot path with the
// mirror tap armed: Engine.RunBatch plus the sample-hash, pooled copy
// and enqueue/shed in Mirror. The tuner is closed (consumer paused) so
// after warmup every batch takes the deterministic shed path — the
// bench isolates the tap overhead the serving tier pays, and `make
// bench` gates it at 0 allocs/op.
func BenchmarkServeMirrorTap(b *testing.B) {
	bootSpec := core.Spec{Kind: "dfcm", L1: 10, L2: 10}
	e := newEngine(b, bootSpec)
	tn, err := New(Config{Engine: e, Boot: bootSpec, Candidates: []core.Spec{{Kind: "dfcm", L1: 12, L2: 12}}, MailboxDepth: 8})
	if err != nil {
		b.Fatal(err)
	}
	tn.Close()
	e.SetTap(tn) // reattach: enqueue/shed with no consumer
	events := strideEvents(0x1000, 2048, 1, 3)
	for i := 0; i < 16; i++ { // warm session, pool, and fill the mailbox
		if _, st := e.RunBatch(1, events); st != serve.StatusOK {
			b.Fatalf("warmup: %v", st)
		}
	}
	b.SetBytes(int64(len(events) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st := e.RunBatch(1, events); st != serve.StatusOK {
			b.Fatal(st)
		}
	}
}

// benchAutotune drives served RunBatch throughput with or without a
// live tuner (loop running, shadows training), for the on/off pair in
// BENCH_engine.json: the delta is the full cost of online autotuning
// at sample rate 1.
func benchAutotune(b *testing.B, tuned bool) {
	bootSpec := core.Spec{Kind: "dfcm", L1: 10, L2: 10}
	e := newEngine(b, bootSpec)
	if tuned {
		tn, err := New(Config{
			Engine:       e,
			Boot:         bootSpec,
			Candidates:   []core.Spec{{Kind: "dfcm", L1: 12, L2: 12}, {Kind: "stride", L1: 12}},
			MailboxDepth: 1024,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer tn.Close()
	}
	events := strideEvents(0x1000, 2048, 1, 3)
	if _, st := e.RunBatch(1, events); st != serve.StatusOK {
		b.Fatalf("warmup: %v", st)
	}
	b.SetBytes(int64(len(events) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st := e.RunBatch(1, events); st != serve.StatusOK {
			b.Fatal(st)
		}
	}
}

func BenchmarkServeAutotuneOn(b *testing.B)  { benchAutotune(b, true) }
func BenchmarkServeAutotuneOff(b *testing.B) { benchAutotune(b, false) }
