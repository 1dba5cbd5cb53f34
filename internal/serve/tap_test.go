package serve

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// recordingTap copies every mirrored batch. Safe here because tests
// drive one session synchronously; a real tap must be lock-free.
type recordingTap struct {
	sessions []uint64
	seqs     []uint64
	batches  []trace.Trace
}

func (r *recordingTap) Mirror(session, seq uint64, events []trace.Event) {
	r.sessions = append(r.sessions, session)
	r.seqs = append(r.seqs, seq)
	r.batches = append(r.batches, append(trace.Trace(nil), events...))
}

// TestTapMirrorsTrainingTraffic: every UpdateBatch and RunBatch is
// mirrored with the session's pre-batch lifetime update count as seq,
// and the concatenated mirror reproduces the input stream exactly.
func TestTapMirrorsTrainingTraffic(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 2})
	tap := &recordingTap{}
	e.SetTap(tap)
	events := testEvents(0x4000, 900)
	var want trace.Trace
	for start := 0; start < len(events); start += 100 {
		chunk := events[start : start+100]
		want = append(want, chunk...)
		if start%200 == 0 {
			if st := e.UpdateBatch(7, chunk); st != StatusOK {
				t.Fatalf("UpdateBatch: %v", st)
			}
		} else {
			if _, st := e.RunBatch(7, chunk); st != StatusOK {
				t.Fatalf("RunBatch: %v", st)
			}
		}
	}
	var got trace.Trace
	var seq uint64
	for i, b := range tap.batches {
		if tap.sessions[i] != 7 {
			t.Fatalf("batch %d mirrored for session %d", i, tap.sessions[i])
		}
		if tap.seqs[i] != seq {
			t.Fatalf("batch %d: seq %d, want %d", i, tap.seqs[i], seq)
		}
		seq += uint64(len(b))
		got = append(got, b...)
	}
	if len(got) != len(want) {
		t.Fatalf("mirrored %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: mirrored %+v, want %+v", i, got[i], want[i])
		}
	}
	// PredictBatch is lookup-only traffic and must not be mirrored.
	n := len(tap.batches)
	if _, st := e.PredictBatch(7, []uint32{0x4000}); st != StatusOK {
		t.Fatal("PredictBatch failed")
	}
	if len(tap.batches) != n {
		t.Error("PredictBatch was mirrored")
	}
	// Removing the tap stops the mirror.
	e.SetTap(nil)
	if _, st := e.RunBatch(7, events[:10]); st != StatusOK {
		t.Fatal("RunBatch failed")
	}
	if len(tap.batches) != n {
		t.Error("mirror survived SetTap(nil)")
	}
}

// TestSessionStats: lifetime and windowed per-session counters surface
// through Snapshot, sorted by session ID, and the windowed view covers
// one-to-two windows of judged traffic.
func TestSessionStats(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 3, StatsWindow: 100})
	events := testEvents(0x5000, 450)
	for _, id := range []uint64{9, 2, 31} {
		runThroughEngine(t, e, id, events, 50)
	}
	if _, st := e.PredictBatch(2, []uint32{1, 2, 3}); st != StatusOK {
		t.Fatal("PredictBatch failed")
	}
	st := e.Snapshot()
	if len(st.SessionStats) != 3 {
		t.Fatalf("got %d session stats, want 3", len(st.SessionStats))
	}
	wantHits := offlineHits(t, testSpec, events)
	for i, id := range []uint64{2, 9, 31} {
		ss := st.SessionStats[i]
		if ss.Session != id {
			t.Fatalf("entry %d: session %d, want %d (sorted)", i, ss.Session, id)
		}
		if ss.Lookups != 450 || ss.Hits != wantHits {
			t.Errorf("session %d: lookups=%d hits=%d, want 450/%d", id, ss.Lookups, ss.Hits, wantHits)
		}
		if ss.HitRate != float64(ss.Hits)/450 {
			t.Errorf("session %d: hit rate %v", id, ss.HitRate)
		}
		// 450 judged lookups through a 100-window: the last rotation
		// happened at 400, so the window holds prev (100) + cur (50).
		if ss.WindowLookups != 150 {
			t.Errorf("session %d: window lookups %d, want 150", id, ss.WindowLookups)
		}
		if ss.WindowHits > ss.WindowLookups {
			t.Errorf("session %d: window hits %d > lookups %d", id, ss.WindowHits, ss.WindowLookups)
		}
		if ss.Swaps != 0 || ss.Spec != nil {
			t.Errorf("session %d: unexpected swap state %d/%v", id, ss.Swaps, ss.Spec)
		}
		wantPreds := uint64(450)
		if id == 2 {
			wantPreds += 3
		}
		if ss.Predictions != wantPreds {
			t.Errorf("session %d: predictions %d, want %d", id, ss.Predictions, wantPreds)
		}
	}
}

// TestSwapSession: the swap installs the replacement predictor
// atomically with respect to traffic, preserves lifetime counters,
// resets the window, and surfaces through stats. The post-swap session
// must serve bit-identically to the replacement predictor itself.
func TestSwapSession(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 2, StatsWindow: 1 << 20})
	events := testEvents(0x6000, 2000)
	const cut = 1200
	if _, st := e.RunBatch(5, events[:cut]); st != StatusOK {
		t.Fatal("pre-swap RunBatch failed")
	}
	pre := e.Snapshot().SessionStats[0]

	// Build the replacement: a different spec, pre-trained on the same
	// prefix (the autotuner's shadow would have done this training).
	swapSpec := core.Spec{Kind: "dfcm", L1: 12, L2: 12}
	shadow, err := swapSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	core.Run(shadow, events[:cut])
	ref, err := swapSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	refPrefix := core.Run(ref, events[:cut])

	if st := e.SwapSession(5, swapSpec, shadow); st != StatusOK {
		t.Fatalf("SwapSession: %v", st)
	}
	// Post-swap traffic is served by the swapped predictor: hits over
	// the suffix must equal the reference predictor's suffix hits.
	gotSuffix := runThroughEngine(t, e, 5, events[cut:], 97)
	wantSuffix := core.Run(ref, events[cut:]).Correct
	if gotSuffix != wantSuffix {
		t.Errorf("post-swap hits %d, want %d", gotSuffix, wantSuffix)
	}

	st := e.Snapshot()
	if st.Swaps != 1 {
		t.Errorf("engine swaps %d, want 1", st.Swaps)
	}
	ss := st.SessionStats[0]
	if ss.Swaps != 1 {
		t.Errorf("session swaps %d, want 1", ss.Swaps)
	}
	if ss.Spec == nil || *ss.Spec != swapSpec.Canonical() {
		t.Errorf("session spec %+v, want %+v", ss.Spec, swapSpec.Canonical())
	}
	// Lifetime counters are continuous across the swap...
	if ss.Lookups != pre.Lookups+uint64(len(events)-cut) {
		t.Errorf("lifetime lookups %d, want %d", ss.Lookups, pre.Lookups+uint64(len(events)-cut))
	}
	if ss.Hits != pre.Hits+wantSuffix {
		t.Errorf("lifetime hits %d, want %d", ss.Hits, pre.Hits+wantSuffix)
	}
	// ...but the window restarted at the swap: it now judges only the
	// new predictor's traffic.
	if ss.WindowLookups != uint64(len(events)-cut) {
		t.Errorf("window lookups %d, want %d (reset at swap)", ss.WindowLookups, len(events)-cut)
	}
	if ss.WindowHits != wantSuffix {
		t.Errorf("window hits %d, want %d", ss.WindowHits, wantSuffix)
	}
	_ = refPrefix
}

// TestSwapSessionStatuses: a swap never creates a session and rejects
// nil, unservable (not a core.Snapshotter) or spec-less replacements.
func TestSwapSessionStatuses(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1})
	p, err := testSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	if st := e.SwapSession(404, testSpec, p); st != StatusBadRequest {
		t.Errorf("swap of missing session: %v, want StatusBadRequest", st)
	}
	if e.Snapshot().Sessions != 0 {
		t.Error("swap created a session")
	}
	if _, st := e.RunBatch(1, testEvents(0x100, 10)); st != StatusOK {
		t.Fatal("RunBatch failed")
	}
	if st := e.SwapSession(1, testSpec, nil); st != StatusBadRequest {
		t.Errorf("nil predictor: %v, want StatusBadRequest", st)
	}
	if st := e.SwapSession(1, testSpec, core.NewLastN(8, 2)); st != StatusBadRequest {
		t.Errorf("offline-only predictor: %v, want StatusBadRequest", st)
	}
	if st := e.SwapSession(1, core.Spec{}, p); st != StatusBadRequest {
		t.Errorf("empty spec: %v, want StatusBadRequest", st)
	}
}

// TestResetKeepsSwappedSpec: resetting a swapped session clears its
// learned state but stays within the swapped configuration.
func TestResetKeepsSwappedSpec(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1})
	events := testEvents(0x7000, 500)
	if _, st := e.RunBatch(3, events); st != StatusOK {
		t.Fatal("RunBatch failed")
	}
	swapSpec := core.Spec{Kind: "dfcm", L1: 12, L2: 12}
	p, err := swapSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	if st := e.SwapSession(3, swapSpec, p); st != StatusOK {
		t.Fatal("SwapSession failed")
	}
	if st := e.ResetSession(3); st != StatusOK {
		t.Fatal("ResetSession failed")
	}
	// A fresh predictor of the swapped spec is the ground truth.
	ref, err := swapSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Run(ref, events).Correct
	if got := runThroughEngine(t, e, 3, events, 500); got != want {
		t.Errorf("post-reset hits %d, want %d (swapped spec)", got, want)
	}
	if ss := e.Snapshot().SessionStats[0]; ss.Spec == nil || *ss.Spec != swapSpec.Canonical() {
		t.Errorf("reset dropped the spec override: %+v", ss.Spec)
	}
}

// TestCheckpointRecordsSwappedSpec: a checkpoint taken after a swap
// describes the session under its swapped spec, an AdoptSnapshotSpecs
// warm start rebuilds it bit-identically under that spec, and a
// default (non-adopting) boot skips it.
func TestCheckpointRecordsSwappedSpec(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	events := testEvents(0x8000, 3000)
	const cut = 2000
	bootSpec := core.Spec{Kind: "dfcm", L1: 10, L2: 10}
	swapSpec := core.Spec{Kind: "dfcm", L1: 12, L2: 12}

	e1, err := NewEngine(Config{Spec: bootSpec, Shards: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, st := e1.RunBatch(11, events[:cut]); st != StatusOK {
		t.Fatal("RunBatch failed")
	}
	shadow, err := swapSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	core.Run(shadow, events[:cut])
	if st := e1.SwapSession(11, swapSpec, shadow); st != StatusOK {
		t.Fatal("SwapSession failed")
	}
	e1.Close() // drain checkpoint captures the swapped session

	// The on-disk snapshot must carry the swapped spec.
	f, err := os.Open(filepath.Join(dir, checkpointName(11)))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Spec.Canonical() != swapSpec.Canonical() {
		t.Fatalf("checkpoint spec %+v, want swapped %+v", snap.Spec, swapSpec.Canonical())
	}

	// Default boot: mismatched spec → skipped (deliberate cold start).
	e2, err := NewEngine(Config{Spec: bootSpec, Shards: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	restored, skipped, err := e2.LoadCheckpoints()
	if err != nil || restored != 0 || skipped != 1 {
		t.Fatalf("default boot: restored=%d skipped=%d err=%v, want 0/1/nil", restored, skipped, err)
	}
	e2.cfg.CheckpointDir = "" // don't overwrite the checkpoint on Close
	e2.Close()

	// Adopting boot: the session comes back under its swapped spec and
	// serves the suffix bit-identically to the reference predictor
	// trained on the prefix.
	e3, err := NewEngine(Config{Spec: bootSpec, Shards: 2, CheckpointDir: dir, AdoptSnapshotSpecs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	restored, skipped, err = e3.LoadCheckpoints()
	if err != nil || restored != 1 || skipped != 0 {
		t.Fatalf("adopting boot: restored=%d skipped=%d err=%v, want 1/0/nil", restored, skipped, err)
	}
	ref, err := swapSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	core.Run(ref, events[:cut])
	want := core.Run(ref, events[cut:]).Correct
	if got := runThroughEngine(t, e3, 11, events[cut:], 250); got != want {
		t.Errorf("adopted session suffix hits %d, want %d", got, want)
	}
	if ss := e3.Snapshot().SessionStats[0]; ss.Spec == nil || *ss.Spec != swapSpec.Canonical() {
		t.Errorf("adopted session spec %+v, want %+v", ss.Spec, swapSpec.Canonical())
	}
}
