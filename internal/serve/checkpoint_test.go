package serve

import (
	"bytes"
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// ckptEvents builds a deterministic mixed-pattern trace.
func ckptEvents(n int, seed uint32) trace.Trace {
	t := make(trace.Trace, 0, n)
	rnd := seed | 1
	for i := 0; len(t) < n; i++ {
		t = append(t,
			trace.Event{PC: 0x2000, Value: 7},
			trace.Event{PC: 0x2004, Value: uint32(i) * 12},
		)
		rnd ^= rnd << 13
		rnd ^= rnd >> 17
		rnd ^= rnd << 5
		t = append(t, trace.Event{PC: 0x2008, Value: rnd & 0xff})
	}
	return t[:n]
}

var ckptSpec = core.Spec{Kind: "dfcm", L1: 8, L2: 10}

// TestCheckpointDrainAndWarmStart is the core durability property:
// close an engine with live sessions, boot a fresh one over the same
// directory, and the restored sessions must predict exactly as if the
// restart never happened — and the engine stats must continue from the
// pre-restart totals.
func TestCheckpointDrainAndWarmStart(t *testing.T) {
	leakcheck.Check(t) // shard + checkpoint-loop goroutines must drain
	dir := t.TempDir()
	events := ckptEvents(4000, 99)
	const cut = 2500
	sessions := []uint64{1, 2, 77}

	e1, err := NewEngine(Config{Spec: ckptSpec, Shards: 3, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sessions {
		if _, st := e1.RunBatch(id, events[:cut]); st != StatusOK {
			t.Fatalf("warm RunBatch: %v", st)
		}
	}
	before := e1.Snapshot()
	e1.Close() // drain checkpoint

	files, err := filepath.Glob(filepath.Join(dir, "session-*.vps"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(sessions) {
		t.Fatalf("drain wrote %d files, want %d", len(files), len(sessions))
	}

	e2, err := NewEngine(Config{Spec: ckptSpec, Shards: 3, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	restored, skipped, err := e2.LoadCheckpoints()
	if err != nil || restored != len(sessions) || skipped != 0 {
		t.Fatalf("LoadCheckpoints = (%d, %d, %v), want (%d, 0, nil)", restored, skipped, err, len(sessions))
	}

	// Stats continuity: the warm-started engine reports the lifetime
	// totals the old one drained with.
	after := e2.Snapshot()
	if after.Predictions != before.Predictions || after.Hits != before.Hits || after.Updates != before.Updates {
		t.Fatalf("stats discontinuity: restored %+v, drained with %+v", after, before)
	}
	if after.Sessions != len(sessions) || after.Restored != uint64(len(sessions)) {
		t.Fatalf("restored engine reports %d sessions (%d restored)", after.Sessions, after.Restored)
	}

	// Prediction equivalence: the rest of the trace must score exactly
	// what an uninterrupted predictor scores.
	wantHits := uint32(0)
	p, err := ckptSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	core.Run(p, events[:cut])
	for _, ev := range events[cut:] {
		if p.Predict(ev.PC) == ev.Value {
			wantHits++
		}
		p.Update(ev.PC, ev.Value)
	}
	for _, id := range sessions {
		hits, st := e2.RunBatch(id, events[cut:])
		if st != StatusOK {
			t.Fatalf("session %d: %v", id, st)
		}
		if hits != wantHits {
			t.Errorf("session %d: %d hits after restart, uninterrupted run scores %d", id, hits, wantHits)
		}
	}
}

// TestCheckpointWarmStartTAGE re-runs the drain/warm-start equivalence
// for the tagged predictor, on a workload that keeps its tagged tables
// and global history hot — the restart only survives if the serialized
// ring and rebuilt folded registers are exact, not just the tables.
func TestCheckpointWarmStartTAGE(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	spec := core.Spec{Kind: "tage", L1: 7, L2: 6, Tables: 4, Tag: 8, HistMin: 4, HistMax: 64}
	// Alternating strides per PC: base-unpredictable, history-determined.
	events := make(trace.Trace, 4000)
	vals := [2]uint32{}
	strides := [][]uint32{{3, 17}, {9, 2, 25}}
	for i := range events {
		w := i % 2
		vals[w] += strides[w][(i/2)%len(strides[w])]
		events[i] = trace.Event{PC: 0x3000 + uint32(4*w), Value: vals[w]}
	}
	const cut = 2600

	e1, err := NewEngine(Config{Spec: spec, Shards: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, st := e1.RunBatch(5, events[:cut]); st != StatusOK {
		t.Fatalf("warm RunBatch: %v", st)
	}
	e1.Close()

	e2, err := NewEngine(Config{Spec: spec, Shards: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if restored, skipped, err := e2.LoadCheckpoints(); err != nil || restored != 1 || skipped != 0 {
		t.Fatalf("LoadCheckpoints = (%d, %d, %v)", restored, skipped, err)
	}

	p, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	core.Run(p, events[:cut])
	wantHits := uint32(0)
	for _, ev := range events[cut:] {
		if p.Predict(ev.PC) == ev.Value {
			wantHits++
		}
		p.Update(ev.PC, ev.Value)
	}
	hits, st := e2.RunBatch(5, events[cut:])
	if st != StatusOK {
		t.Fatalf("post-restart RunBatch: %v", st)
	}
	if hits != wantHits {
		t.Errorf("post-restart tail: %d hits, uninterrupted run scores %d", hits, wantHits)
	}
}

// TestSnapshotSessionOp exercises the wire-visible capture path: the
// blob must decode to the engine's spec, the session's counters, and a
// predictor equivalent to the live one.
func TestSnapshotSessionOp(t *testing.T) {
	e, err := NewEngine(Config{Spec: ckptSpec, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	events := ckptEvents(1500, 7)
	hits, st := e.RunBatch(5, events)
	if st != StatusOK {
		t.Fatal(st)
	}

	blob, st := e.SnapshotSession(5)
	if st != StatusOK {
		t.Fatalf("SnapshotSession: %v", st)
	}
	snap, err := snapshot.Decode(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Spec != ckptSpec {
		t.Errorf("snapshot spec %+v, want %+v", snap.Spec, ckptSpec)
	}
	want := snapshot.Meta{Session: 5, Predictions: uint64(len(events)), Hits: uint64(hits), Updates: uint64(len(events))}
	if snap.Meta != want {
		t.Errorf("snapshot meta %+v, want %+v", snap.Meta, want)
	}
	p, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	pcs := []uint32{0x2000, 0x2004, 0x2008}
	values, st := e.PredictBatch(5, pcs)
	if st != StatusOK {
		t.Fatal(st)
	}
	for i, pc := range pcs {
		if got := p.Predict(pc); got != values[i] {
			t.Errorf("restored Predict(%#x) = %d, live session predicts %d", pc, got, values[i])
		}
	}
}

// TestSnapshotSessionStatuses: a missing session answers
// StatusBadRequest, and the snapshot does not create it.
func TestSnapshotSessionStatuses(t *testing.T) {
	e, err := NewEngine(Config{Spec: ckptSpec, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, st := e.SnapshotSession(404); st != StatusBadRequest {
		t.Errorf("missing session: %v, want bad-request", st)
	}
	if n := e.Snapshot().Sessions; n != 0 {
		t.Errorf("SnapshotSession created %d sessions", n)
	}
}

// TestPeriodicCheckpointLoop: with an interval configured, snapshots
// appear on disk without any Close, and the sweep counter advances.
func TestPeriodicCheckpointLoop(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(Config{Spec: ckptSpec, Shards: 2, CheckpointDir: dir, CheckpointInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, st := e.RunBatch(9, ckptEvents(300, 3)); st != StatusOK {
		t.Fatal(st)
	}
	// The sweep writes the file before it counts itself, so wait for
	// both: a file alone can be seen mid-sweep.
	path := filepath.Join(dir, checkpointName(9))
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := os.Stat(path)
		if err == nil && e.Snapshot().Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no counted background checkpoint within 5s (file: %v, sweeps: %d)", err, e.Snapshot().Checkpoints)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := snapshot.ReadFile(path); err != nil {
		t.Errorf("background checkpoint unreadable: %v", err)
	}
}

// TestLoadCheckpointsSkips: corrupt files, foreign files, spec
// mismatches and snapshots filed under another session's name are
// skipped without failing the warm start, and a session that is
// already live is not clobbered by its disk copy.
func TestLoadCheckpointsSkips(t *testing.T) {
	dir := t.TempDir()

	// One good checkpoint, session 3.
	e1, err := NewEngine(Config{Spec: ckptSpec, Shards: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, st := e1.RunBatch(3, ckptEvents(500, 5)); st != StatusOK {
		t.Fatal(st)
	}
	e1.Close()

	// A spec-mismatched checkpoint, session 4.
	other := core.Spec{Kind: "lvp", L1: 6}
	p, err := other.New()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Capture(other, p, snapshot.Meta{Session: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteFile(filepath.Join(dir, checkpointName(4)), snap); err != nil {
		t.Fatal(err)
	}
	// A good snapshot of session 7 filed under session 6's name.
	p, err = ckptSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = snapshot.Capture(ckptSpec, p, snapshot.Meta{Session: 7}); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteFile(filepath.Join(dir, checkpointName(6)), snap); err != nil {
		t.Fatal(err)
	}
	// A corrupt file that parses as a checkpoint name, and a foreign
	// file that does not.
	if err := os.WriteFile(filepath.Join(dir, checkpointName(5)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(Config{Spec: ckptSpec, Shards: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// Make session 3 live before the load; the live one must win.
	if st := e2.ResetSession(3); st != StatusOK {
		t.Fatal(st)
	}
	restored, skipped, err := e2.LoadCheckpoints()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 || skipped != 4 { // live-3, mismatched-4, corrupt-5, misfiled-6
		t.Errorf("LoadCheckpoints = (%d, %d), want (0, 4)", restored, skipped)
	}
	if n := e2.Snapshot().Sessions; n != 1 {
		t.Errorf("engine holds %d sessions, want 1", n)
	}
}

// TestSnapshotSessionOverWire drives the op end-to-end through Server
// and Client framing, including a response larger than the request
// frame bound.
func TestSnapshotSessionOverWire(t *testing.T) {
	e, err := NewEngine(Config{Spec: ckptSpec, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e, ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln)
		close(done)
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, st, err := c.RunBatch(11, ckptEvents(800, 11)); err != nil || st != StatusOK {
		t.Fatalf("RunBatch: %v %v", st, err)
	}
	blob, st, err := c.SnapshotSession(11)
	if err != nil || st != StatusOK {
		t.Fatalf("SnapshotSession: %v %v", st, err)
	}
	// A dfcm 2^8/2^10 state is several KB — check it actually decodes.
	snap, err := snapshot.Decode(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Session != 11 {
		t.Errorf("snapshot names session %d", snap.Meta.Session)
	}
	if _, st, err := c.SnapshotSession(404); err != nil || st != StatusBadRequest {
		t.Errorf("missing session over wire: %v %v", st, err)
	}
}

// oldHybridState writes, by hand, the state layout the hybrid kind had
// when it built the perfect-meta oracle: one length-prefixed nested
// block per component (stride, then FCM), each trained on events.
func oldHybridState(spec core.Spec, events trace.Trace) []byte {
	var b []byte
	for _, c := range []core.Snapshotter{core.NewStride(spec.L1), core.NewFCM(spec.L1, spec.L2)} {
		core.Run(c, events)
		st := c.AppendState(nil)
		b = binary.BigEndian.AppendUint32(b, uint32(len(st)))
		b = append(b, st...)
	}
	return b
}

// TestOldHybridSnapshotRefused: a hybrid snapshot in the old oracle
// layout is refused, never misread — StatusBadRequest over
// RestoreSession, skipped and counted at boot. The current layout
// leads with the 2^L1 chooser counters, so an old blob is always
// exactly that many bytes short and fails the exact-length checks.
func TestOldHybridSnapshotRefused(t *testing.T) {
	events := ckptEvents(600, 11)
	for _, geo := range [][2]uint{{0, 1}, {3, 4}, {8, 10}, {10, 8}} {
		spec := core.Spec{Kind: "hybrid", L1: geo[0], L2: geo[1]}
		fresh, err := spec.New()
		if err != nil {
			t.Fatal(err)
		}
		old := oldHybridState(spec, events)
		if short := len(fresh.(core.Snapshotter).AppendState(nil)) - len(old); short != 1<<spec.L1 {
			t.Errorf("%+v: old layout is %d bytes short, want %d", spec, short, 1<<spec.L1)
		}
		snap := &snapshot.Snapshot{Version: snapshot.Version, Spec: spec, Meta: snapshot.Meta{Session: 5}, State: old}

		var blob bytes.Buffer
		if err := snap.Encode(&blob); err != nil {
			t.Fatal(err)
		}
		e := newTestEngine(t, Config{Spec: spec, Shards: 1})
		if st := e.RestoreSession(5, blob.Bytes()); st != StatusBadRequest {
			t.Errorf("%+v: RestoreSession of an old-layout blob: %v, want %v", spec, st, StatusBadRequest)
		}

		dir := t.TempDir()
		if err := snapshot.WriteFile(filepath.Join(dir, checkpointName(5)), snap); err != nil {
			t.Fatal(err)
		}
		boot := newTestEngine(t, Config{Spec: spec, Shards: 1, CheckpointDir: dir})
		restored, skipped, err := boot.LoadCheckpoints()
		if err != nil || restored != 0 || skipped != 1 {
			t.Errorf("%+v: LoadCheckpoints = (%d, %d, %v), want (0, 1, nil)", spec, restored, skipped, err)
		}
		if n := boot.Snapshot().Sessions; n != 0 {
			t.Errorf("%+v: %d sessions after refusing the only checkpoint", spec, n)
		}
	}
}
