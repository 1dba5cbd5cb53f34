package serve

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// restoreSpec is a bigger configuration than testSpec so snapshot
// blobs exceed DefaultMaxFrame — the size class the oversized-frame
// tests need.
var restoreSpec = core.Spec{Kind: "dfcm", L1: 17, L2: 14}

// predictAll replays events through the engine in predict/update
// batches of the given size and returns every prediction, in order.
func predictAll(t *testing.T, e *Engine, session uint64, events trace.Trace, batch int) []uint32 {
	t.Helper()
	var out []uint32
	pcs := make([]uint32, 0, batch)
	for start := 0; start < len(events); start += batch {
		end := min(start+batch, len(events))
		chunk := events[start:end]
		pcs = pcs[:0]
		for _, ev := range chunk {
			pcs = append(pcs, ev.PC)
		}
		values, st := e.PredictBatch(session, pcs)
		if st != StatusOK {
			t.Fatalf("PredictBatch: %v", st)
		}
		out = append(out, values...)
		if st := e.UpdateBatch(session, chunk); st != StatusOK {
			t.Fatalf("UpdateBatch: %v", st)
		}
	}
	return out
}

// TestEngineRestoreSessionZeroLoss is the engine-level half of the
// migration acceptance criterion: train a session on engine A, move
// it to engine B via SnapshotSession → RestoreSession, and require
// the remaining predictions to be bit-identical to an unmigrated run
// on a single engine.
func TestEngineRestoreSessionZeroLoss(t *testing.T) {
	events := testEvents(0x4000, 6000)
	const session, batch = 77, 16
	half := len(events) / 2

	ref := newTestEngine(t, Config{Spec: testSpec, Shards: 2})
	defer ref.Close()
	wantFirst := predictAll(t, ref, session, events[:half], batch)
	wantRest := predictAll(t, ref, session, events[half:], batch)

	a := newTestEngine(t, Config{Spec: testSpec, Shards: 2})
	defer a.Close()
	b := newTestEngine(t, Config{Spec: testSpec, Shards: 2})
	defer b.Close()
	gotFirst := predictAll(t, a, session, events[:half], batch)
	blob, st := a.SnapshotSession(session)
	if st != StatusOK {
		t.Fatalf("SnapshotSession: %v", st)
	}
	if st := b.RestoreSession(session, blob); st != StatusOK {
		t.Fatalf("RestoreSession: %v", st)
	}
	gotRest := predictAll(t, b, session, events[half:], batch)

	for i := range wantFirst {
		if gotFirst[i] != wantFirst[i] {
			t.Fatalf("pre-migration prediction %d diverged: %d != %d", i, gotFirst[i], wantFirst[i])
		}
	}
	for i := range wantRest {
		if gotRest[i] != wantRest[i] {
			t.Fatalf("post-migration prediction %d diverged: %d != %d", i, gotRest[i], wantRest[i])
		}
	}

	// Lifetime counters moved with the state.
	stats := b.Snapshot()
	if stats.Predictions != uint64(len(events)) {
		t.Errorf("restored engine predictions = %d, want %d", stats.Predictions, len(events))
	}
	if stats.Restored != 1 {
		t.Errorf("restored counter = %d, want 1", stats.Restored)
	}
}

func TestEngineRestoreSessionStatuses(t *testing.T) {
	e := newTestEngine(t, Config{Spec: testSpec, Shards: 1})
	defer e.Close()
	events := testEvents(0x1000, 500)
	if _, st := e.RunBatch(5, events); st != StatusOK {
		t.Fatalf("seed RunBatch: %v", st)
	}
	blob, st := e.SnapshotSession(5)
	if st != StatusOK {
		t.Fatalf("SnapshotSession: %v", st)
	}

	// Undecodable bytes.
	if st := e.RestoreSession(6, []byte("not a snapshot")); st != StatusBadRequest {
		t.Errorf("garbage blob: %v, want bad-request", st)
	}
	if st := e.RestoreSession(6, nil); st != StatusBadRequest {
		t.Errorf("empty blob: %v, want bad-request", st)
	}

	// Meta session ID disagreeing with the addressed session.
	if st := e.RestoreSession(6, blob); st != StatusBadRequest {
		t.Errorf("session mismatch: %v, want bad-request", st)
	}

	// Spec mismatch: an engine running a different predictor refuses
	// the snapshot rather than loading it wrong.
	other := newTestEngine(t, Config{Spec: core.Spec{Kind: "fcm", L1: 10, L2: 10}, Shards: 1})
	defer other.Close()
	if st := other.RestoreSession(5, blob); st != StatusSpecMismatch {
		t.Errorf("foreign spec: %v, want spec-mismatch", st)
	}

	// Replace semantics: a live session is overwritten, and its state
	// afterwards equals the snapshot, not the overwritten session.
	if _, st := e.RunBatch(9, testEvents(0x9000, 300)); st != StatusOK {
		t.Fatalf("live session: %v", st)
	}
	blob5, _ := e.SnapshotSession(5)
	if st := e.RestoreSession(5, blob5); st != StatusOK {
		t.Errorf("restore over live session: %v, want ok", st)
	}
	stats := e.Snapshot()
	if stats.Sessions != 2 {
		t.Errorf("sessions after replace = %d, want 2", stats.Sessions)
	}
}

// TestEngineRestoreSessionAdoptsSpec: an engine that adopts snapshot
// specs (an autotuned backend) accepts a migrated session built under
// a spec other than its own, reports that spec as the session's
// override, and serves the suffix bit-identically to an unmigrated
// run under that spec. A non-adopting engine refuses the same blob.
func TestEngineRestoreSessionAdoptsSpec(t *testing.T) {
	events := testEvents(0x5000, 4000)
	const session, batch = 21, 16
	half := len(events) / 2
	tuned := core.Spec{Kind: "dfcm", L1: 12, L2: 11}

	ref := newTestEngine(t, Config{Spec: tuned, Shards: 1})
	predictAll(t, ref, session, events[:half], batch)
	want := predictAll(t, ref, session, events[half:], batch)

	src := newTestEngine(t, Config{Spec: tuned, Shards: 1})
	predictAll(t, src, session, events[:half], batch)
	blob, st := src.SnapshotSession(session)
	if st != StatusOK {
		t.Fatalf("SnapshotSession: %v", st)
	}

	strict := newTestEngine(t, Config{Spec: testSpec, Shards: 1})
	if st := strict.RestoreSession(session, blob); st != StatusSpecMismatch {
		t.Errorf("non-adopting engine: %v, want spec-mismatch", st)
	}

	dst := newTestEngine(t, Config{Spec: testSpec, Shards: 1, AdoptSnapshotSpecs: true})
	if st := dst.RestoreSession(session, blob); st != StatusOK {
		t.Fatalf("adopting engine: %v, want ok", st)
	}
	if ss := dst.Snapshot().SessionStats; len(ss) != 1 || ss[0].Spec == nil || *ss[0].Spec != tuned.Canonical() {
		t.Fatalf("adopted session stats %+v, want spec %+v", ss, tuned.Canonical())
	}
	got := predictAll(t, dst, session, events[half:], batch)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-migration prediction %d diverged: %d != %d", i, got[i], want[i])
		}
	}
}

// TestEngineRestoreSessionBoundsAdoptedSpec: an adopting engine takes
// the spec of a RestoreSession blob from the network, so the blob's
// state must bound the tables that spec builds. A 64-byte state
// claiming dfcm l1=l2=24 (about 256 MiB of tables) is a bad request,
// answered without building the tables.
func TestEngineRestoreSessionBoundsAdoptedSpec(t *testing.T) {
	const session = 31
	var buf bytes.Buffer
	hostile := &snapshot.Snapshot{
		Version: snapshot.Version,
		Spec:    core.Spec{Kind: "dfcm", L1: 24, L2: 24},
		Meta:    snapshot.Meta{Session: session},
		State:   make([]byte, 64),
	}
	if err := hostile.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{Spec: testSpec, Shards: 1, AdoptSnapshotSpecs: true})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := e.RestoreSession(session, buf.Bytes())
	runtime.ReadMemStats(&after)
	if st != StatusBadRequest {
		t.Fatalf("hostile adopted spec: %v, want bad-request", st)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejected restore allocated %d bytes", grew)
	}
	if n := e.Snapshot().Sessions; n != 0 {
		t.Errorf("sessions after rejected restore = %d, want 0", n)
	}
}

// TestServerRestoreSessionWire round-trips a migration over the
// protocol: snapshot from one server, restore into another, and the
// destination session continues exactly where the source left off.
func TestServerRestoreSessionWire(t *testing.T) {
	_, addrA := startServer(t, Config{Spec: testSpec, Shards: 2}, ServerConfig{})
	_, addrB := startServer(t, Config{Spec: testSpec, Shards: 2}, ServerConfig{})
	ca, err := Dial(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := Dial(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	events := testEvents(0x2000, 2000)
	half := len(events) / 2
	const session = 11

	// Ground truth: the whole trace on one engine.
	p, _ := testSpec.New()
	want := core.Run(p, events).Correct

	var hits uint64
	h, st, err := ca.RunBatch(session, events[:half])
	if err != nil || st != StatusOK {
		t.Fatalf("first half: %v %v", st, err)
	}
	hits += uint64(h)

	blob, st, err := ca.SnapshotSession(session)
	if err != nil || st != StatusOK {
		t.Fatalf("SnapshotSession: %v %v", st, err)
	}
	st, err = cb.RestoreSession(session, blob)
	if err != nil || st != StatusOK {
		t.Fatalf("RestoreSession: %v %v", st, err)
	}

	h, st, err = cb.RunBatch(session, events[half:])
	if err != nil || st != StatusOK {
		t.Fatalf("second half: %v %v", st, err)
	}
	hits += uint64(h)
	if hits != want {
		t.Errorf("migrated replay: %d hits, unmigrated %d", hits, want)
	}
}

// TestSnapshotFrameBeyondDefaultMax is the oversized-frame
// acceptance test: a SnapshotSession response (and the RestoreSession
// request that pushes the same bytes back) larger than DefaultMaxFrame
// but within MaxSnapshotFrame must round-trip over the wire.
func TestSnapshotFrameBeyondDefaultMax(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-megabyte snapshot round trip")
	}
	_, addr := startServer(t, Config{Spec: restoreSpec, Shards: 1}, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const session = 3
	if _, st, err := c.RunBatch(session, testEvents(0x1000, 100)); err != nil || st != StatusOK {
		t.Fatalf("seed: %v %v", st, err)
	}
	blob, st, err := c.SnapshotSession(session)
	if err != nil || st != StatusOK {
		t.Fatalf("SnapshotSession: %v %v", st, err)
	}
	if len(blob) <= DefaultMaxFrame {
		t.Fatalf("snapshot is %d bytes; the test needs one beyond DefaultMaxFrame (%d)", len(blob), DefaultMaxFrame)
	}
	// Pushing the blob back is a request frame beyond DefaultMaxFrame:
	// the server must accept it under the RestoreSession cap.
	if st, err := c.RestoreSession(session, blob); err != nil || st != StatusOK {
		t.Fatalf("RestoreSession with %d-byte blob: %v %v", len(blob), st, err)
	}
}

// TestOversizedFrameCleanStatus: a request frame declaring a payload
// beyond the server's MaxFrame — but within MaxSnapshotFrame — is
// answered StatusBadRequest on a connection that stays usable.
func TestOversizedFrameCleanStatus(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1}, ServerConfig{MaxFrame: 64})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 1 KiB of events: over the 64-byte cap, under MaxSnapshotFrame.
	big := make(trace.Trace, 128)
	for i := range big {
		big[i] = trace.Event{PC: uint32(i), Value: uint32(i)}
	}
	st, err := c.UpdateBatch(1, big)
	if err != nil {
		t.Fatalf("oversized frame dropped the connection: %v", err)
	}
	if st != StatusBadRequest {
		t.Errorf("oversized frame answered %v, want bad-request", st)
	}
	// The same connection still serves well-formed requests.
	if _, st, err := c.RunBatch(1, big[:4]); err != nil || st != StatusOK {
		t.Errorf("follow-up request: st=%v err=%v", st, err)
	}
}

func TestDialerRetriesTransientConnectErrors(t *testing.T) {
	// Reserve a loopback address, then close it so the first attempts
	// are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}

	// No retries: a dead backend fails immediately.
	if _, err := (Dialer{Timeout: time.Second}).Dial(addr); err == nil {
		t.Fatal("dial of a closed address succeeded without a listener")
	}

	// With retries: a listener that comes up while the dialer backs
	// off is found. The relisten races other tests for the port only
	// in theory (loopback, just released).
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port stolen; the dial below will fail and report
		}
		conn, err := ln2.Accept()
		if err == nil {
			_ = conn.Close()
		}
		_ = ln2.Close()
	}()
	d := Dialer{Timeout: time.Second, Retries: 8, Backoff: 40 * time.Millisecond}
	c, err := d.Dial(addr)
	if err != nil {
		t.Fatalf("dial with retries never reached the late listener: %v", err)
	}
	_ = c.Close()
}

func TestRequestSession(t *testing.T) {
	payload := appendU64(nil, 0xdeadbeef)
	for _, op := range []byte{OpPredictBatch, OpUpdateBatch, OpRunBatch, OpResetSession, OpSnapshotSession, OpRestoreSession} {
		if s, ok := RequestSession(op, payload); !ok || s != 0xdeadbeef {
			t.Errorf("op %#x: session %d ok=%v", op, s, ok)
		}
	}
	if _, ok := RequestSession(OpStats, nil); ok {
		t.Error("Stats carries no session but RequestSession said it does")
	}
	if _, ok := RequestSession(OpRunBatch, []byte{1, 2, 3}); ok {
		t.Error("short payload accepted")
	}
}
