package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/serve"
	"repro/internal/trace"
)

// mainArgsEnv carries the command line when the test binary is
// re-executed to run main (see runMain).
const mainArgsEnv = "VPSERVE_MAIN_ARGS"

// TestMain runs the command's main instead of the tests when runMain
// re-executes the test binary, so a test can drive the real process:
// flag parsing, listeners, signal handling and the drain.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"vpserve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain starts main in a child process with args and returns the
// address its VP1 listener logged, plus a stop function that sends
// SIGTERM and returns the rest of the child's log once it exits. stop
// fails the test if the child is still running 10 s after the signal
// or exits non-zero.
func runMain(t *testing.T, args string) (addr string, stop func() string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(stderr)
	for addr == "" {
		line, err := br.ReadString('\n')
		if err != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("vpserve exited before serving: %v", err)
		}
		if _, rest, ok := strings.Cut(line, "vpserve: serving "); ok {
			_, addr, _ = strings.Cut(strings.TrimSpace(rest), " on ")
		}
	}
	return addr, func() string {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		type exit struct {
			log string
			err error
		}
		done := make(chan exit, 1)
		go func() {
			rest, _ := io.ReadAll(br)
			done <- exit{string(rest), cmd.Wait()}
		}()
		select {
		case e := <-done:
			if e.err != nil {
				t.Fatalf("vpserve exited with %v after SIGTERM; log:\n%s", e.err, e.log)
			}
			return e.log
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			e := <-done
			t.Fatalf("vpserve still running 10s after SIGTERM; log:\n%s", e.log)
			return ""
		}
	}
}

func optionsFromArgs(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("vpserve", flag.ContinueOnError)
	o := parseFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestSharedFlags: vpserve's predictor flags are core.Spec's (the set
// cmd/vpredict declares) and its connection flags serve.ServerConfig's
// (the set cmd/vprouter declares), name for name, default for default.
func TestSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("vpserve", flag.ContinueOnError)
	parseFlags(fs)
	ref := flag.NewFlagSet("shared", flag.ContinueOnError)
	new(core.Spec).RegisterFlags(ref)
	new(serve.ServerConfig).RegisterFlags(ref)
	ref.VisitAll(func(want *flag.Flag) {
		if got := fs.Lookup(want.Name); got == nil || got.DefValue != want.DefValue || got.Usage != want.Usage {
			t.Errorf("-%s: vpserve declares %+v, shared %+v", want.Name, got, want)
		}
	})
}

func TestNewServerRejectsBadSpec(t *testing.T) {
	for _, args := range [][]string{
		{"-predictor", "oracle"},
		{"-predictor", "dfcm", "-l1", "60"},
		{"-predictor", "dfcm", "-width", "99"},
	} {
		if _, _, err := newServer(optionsFromArgs(t, args...)); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestServerBootAndServe(t *testing.T) {
	o := optionsFromArgs(t, "-predictor", "dfcm", "-l1", "10", "-l2", "10", "-shards", "2")
	srv, tuner, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	if tuner != nil {
		t.Fatal("tuner built without -autotune")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hits, st, err := c.RunBatch(1, trace.Trace{{PC: 0x40, Value: 0}, {PC: 0x40, Value: 0}})
	if err != nil || st != serve.StatusOK {
		t.Fatalf("RunBatch: %v %v", st, err)
	}
	if hits != 2 { // zero-initialized DFCM predicts 0 for the zero history
		t.Errorf("hits = %d, want 2", hits)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Predictor != "dfcm-2^10/2^10" || stats.Shards != 2 {
		t.Errorf("stats: %+v", stats)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c.Close()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// bootServer builds a server from flags and serves it on a loopback
// listener; the returned shutdown func drains it gracefully (closing
// the tuner first and taking the drain checkpoint when either is
// configured). The returned server and tuner let tests reach the
// engine and tuner status directly.
func bootServer(t *testing.T, args ...string) (addr string, srv *serve.Server, tuner *autotune.Tuner, shutdown func()) {
	t.Helper()
	srv, tuner, err := newServer(optionsFromArgs(t, args...))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln)
		close(done)
	}()
	return ln.Addr().String(), srv, tuner, func() {
		if tuner != nil {
			tuner.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	}
}

// restartEvents is a deterministic mixed trace: constant, stride and a
// pseudo-random low-entropy stream.
func restartEvents(n int) trace.Trace {
	tr := make(trace.Trace, 0, n)
	rnd := uint32(88172645)
	for i := 0; len(tr) < n; i++ {
		tr = append(tr,
			trace.Event{PC: 0x400, Value: 3},
			trace.Event{PC: 0x404, Value: uint32(i) * 24},
		)
		rnd ^= rnd << 13
		rnd ^= rnd >> 17
		rnd ^= rnd << 5
		tr = append(tr, trace.Event{PC: 0x408, Value: rnd & 0x3f})
	}
	return tr[:n]
}

// TestCheckpointRestart is the end-to-end durability smoke: boot with
// -checkpoint-dir, warm a session over the wire, drain (which
// checkpoints), boot a second server over the same directory, and the
// warm-started session must carry its stats forward and score the rest
// of the trace exactly like an uninterrupted offline run — no
// cold-start accuracy loss across the restart.
func TestCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-predictor", "dfcm", "-l1", "8", "-l2", "10", "-shards", "2",
		"-checkpoint-dir", dir, "-checkpoint-interval", "0"}
	events := restartEvents(4000)
	const cut = 2600
	const sessionID = 42

	addr, _, _, shutdown := bootServer(t, args...)
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	warmHits, st, err := c.RunBatch(sessionID, events[:cut])
	if err != nil || st != serve.StatusOK {
		t.Fatalf("warm RunBatch: %v %v", st, err)
	}
	c.Close()
	shutdown() // drain checkpoint

	addr, _, _, shutdown = bootServer(t, args...)
	defer shutdown()
	c, err = serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Stats continuity: the rebooted server already reports the
	// pre-restart session and its lifetime counters.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 1 || stats.Restored != 1 {
		t.Fatalf("rebooted server reports %d sessions (%d restored)", stats.Sessions, stats.Restored)
	}
	if stats.Predictions != cut || stats.Hits != uint64(warmHits) {
		t.Fatalf("stats discontinuity: %d predictions / %d hits, drained with %d / %d",
			stats.Predictions, stats.Hits, cut, warmHits)
	}

	// Accuracy equivalence: replay the tail and compare against one
	// uninterrupted offline run of the same spec.
	gotHits, st, err := c.RunBatch(sessionID, events[cut:])
	if err != nil || st != serve.StatusOK {
		t.Fatalf("post-restart RunBatch: %v %v", st, err)
	}
	spec := core.Spec{Kind: "dfcm", L1: 8, L2: 10}
	p, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	wantWarm := uint32(0)
	for _, ev := range events[:cut] {
		if p.Predict(ev.PC) == ev.Value {
			wantWarm++
		}
		p.Update(ev.PC, ev.Value)
	}
	wantTail := uint32(0)
	for _, ev := range events[cut:] {
		if p.Predict(ev.PC) == ev.Value {
			wantTail++
		}
		p.Update(ev.PC, ev.Value)
	}
	if warmHits != wantWarm {
		t.Errorf("warm phase: served %d hits, offline %d", warmHits, wantWarm)
	}
	if gotHits != wantTail {
		t.Errorf("post-restart tail: served %d hits, offline run scores %d — restart lost accuracy", gotHits, wantTail)
	}
}

// TestAutotuneSwapSmoke is the end-to-end autotuning smoke (CI runs it
// under -race): boot with -autotune and a candidate set whose best
// member beats the boot spec on the driven workload, stream traffic
// over the wire, and require at least one hot-swap, a live /autotune
// admin endpoint, and a clean drain with no leaked goroutines.
func TestAutotuneSwapSmoke(t *testing.T) {
	leakcheck.Check(t)
	// Boot a last-value predictor against a strided workload it can
	// never predict; the DFCM candidate wins decisively. The tage
	// candidate (full colon geometry: width:delay:tables:tag:hmin:hmax)
	// rides along to prove the tagged kind is shadow-scorable.
	addr, srv, tuner, shutdown := bootServer(t,
		"-predictor", "lvp", "-l1", "4", "-shards", "2",
		"-autotune", "-autotune-candidates", "dfcm:8:8,stride:8,tage:8:6:32:0:4:8:4:32",
		"-autotune-window", "128")
	defer shutdown()
	if tuner == nil {
		t.Fatal("-autotune built no tuner")
	}

	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events := make(trace.Trace, 12000)
	v := uint32(5)
	for i := range events {
		events[i] = trace.Event{PC: 0x700, Value: v}
		v += 9
	}
	const sessionID = 17
	for start := 0; start < len(events); start += 200 {
		if _, st, err := c.RunBatch(sessionID, events[start:start+200]); err != nil || st != serve.StatusOK {
			t.Fatalf("RunBatch at %d: %v %v", start, st, err)
		}
	}
	tuner.Sync()

	ts := tuner.Status()
	if ts.Swaps < 1 {
		t.Fatalf("no swap after %d mirrored events (status %+v)", ts.MirroredEvents, ts)
	}
	// The tage candidate must be score-eligible: present in the
	// session's shadow set with judged lookups and a nonzero size (so
	// both objectives can rank it), even if it did not win this race.
	tageScored := false
	for _, ss := range ts.PerSession {
		for _, sh := range ss.Shadows {
			if sh.Spec.Kind == "tage" && sh.WindowLookups > 0 && sh.SizeBits > 0 {
				tageScored = true
			}
		}
	}
	if !tageScored {
		t.Fatalf("tage candidate never became score-eligible: %+v", ts.PerSession)
	}
	// The engine agrees, through the wire stats op.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Swaps != ts.Swaps {
		t.Errorf("engine reports %d swaps, tuner %d", stats.Swaps, ts.Swaps)
	}
	var swapped *serve.SessionStat
	for i := range stats.SessionStats {
		if stats.SessionStats[i].Session == sessionID {
			swapped = &stats.SessionStats[i]
		}
	}
	if swapped == nil || swapped.Swaps < 1 || swapped.Spec == nil {
		t.Fatalf("session stats show no swap: %+v", stats.SessionStats)
	}

	// The admin endpoint serves the tuner status as JSON.
	rec := httptest.NewRecorder()
	newStatsMux(srv, tuner).ServeHTTP(rec, httptest.NewRequest("GET", "/autotune", nil))
	if rec.Code != 200 {
		t.Fatalf("/autotune: HTTP %d", rec.Code)
	}
	var hs autotune.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &hs); err != nil {
		t.Fatalf("/autotune body: %v", err)
	}
	if hs.Swaps != ts.Swaps || hs.Sessions < 1 {
		t.Errorf("/autotune reports %+v, tuner says %+v", hs, ts)
	}
}

// TestAutotuneFlagValidation: -autotune without parseable candidates
// must fail at boot, not at the first session.
func TestAutotuneFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-autotune"},
		{"-autotune", "-autotune-candidates", "dfcm:99:10"},
		{"-autotune", "-autotune-candidates", "dfcm:8:8", "-autotune-objective", "speed"},
	} {
		if _, tn, err := newServer(optionsFromArgs(t, args...)); err == nil {
			tn.Close()
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestMainShutsDownOnSignal runs the real vpserve process with its
// stats listener and the tuner on, serves a request, and sends
// SIGTERM: main must close the tuner, drain the server, close the
// stats listener, join its goroutine and log its final stats line,
// then exit cleanly. A goroutine main cannot join hangs the drain and
// fails the test.
func TestMainShutsDownOnSignal(t *testing.T) {
	addr, stop := runMain(t, "-addr 127.0.0.1:0 -http 127.0.0.1:0 -predictor dfcm -l1 10 -l2 10 "+
		"-autotune -autotune-candidates stride:8")
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := c.RunBatch(1, restartEvents(64))
	c.Close() // the drain waits for open connections
	if err != nil || st != serve.StatusOK {
		t.Fatalf("RunBatch: %v %v", st, err)
	}
	if log := stop(); !strings.Contains(log, "vpserve: served ") {
		t.Errorf("shutdown log lacks the final stats line:\n%s", log)
	}
}
