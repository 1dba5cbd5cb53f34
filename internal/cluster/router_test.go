package cluster

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// clusterSpec matches the serve engine tests: the paper's DFCM at
// small table sizes, cheap enough to run many backends in-process.
var clusterSpec = core.Spec{Kind: "dfcm", L1: 10, L2: 10}

func clusterEvents(basePC uint32, n int) trace.Trace {
	body := workload.LoopBody(basePC, 2, 6, 4, 2)
	return trace.Collect(workload.Interleave(body, (n+13)/14), n)
}

func offlineHits(tb testing.TB, events trace.Trace) uint64 {
	tb.Helper()
	p, err := clusterSpec.New()
	if err != nil {
		tb.Fatal(err)
	}
	return core.Run(p, events).Correct
}

// startBackend runs one vpserve (engine + server) on a loopback
// listener and returns its address. Cleanup closes everything.
func startBackend(tb testing.TB) string {
	_, addr := startBackendEngine(tb)
	return addr
}

// startBackendEngine is startBackend also returning the backend's
// engine, for tests that act on it directly.
func startBackendEngine(tb testing.TB) (*serve.Engine, string) {
	tb.Helper()
	e, err := serve.NewEngine(serve.Config{Spec: clusterSpec, Shards: 2})
	if err != nil {
		tb.Fatal(err)
	}
	srv := serve.NewServer(e, serve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	tb.Cleanup(func() {
		srv.Close()
		<-done
	})
	return e, ln.Addr().String()
}

// startRouter serves cfg's router on a loopback listener and returns
// it with its address. Cleanup closes it.
func startRouter(tb testing.TB, cfg Config) (*Router, string) {
	tb.Helper()
	r, err := NewRouter(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_ = r.Serve(ln)
		close(done)
	}()
	tb.Cleanup(func() {
		r.Close()
		<-done
	})
	return r, ln.Addr().String()
}

func dialRouter(tb testing.TB, addr string) *serve.Client {
	tb.Helper()
	c, err := serve.Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	return c
}

// predictThrough replays events in predict/update batches through a
// VP1 client (pointed at a router or a backend) and returns every
// prediction, in order.
func predictThrough(tb testing.TB, c *serve.Client, session uint64, events trace.Trace, batch int) []uint32 {
	tb.Helper()
	var out []uint32
	pcs := make([]uint32, 0, batch)
	for start := 0; start < len(events); start += batch {
		end := min(start+batch, len(events))
		chunk := events[start:end]
		pcs = pcs[:0]
		for _, ev := range chunk {
			pcs = append(pcs, ev.PC)
		}
		values, st, err := c.PredictBatch(session, pcs)
		if err != nil || st != serve.StatusOK {
			tb.Fatalf("PredictBatch: %v %v", st, err)
		}
		out = append(out, values...)
		if st, err := c.UpdateBatch(session, chunk); err != nil || st != serve.StatusOK {
			tb.Fatalf("UpdateBatch: %v %v", st, err)
		}
	}
	return out
}

// TestRouterMigrationZeroLoss is the acceptance criterion: drive a
// session through the router, force a live migration to the other
// backend mid-trace, and require the full prediction sequence to be
// bit-identical to an unmigrated run against a single backend with
// identical batching.
func TestRouterMigrationZeroLoss(t *testing.T) {
	// The cleanup closes backends and router; nothing they spawned —
	// health checker, connection handlers, pool dials — may survive.
	leakcheck.Check(t)
	const session, batch = 7, 16
	events := clusterEvents(0x4000, 4000)
	half := len(events) / 2

	// Unmigrated reference: one backend, no router.
	refAddr := startBackend(t)
	want := predictThrough(t, dialRouter(t, refAddr), session, events, batch)

	b1, b2 := startBackend(t), startBackend(t)
	r, raddr := startRouter(t, Config{Backends: []string{b1, b2}})
	c := dialRouter(t, raddr)

	got := predictThrough(t, c, session, events[:half], batch)

	from, ok := r.location(session)
	if !ok {
		t.Fatal("session has no location after traffic")
	}
	to := b1
	if from == b1 {
		to = b2
	}
	if err := r.MigrateSession(session, to); err != nil {
		t.Fatalf("MigrateSession: %v", err)
	}
	if now, _ := r.location(session); now != to {
		t.Fatalf("after migration session lives on %s, want %s", now, to)
	}

	got = append(got, predictThrough(t, c, session, events[half:], batch)...)
	if len(got) != len(want) {
		t.Fatalf("prediction count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d diverged after migration: got %#x want %#x", i, got[i], want[i])
		}
	}

	st := r.Stats()
	if st.Migrations != 1 {
		t.Errorf("router reports %d migrations, want 1", st.Migrations)
	}
	// Migrating back home again is also loss-free and unpins.
	if err := r.MigrateSession(session, from); err != nil {
		t.Fatalf("migrate back: %v", err)
	}
	if err := r.MigrateSession(session, from); err != nil {
		t.Fatalf("no-op migrate to current home: %v", err)
	}
}

// TestRouterMigrateUnderLoad: sessions stream RunBatch frames on their
// own connections while another goroutine keeps migrating them between
// the two backends. Each session's hits must still match the offline
// ground truth: migration is zero-loss under concurrent traffic. Under
// -race it also checks the router's locking, since forwards read the
// routing maps that migrations write.
func TestRouterMigrateUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	const sessions, batch = 4, 8
	b1, b2 := startBackend(t), startBackend(t)
	r, raddr := startRouter(t, Config{Backends: []string{b1, b2}})
	events := clusterEvents(0x5000, 12288)
	want := offlineHits(t, events)

	stop := make(chan struct{})
	migrated := make(chan struct{})
	go func() {
		defer close(migrated)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			to := []string{b1, b2}[i/sessions%2]
			if err := r.MigrateSession(uint64(i%sessions+1), to); err != nil {
				t.Errorf("MigrateSession: %v", err)
				return
			}
		}
	}()

	hits := make([]uint64, sessions)
	var wg sync.WaitGroup
	for s := range hits {
		c := dialRouter(t, raddr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for start := 0; start < len(events); start += batch {
				h, st, err := c.RunBatch(uint64(s+1), events[start:min(start+batch, len(events))])
				if err != nil || st != serve.StatusOK {
					t.Errorf("session %d RunBatch: %v %v", s+1, st, err)
					return
				}
				hits[s] += uint64(h)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-migrated
	for s, h := range hits {
		if h != want {
			t.Errorf("session %d: %d hits across migrations, offline %d", s+1, h, want)
		}
	}
	if r.Stats().Migrations == 0 {
		t.Error("no migration landed during the traffic")
	}
}

// TestRouterFreshSessionsConcurrently: connections that open a new
// session on every frame, the pattern of many short-lived clients,
// make the router record a route per frame while the other
// connections look theirs up. Every frame must be answered and every
// session routed. Sessions spread over two backends, so the
// connections share no lock but the router's own: under -race this
// checks the locking of its routing maps.
func TestRouterFreshSessionsConcurrently(t *testing.T) {
	leakcheck.Check(t)
	const conns, frames = 4, 256
	b1, b2 := startBackend(t), startBackend(t)
	r, raddr := startRouter(t, Config{Backends: []string{b1, b2}})
	events := clusterEvents(0x6000, 16)
	var wg sync.WaitGroup
	for k := range conns {
		c := dialRouter(t, raddr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range frames {
				id := uint64(k*frames + i + 1)
				if _, st, err := c.RunBatch(id, events); err != nil || st != serve.StatusOK {
					t.Errorf("session %d RunBatch: %v %v", id, st, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Stats().Sessions; got != conns*frames {
		t.Errorf("router routed %d sessions, want %d", got, conns*frames)
	}
}

// TestRouterMigrateErrors: bad targets and sessions without state.
func TestRouterMigrateErrors(t *testing.T) {
	b1, b2 := startBackend(t), startBackend(t)
	r, _ := startRouter(t, Config{Backends: []string{b1, b2}})
	if err := r.MigrateSession(1, "127.0.0.1:1"); err == nil {
		t.Error("migrating to an unknown backend succeeded")
	}
	// A session the cluster has never served: nothing to move, the
	// migration just records the route.
	if err := r.MigrateSession(999, b2); err != nil {
		t.Errorf("migrating a stateless session: %v", err)
	}
	if loc, _ := r.location(999); loc != b2 {
		t.Errorf("stateless session located on %s, want %s", loc, b2)
	}
}

// TestRouterMembershipChange grows 1 → 2 backends under live
// sessions, then drains one: every session's total hits must match
// the offline ground truth throughout, proving the automatic
// migrations lost nothing.
func TestRouterMembershipChange(t *testing.T) {
	leakcheck.Check(t)
	const batch = 64
	b1, b2 := startBackend(t), startBackend(t)
	r, raddr := startRouter(t, Config{Backends: []string{b1}})
	c := dialRouter(t, raddr)

	type sess struct {
		id     uint64
		events trace.Trace
		hits   uint64
	}
	var sessions []*sess
	for i := 0; i < 8; i++ {
		s := &sess{id: uint64(100 + i), events: clusterEvents(uint32(0x1000*(i+1)), 2800)}
		sessions = append(sessions, s)
	}
	run := func(from, to int) {
		for _, s := range sessions {
			for start := from; start < to; start += batch {
				end := min(start+batch, to)
				h, st, err := c.RunBatch(s.id, s.events[start:end])
				if err != nil || st != serve.StatusOK {
					t.Fatalf("RunBatch session %d: %v %v", s.id, st, err)
				}
				s.hits += uint64(h)
			}
		}
	}
	n := len(sessions[0].events)
	run(0, n/3)
	if err := r.AddBackend(b2); err != nil {
		t.Fatalf("AddBackend: %v", err)
	}
	if got := r.Backends(); len(got) != 2 {
		t.Fatalf("membership %v after add, want 2 backends", got)
	}
	if err := r.AddBackend(b2); err == nil {
		t.Error("adding a present backend succeeded")
	}
	run(n/3, 2*n/3)
	if err := r.RemoveBackend(b2); err != nil {
		t.Fatalf("RemoveBackend: %v", err)
	}
	run(2*n/3, n)

	for _, s := range sessions {
		if want := offlineHits(t, s.events); s.hits != want {
			t.Errorf("session %d: %d hits through membership changes, offline %d", s.id, s.hits, want)
		}
	}
	if err := r.RemoveBackend(b1); err == nil {
		t.Error("removing the last backend succeeded")
	}
	if err := r.RemoveBackend("127.0.0.1:1"); err == nil {
		t.Error("removing an unknown backend succeeded")
	}
}

// TestRouterHealthRouteAround: a dead backend is marked down after
// HealthFails probes and new traffic routes around it.
func TestRouterHealthRouteAround(t *testing.T) {
	leakcheck.Check(t)
	b1 := startBackend(t)

	e, err := serve.NewEngine(serve.Config{Spec: clusterSpec, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(e, serve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { srv.Serve(ln) }()
	b2 := ln.Addr().String()

	r, raddr := startRouter(t, Config{
		Backends:    []string{b1, b2},
		HealthFails: 2,
		Dialer:      serve.Dialer{Timeout: 2 * time.Second},
	})
	c := dialRouter(t, raddr)

	r.CheckHealth()
	for _, b := range r.pool.Backends() {
		if !b.Healthy() {
			t.Fatalf("backend %s unhealthy while alive", b.Addr())
		}
	}

	srv.Close() // kill b2

	// Two sweeps cross the threshold; b1 must stay up.
	r.CheckHealth()
	r.CheckHealth()
	down, ok := r.pool.Get(b2)
	if !ok || down.Healthy() {
		t.Fatal("dead backend still marked healthy after threshold")
	}
	if up, _ := r.pool.Get(b1); !up.Healthy() {
		t.Fatal("live backend marked down")
	}

	// Every session now lands on b1, including ones the ring owns b2.
	events := clusterEvents(0x9000, 300)
	for id := uint64(1); id <= 6; id++ {
		if _, st, err := c.RunBatch(id, events); err != nil || st != serve.StatusOK {
			t.Fatalf("RunBatch session %d with one backend down: %v %v", id, st, err)
		}
	}
	if up, _ := r.pool.Get(b1); up.Requests() == 0 {
		t.Error("surviving backend served no requests")
	}
}

// TestRouterCloseStopsHealthChecker: with active health checking on,
// Close must stop and join the checker goroutine; leakcheck fails the
// test if it outlives the router.
func TestRouterCloseStopsHealthChecker(t *testing.T) {
	leakcheck.Check(t)
	b1 := startBackend(t)
	r, err := NewRouter(Config{Backends: []string{b1}, HealthInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.pool.Get(b1)
	for b.probes.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	r.Close()
}

// TestRouterStatsAggregation: a Stats round trip against the router
// sums every counter over backends, and the admin handler exposes
// routing state.
func TestRouterStatsAggregation(t *testing.T) {
	e1, b1 := startBackendEngine(t)
	e2, b2 := startBackendEngine(t)
	r, raddr := startRouter(t, Config{Backends: []string{b1, b2}})
	c := dialRouter(t, raddr)

	const perSession = 500
	events := clusterEvents(0x2000, perSession)
	for id := uint64(1); id <= 10; id++ {
		if _, st, err := c.RunBatch(id, events); err != nil || st != serve.StatusOK {
			t.Fatalf("RunBatch: %v %v", st, err)
		}
	}
	// One hot-swap on the backend that owns session 1 must show in the
	// cluster-wide counters.
	loc, ok := r.location(1)
	if !ok {
		t.Fatal("session 1 has no backend")
	}
	owner := map[string]*serve.Engine{b1: e1, b2: e2}[loc]
	p, err := clusterSpec.New()
	if err != nil {
		t.Fatal(err)
	}
	if st := owner.SwapSession(1, clusterSpec, p); st != serve.StatusOK {
		t.Fatalf("SwapSession on %s: %v", loc, st)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats through router: %v", err)
	}
	if st.Swaps != 1 {
		t.Errorf("aggregated swaps %d, want 1", st.Swaps)
	}
	if st.Predictions != 10*perSession {
		t.Errorf("aggregated predictions %d, want %d", st.Predictions, 10*perSession)
	}
	if st.Sessions != 10 {
		t.Errorf("aggregated sessions %d, want 10", st.Sessions)
	}

	rs := r.Stats()
	if rs.Sessions != 10 {
		t.Errorf("router tracks %d sessions, want 10", rs.Sessions)
	}
	var reqs, routed uint64
	for _, b := range rs.Backends {
		reqs += b.Requests
		routed += uint64(b.Sessions)
	}
	if reqs == 0 {
		t.Error("no per-backend requests recorded")
	}
	if routed != 10 {
		t.Errorf("per-backend session counts sum to %d, want 10", routed)
	}
}

// TestRouterAdminHandler drives the HTTP control surface end to end.
func TestRouterAdminHandler(t *testing.T) {
	b1, b2 := startBackend(t), startBackend(t)
	r, raddr := startRouter(t, Config{Backends: []string{b1}})
	c := dialRouter(t, raddr)

	events := clusterEvents(0x3000, 400)
	if _, st, err := c.RunBatch(5, events); err != nil || st != serve.StatusOK {
		t.Fatalf("RunBatch: %v %v", st, err)
	}

	admin := httptest.NewServer(r.AdminHandler())
	defer admin.Close()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		_ = resp.Body.Close()
		return resp, sb.String()
	}
	post := func(path string) *http.Response {
		resp, err := http.Post(admin.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp
	}

	resp, body := get("/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: %d", resp.StatusCode)
	}
	var rs RouterStats
	if err := json.Unmarshal([]byte(body), &rs); err != nil {
		t.Fatalf("decoding /stats: %v\n%s", err, body)
	}
	if rs.Sessions != 1 || len(rs.Backends) != 1 {
		t.Errorf("stats report %d sessions on %d backends, want 1 on 1", rs.Sessions, len(rs.Backends))
	}

	if resp := post("/backends/add?addr=" + b2); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /backends/add: %d", resp.StatusCode)
	}
	if resp := post("/migrate?session=5&to=" + b2); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /migrate: %d", resp.StatusCode)
	}
	if loc, _ := r.location(5); loc != b2 {
		t.Errorf("session 5 on %s after admin migrate, want %s", loc, b2)
	}
	if resp := post("/backends/remove?addr=" + b2); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /backends/remove: %d", resp.StatusCode)
	}

	// Error shapes.
	if resp := post("/migrate?session=nope&to=x"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad session parameter: %d", resp.StatusCode)
	}
	if resp := post("/migrate?session=1"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing to parameter: %d", resp.StatusCode)
	}
	if resp := post("/backends/add"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing addr parameter: %d", resp.StatusCode)
	}
	if resp := post("/backends/remove?addr=127.0.0.1:1"); resp.StatusCode != http.StatusBadGateway {
		t.Errorf("removing unknown backend: %d", resp.StatusCode)
	}
	if resp, _ := get("/migrate?session=1&to=x"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on /migrate: %d", resp.StatusCode)
	}
}

// TestRouterOversizedFrame: a frame past the router's MaxFrame gets a
// clean StatusBadRequest and the connection stays usable, mirroring
// the vpserve contract.
func TestRouterOversizedFrame(t *testing.T) {
	b1 := startBackend(t)
	_, raddr := startRouter(t, Config{Backends: []string{b1}, Server: serve.ServerConfig{MaxFrame: 64}})
	c := dialRouter(t, raddr)

	big := make(trace.Trace, 200)
	for i := range big {
		big[i] = trace.Event{PC: uint32(i), Value: uint32(i)}
	}
	st, err := c.UpdateBatch(1, big)
	if err != nil {
		t.Fatalf("oversized frame killed the connection: %v", err)
	}
	if st != serve.StatusBadRequest {
		t.Fatalf("oversized frame answered %v, want bad-request", st)
	}
	// Same connection still serves well-formed traffic.
	if _, st, err := c.RunBatch(1, big[:2]); err != nil || st != serve.StatusOK {
		t.Fatalf("connection unusable after oversized frame: %v %v", st, err)
	}
	// A frame the router cannot attribute to a session is refused
	// with a status, on the same connection.
	p, err := c.RoundTrip(0x7f, nil)
	if err != nil {
		t.Fatalf("unknown op killed the connection: %v", err)
	}
	if len(p) != 1 || serve.Status(p[0]) != serve.StatusBadRequest {
		t.Errorf("unknown op answered % x, want bad-request", p)
	}
}

// runBatchFrame encodes a RunBatch request frame as serve.Client
// sends it: the VP1 header, the session, the event count, then each
// event as one big-endian word PC<<32 | Value.
func runBatchFrame(session uint64, events trace.Trace) serve.Frame {
	f := []byte{'V', 'P', 1, serve.OpRunBatch, 0, 0, 0, 0}
	f = binary.BigEndian.AppendUint64(f, session)
	f = binary.BigEndian.AppendUint32(f, uint32(len(events)))
	for _, e := range events {
		f = binary.BigEndian.AppendUint64(f, uint64(e.PC)<<32|uint64(e.Value))
	}
	binary.BigEndian.PutUint32(f[4:8], uint32(len(f)-8))
	return f
}

// TestRouterForwardZeroAlloc: once the backend connection is pooled
// and the session routed, forwarding a RunBatch frame allocates
// nothing: session lock lookup, route resolution, the pooled round
// trip and the reply read into the inbound connection's buffer. The
// count is process-wide, so it covers the in-process backend serving
// the frame too.
func TestRouterForwardZeroAlloc(t *testing.T) {
	if leakcheck.RaceEnabled {
		t.Skip("race detector instrumentation allocates; zero-alloc budget holds in pure builds only")
	}
	r, err := NewRouter(Config{Backends: []string{startBackend(t)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	req := runBatchFrame(0x9e3779b97f4a7c15, clusterEvents(0x1000, 512))
	resp := r.dispatch(req, nil) // warm: dial the backend, create the session
	if st := serve.Status(resp.Payload()[0]); st != serve.StatusOK {
		t.Fatalf("warm-up forward answered %v", st)
	}
	if n := testing.AllocsPerRun(100, func() {
		resp = r.dispatch(req, resp)
	}); n != 0 {
		t.Errorf("steady-state forwarded RunBatch frame: %.1f allocs/op, want 0", n)
	}
}

// benchmarkCluster measures router throughput with n backends: 16
// concurrent sessions replaying a mixed workload in RunBatch batches
// large enough that backend predict/update compute, not round-trip
// latency, is the bottleneck. Comparing Backends1/2/4 ns/op in
// BENCH_engine.json records the scale-out curve.
func benchmarkCluster(b *testing.B, nBackends int) {
	addrs := make([]string, nBackends)
	for i := range addrs {
		addrs[i] = startBackend(b)
	}
	_, raddr := startRouter(b, Config{Backends: addrs})

	const sessions, perSession, batch = 16, 16384, 2048
	events := make([]trace.Trace, sessions)
	clients := make([]*serve.Client, sessions)
	for i := range events {
		events[i] = clusterEvents(uint32(0x1000*(i+1)), perSession)
		clients[i] = dialRouter(b, raddr)
	}
	b.SetBytes(int64(sessions * perSession))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				c, evs := clients[s], events[s]
				for start := 0; start < len(evs); start += batch {
					end := min(start+batch, len(evs))
					if _, st, err := c.RunBatch(uint64(s+1), evs[start:end]); err != nil || st != serve.StatusOK {
						b.Errorf("RunBatch: %v %v", st, err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
	}
}

func BenchmarkClusterBackends1(b *testing.B) { benchmarkCluster(b, 1) }
func BenchmarkClusterBackends2(b *testing.B) { benchmarkCluster(b, 2) }
func BenchmarkClusterBackends4(b *testing.B) { benchmarkCluster(b, 4) }

// TestRouterPooledClientBufferIsolation: the router reads forwarded
// responses into per-connection caller-owned buffers
// (serve.Client.RoundTripAppend) precisely because pooled backend
// clients are returned to the pool while the response is still in
// flight to the inbound connection. Several concurrent inbound
// connections hammer sessions that all route to one backend — so the
// pool constantly recycles clients between them — and each checks
// every prediction against its own local replica. A response written
// into a buffer another borrower then reuses corrupts the values;
// -race catches the unsynchronized write.
func TestRouterPooledClientBufferIsolation(t *testing.T) {
	leakcheck.Check(t)
	backend := startBackend(t)
	_, raddr := startRouter(t, Config{Backends: []string{backend}})

	const conns = 8
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := serve.Dial(raddr)
			if err != nil {
				t.Errorf("conn %d: %v", k, err)
				return
			}
			defer c.Close()
			session := uint64(k + 1)
			events := clusterEvents(uint32(0x1000*(k+1)), 3000)
			p, err := clusterSpec.New()
			if err != nil {
				t.Errorf("conn %d: %v", k, err)
				return
			}
			batch := 128 << (k % 3)
			var pcs, got []uint32
			for start := 0; start < len(events); start += batch {
				end := min(start+batch, len(events))
				chunk := events[start:end]
				pcs = pcs[:0]
				for _, ev := range chunk {
					pcs = append(pcs, ev.PC)
				}
				values, st, err := c.PredictBatchAppend(session, pcs, got)
				if err != nil || st != serve.StatusOK {
					t.Errorf("conn %d PredictBatch: %v %v", k, st, err)
					return
				}
				got = values
				for i, ev := range chunk {
					if want := p.Predict(ev.PC); got[i] != want {
						t.Errorf("conn %d batch at %d: prediction %d is %#x, replica says %#x",
							k, start, i, got[i], want)
						return
					}
				}
				if st, err := c.UpdateBatch(session, chunk); err != nil || st != serve.StatusOK {
					t.Errorf("conn %d UpdateBatch: %v %v", k, st, err)
					return
				}
				for _, ev := range chunk {
					p.Update(ev.PC, ev.Value)
				}
			}
		}(k)
	}
	wg.Wait()
}
