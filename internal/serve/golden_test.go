package serve_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The golden wire test pins the exact VP1 bytes, in both directions,
// for every op: the frames a typed serve.Client writes and the frames
// a serve.Server (or a cluster.Router in front of one) writes back.
// It drives only exported API through a recording TCP proxy, so it
// holds whatever the codec and framing look like inside; the bytes on
// the wire are the protocol and must never change under a refactor.

var (
	goldenSpec  = core.Spec{Kind: "dfcm", L1: 10, L2: 10}
	foreignSpec = core.Spec{Kind: "dfcm", L1: 8, L2: 8}
)

// goldenEvents is a deterministic batch mixing constant, strided and
// cycling value streams over eight PCs.
func goldenEvents(n int) []trace.Event {
	ev := make([]trace.Event, n)
	for i := range ev {
		k := uint32(i % 8)
		ev[i] = trace.Event{PC: 0x400 + 4*k, Value: uint32(i/8)*k + k<<24}
	}
	return ev
}

func goldenPCs(n int) []uint32 {
	pcs := make([]uint32, n)
	for i, e := range goldenEvents(n) {
		pcs[i] = e.PC
	}
	return pcs
}

// pin renders a frame for comparison: short frames as hex, long ones
// as their length and SHA-256.
func pin(b []byte) string {
	if len(b) <= 64 {
		return hex.EncodeToString(b)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%d:%x", len(b), sum)
}

// wireTap is a recording TCP proxy. Each direction's bytes are
// recorded before they are forwarded, so once a client call returns,
// both its request and its response frame are in the buffers.
type wireTap struct {
	addr string

	mu       sync.Mutex
	up, down bytes.Buffer // client→server, server→client
}

type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func startTap(t *testing.T, upstream string) *wireTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &wireTap{addr: ln.Addr().String()}
	var wg sync.WaitGroup
	var conns []net.Conn
	var connsMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				_ = down.Close()
				continue
			}
			connsMu.Lock()
			conns = append(conns, down, up)
			connsMu.Unlock()
			pipe := func(dst, src net.Conn, rec *bytes.Buffer) {
				defer wg.Done()
				_, _ = io.Copy(io.MultiWriter(lockedWriter{&tp.mu, rec}, dst), src)
				_ = dst.Close()
			}
			wg.Add(2)
			go pipe(up, down, &tp.up)
			go pipe(down, up, &tp.down)
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		connsMu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		connsMu.Unlock()
		wg.Wait()
	})
	return tp
}

// take returns and clears the bytes recorded since the last take.
func (tp *wireTap) take() (req, resp []byte) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	req = append([]byte(nil), tp.up.Bytes()...)
	resp = append([]byte(nil), tp.down.Bytes()...)
	tp.up.Reset()
	tp.down.Reset()
	return req, resp
}

func startGoldenServer(t *testing.T, cfg serve.Config, scfg serve.ServerConfig) (*serve.Server, string) {
	t.Helper()
	e, err := serve.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(e, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln)
		close(done)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return srv, ln.Addr().String()
}

func startGoldenRouter(t *testing.T, backend string) string {
	t.Helper()
	r, err := cluster.NewRouter(cluster.Config{Backends: []string{backend}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_ = r.Serve(ln)
		close(done)
	}()
	t.Cleanup(func() {
		r.Close()
		<-done
	})
	return ln.Addr().String()
}

// goldenStep is one round trip: call issues it through a typed client
// method (or RoundTrip) and returns the status it decoded; req and
// resp pin the frames seen on the wire. An empty resp pins only the
// response header and status (the Stats JSON body is not codec).
type goldenStep struct {
	name      string
	call      func(c *serve.Client) (serve.Status, error)
	st        serve.Status
	req, resp string
}

func runGolden(t *testing.T, addr string, steps []goldenStep) {
	t.Helper()
	tp := startTap(t, addr)
	c, err := serve.Dial(tp.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, s := range steps {
		st, err := s.call(c)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		req, resp := tp.take()
		if st != s.st {
			t.Errorf("%s: status %v, want %v", s.name, st, s.st)
		}
		if got := pin(req); got != s.req {
			t.Errorf("%s: request frame\n got %s\nwant %s", s.name, got, s.req)
		}
		if s.resp == "" {
			if len(resp) < 9 || binary.BigEndian.Uint32(resp[4:]) != uint32(len(resp)-8) ||
				!bytes.Equal(resp[:4], []byte{0x56, 0x50, 1, req[3] | 0x80}) || resp[8] != byte(s.st) {
				t.Errorf("%s: malformed response frame % x", s.name, resp[:min(len(resp), 16)])
			}
			continue
		}
		if got := pin(resp); got != s.resp {
			t.Errorf("%s: response frame\n got %s\nwant %s", s.name, got, s.resp)
		}
	}
}

func predictStep(name string, session uint64, pcs []uint32, st serve.Status, req, resp string) goldenStep {
	return goldenStep{name: name, st: st, req: req, resp: resp, call: func(c *serve.Client) (serve.Status, error) {
		values, st, err := c.PredictBatch(session, pcs)
		if err == nil && st == serve.StatusOK && len(values) != len(pcs) {
			err = fmt.Errorf("%d values for %d pcs", len(values), len(pcs))
		}
		return st, err
	}}
}

func updateStep(name string, session uint64, ev []trace.Event, st serve.Status, req, resp string) goldenStep {
	return goldenStep{name: name, st: st, req: req, resp: resp, call: func(c *serve.Client) (serve.Status, error) {
		return c.UpdateBatch(session, ev)
	}}
}

func runStep(name string, session uint64, ev []trace.Event, st serve.Status, req, resp string) goldenStep {
	return goldenStep{name: name, st: st, req: req, resp: resp, call: func(c *serve.Client) (serve.Status, error) {
		_, st, err := c.RunBatch(session, ev)
		return st, err
	}}
}

func rawStep(name string, op byte, payload []byte, st serve.Status, req, resp string) goldenStep {
	return goldenStep{name: name, st: st, req: req, resp: resp, call: func(c *serve.Client) (serve.Status, error) {
		p, err := c.RoundTrip(op, payload)
		if err != nil {
			return 0, err
		}
		if len(p) == 0 {
			return 0, fmt.Errorf("empty response payload")
		}
		return serve.Status(p[0]), nil
	}}
}

func statsStep(st serve.Status, resp string) goldenStep {
	return goldenStep{name: "stats", st: st, req: "5650010400000000", resp: resp, call: func(c *serve.Client) (serve.Status, error) {
		stats, err := c.Stats()
		if err != nil {
			if st != serve.StatusOK {
				return st, nil // a non-OK Stats answer surfaces as an error
			}
			return 0, err
		}
		if _, err := json.Marshal(stats); err != nil {
			return 0, err
		}
		return serve.StatusOK, nil
	}}
}

// batchSteps are the PredictBatch/UpdateBatch/RunBatch/ResetSession
// round trips on session 1 of a fresh goldenSpec engine, at 0, 1 and
// 2048 entries per batch. A router in front of the engine must put
// the same bytes on the wire.
func batchSteps() []goldenStep {
	ev1, ev2k := goldenEvents(1), goldenEvents(2048)
	pc1, pc2k := goldenPCs(1), goldenPCs(2048)
	return []goldenStep{
		predictStep("predict/0", 1, nil, serve.StatusOK,
			"565001010000000c000000000000000100000000",
			"56500181000000050000000000"),
		predictStep("predict/1", 1, pc1, serve.StatusOK,
			"565001010000001000000000000000010000000100000400",
			"5650018100000009000000000100000000"),
		predictStep("predict/2048", 1, pc2k, serve.StatusOK,
			"8212:051d46ed1f8fbd9b6df2c875fb7feb64a66ca31b6418b52fcedf2bbfbbb4b0d8",
			"8205:798e7133ba9883e8f337cdad434ff25612690897d837920ffec0541acd5f490b"),
		updateStep("update/0", 1, nil, serve.StatusOK,
			"565001020000000c000000000000000100000000",
			"565001820000000100"),
		updateStep("update/1", 1, ev1, serve.StatusOK,
			"56500102000000140000000000000001000000010000040000000000",
			"565001820000000100"),
		updateStep("update/2048", 1, ev2k, serve.StatusOK,
			"16404:50687d206433f2687569d4fcd6757da8c4125fe65d8e58059e65c6a22a311618",
			"565001820000000100"),
		runStep("run/0", 1, nil, serve.StatusOK,
			"565001030000000c000000000000000100000000",
			"56500183000000050000000000"),
		runStep("run/1", 1, ev1, serve.StatusOK,
			"56500103000000140000000000000001000000010000040000000000",
			"56500183000000050000000001"),
		runStep("run/2048", 1, ev2k, serve.StatusOK,
			"16404:b47cb02668c1724e38fda6220de4e29246ce2d0d0693bcccf203a116193e53d4",
			"565001830000000500000007e4"),
		predictStep("predict/2048-warm", 1, pc2k, serve.StatusOK,
			"8212:051d46ed1f8fbd9b6df2c875fb7feb64a66ca31b6418b52fcedf2bbfbbb4b0d8",
			"8205:90fefbb75dbc1c3e4cec9caec6d08b6f43a82a02d3f5e45d104794b421189260"),
		{name: "reset", st: serve.StatusOK,
			req:  "56500105000000080000000000000001",
			resp: "565001850000000100",
			call: func(c *serve.Client) (serve.Status, error) { return c.ResetSession(1) }},
	}
}

func TestGoldenWireBytes(t *testing.T) {
	_, addr := startGoldenServer(t, serve.Config{Spec: goldenSpec, Shards: 1}, serve.ServerConfig{MaxFrame: 1 << 16})
	runGolden(t, addr, append([]goldenStep{statsStep(serve.StatusOK, "")}, batchSteps()...))
}

func TestGoldenWireBytesThroughRouter(t *testing.T) {
	_, addr := startGoldenServer(t, serve.Config{Spec: goldenSpec, Shards: 1}, serve.ServerConfig{})
	steps := append([]goldenStep{statsStep(serve.StatusOK, "")}, batchSteps()...)
	steps = append(steps, rawStep("unknown-op", 0x7f, nil, serve.StatusBadRequest,
		"5650017f00000000",
		"565001ff0000000103"))
	runGolden(t, startGoldenRouter(t, addr), steps)
}

// TestGoldenWireSnapshotRestore pins the SnapshotSession and
// RestoreSession frames, plus the BadRequest and SpecMismatch answers
// around them, direct and through a router.
func TestGoldenWireSnapshotRestore(t *testing.T) {
	_, addr := startGoldenServer(t, serve.Config{Spec: goldenSpec, Shards: 1}, serve.ServerConfig{})
	_, foreign := startGoldenServer(t, serve.Config{Spec: foreignSpec, Shards: 1}, serve.ServerConfig{})

	// Snapshot blobs are deterministic functions of spec and state;
	// fetch the ones the steps below restore.
	blobOf := func(addr string) []byte {
		c, err := serve.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, st, err := c.RunBatch(9, goldenEvents(64)); err != nil || st != serve.StatusOK {
			t.Fatalf("warm session 9: %v %v", st, err)
		}
		blob, st, err := c.SnapshotSession(9)
		if err != nil || st != serve.StatusOK {
			t.Fatalf("snapshot session 9: %v %v", st, err)
		}
		return blob
	}
	own, alien := blobOf(addr), blobOf(foreign)

	restore := func(name string, session uint64, blob []byte, st serve.Status, req, resp string) goldenStep {
		return goldenStep{name: name, st: st, req: req, resp: resp, call: func(c *serve.Client) (serve.Status, error) {
			return c.RestoreSession(session, blob)
		}}
	}
	snapshot := func(name string, session uint64, st serve.Status, req, resp string) goldenStep {
		return goldenStep{name: name, st: st, req: req, resp: resp, call: func(c *serve.Client) (serve.Status, error) {
			blob, st, err := c.SnapshotSession(session)
			if err == nil && st == serve.StatusOK && len(blob) == 0 {
				err = fmt.Errorf("empty snapshot")
			}
			return st, err
		}}
	}
	steps := []goldenStep{
		snapshot("snapshot/missing", 3, serve.StatusBadRequest,
			"56500106000000080000000000000003",
			"565001860000000103"),
		restore("restore/own", 9, own, serve.StatusOK,
			"16476:68334f02176626e697f618d15c663b8c0f4adcad867171bc79b4309a89d86286",
			"565001870000000100"),
		snapshot("snapshot/9", 9, serve.StatusOK,
			"56500106000000080000000000000009",
			"16469:406fbd930a511777818467c10024a76a74ebb3fcf919f16000be2987dac3ade7"),
		restore("restore/alien", 9, alien, serve.StatusSpecMismatch,
			"4188:987b9fd52aec6b65bbb20fe3ca86b8301ef99e6a19e7aa9e345413eb2677936e",
			"565001870000000105"),
		restore("restore/wrong-session", 4, own, serve.StatusBadRequest,
			"16476:23390d1986688a6de87b0eedf35f4d7c59c944a6354729697b01c2323c5823aa",
			"565001870000000103"),
		restore("restore/short", 4, nil, serve.StatusBadRequest,
			"56500107000000080000000000000004",
			"565001870000000103"),
	}
	// The steps leave the server as they found it (restore/own
	// replaces session 9 with the same blob), so they replay
	// unchanged through a router in front of it.
	runGolden(t, addr, steps)
	runGolden(t, startGoldenRouter(t, addr), steps)
}

// TestGoldenWireErrorStatuses pins the answer to a request that
// cannot be served, for every non-OK status and each op that carries
// one.
func TestGoldenWireErrorStatuses(t *testing.T) {
	ev2k := goldenEvents(2048)
	big := goldenEvents(8200) // 65612-byte payload, past a 64 KiB MaxFrame
	_, addr := startGoldenServer(t, serve.Config{Spec: goldenSpec, Shards: 1}, serve.ServerConfig{MaxFrame: 1 << 16})
	malformed := append(binary.BigEndian.AppendUint64(nil, 1), 0, 0, 0, 2, 0, 0, 0x04, 0)
	t.Run("bad-request", func(t *testing.T) {
		steps := []goldenStep{
			rawStep("predict/count-mismatch", serve.OpPredictBatch, malformed, serve.StatusBadRequest,
				"565001010000001000000000000000010000000200000400",
				"565001810000000103"),
			rawStep("update/count-mismatch", serve.OpUpdateBatch, malformed, serve.StatusBadRequest,
				"565001020000001000000000000000010000000200000400",
				"565001820000000103"),
			rawStep("run/count-mismatch", serve.OpRunBatch, malformed, serve.StatusBadRequest,
				"565001030000001000000000000000010000000200000400",
				"565001830000000103"),
			rawStep("reset/short", serve.OpResetSession, []byte{1, 2, 3}, serve.StatusBadRequest,
				"5650010500000003010203",
				"565001850000000103"),
			rawStep("unknown-op", 0x7f, nil, serve.StatusBadRequest,
				"5650017f00000000",
				"565001ff0000000103"),
			updateStep("update/oversized", 1, big, serve.StatusBadRequest,
				"65620:9f2cda6aa32c7ea9e9cbf24305efaf9daa7d54d8a4e9b69366fe0e8d6ffe6c96",
				"565001820000000103"),
			runStep("run/oversized", 1, big, serve.StatusBadRequest,
				"65620:bb7feeef094239e070f7319c5d6e4a1cc2d7e8d56bfb9f05f48bca05d1d1c16f",
				"565001830000000103"),
		}
		runGolden(t, addr, steps)
		runGolden(t, startGoldenRouter(t, addr), steps)
	})

	// A closed engine answers every op StatusClosed.
	srv, closedAddr := startGoldenServer(t, serve.Config{Spec: goldenSpec, Shards: 1}, serve.ServerConfig{})
	t.Run("closed", func(t *testing.T) {
		srv.Engine().Close()
		runGolden(t, closedAddr, []goldenStep{
			predictStep("predict/closed", 1, goldenPCs(2048), serve.StatusClosed,
				"8212:051d46ed1f8fbd9b6df2c875fb7feb64a66ca31b6418b52fcedf2bbfbbb4b0d8",
				"565001810000000102"),
			updateStep("update/closed", 1, ev2k, serve.StatusClosed,
				"16404:50687d206433f2687569d4fcd6757da8c4125fe65d8e58059e65c6a22a311618",
				"565001820000000102"),
			runStep("run/closed", 1, ev2k, serve.StatusClosed,
				"16404:b47cb02668c1724e38fda6220de4e29246ce2d0d0693bcccf203a116193e53d4",
				"565001830000000102"),
			{name: "reset/closed", st: serve.StatusClosed,
				req:  "56500105000000080000000000000001",
				resp: "565001850000000102",
				call: func(c *serve.Client) (serve.Status, error) {
					return c.ResetSession(1)
				}},
		})
	})

	// A router whose only backend is down sheds every op StatusBusy.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()
	t.Run("busy", func(t *testing.T) {
		runGolden(t, startGoldenRouter(t, dead), []goldenStep{
			predictStep("predict/busy", 1, goldenPCs(1), serve.StatusBusy,
				"565001010000001000000000000000010000000100000400",
				"565001810000000101"),
			updateStep("update/busy", 1, goldenEvents(1), serve.StatusBusy,
				"56500102000000140000000000000001000000010000040000000000",
				"565001820000000101"),
			runStep("run/busy", 1, ev2k, serve.StatusBusy,
				"16404:b47cb02668c1724e38fda6220de4e29246ce2d0d0693bcccf203a116193e53d4",
				"565001830000000101"),
			statsStep(serve.StatusBusy, "565001840000000101"),
		})
	})
}
