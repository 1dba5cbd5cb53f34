package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/trace"
)

// startServer runs a server over a fresh engine on a loopback
// listener and returns its address. Cleanup closes everything.
func startServer(t *testing.T, cfg Config, scfg ServerConfig) (*Server, string) {
	t.Helper()
	if cfg.Spec.Kind == "" {
		cfg.Spec = testSpec
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv, ln.Addr().String()
}

func TestServerRunBatchMatchesOffline(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 4}, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	events := testEvents(0x1000, 4000)
	want := offlineHits(t, testSpec, events)
	var hits uint64
	for start := 0; start < len(events); start += 256 {
		end := min(start+256, len(events))
		h, st, err := c.RunBatch(1, events[start:end])
		if err != nil || st != StatusOK {
			t.Fatalf("RunBatch: %v %v", st, err)
		}
		hits += uint64(h)
	}
	if hits != want {
		t.Errorf("served replay: %d hits, offline %d", hits, want)
	}
}

// TestServerConcurrentConnections is the acceptance-criteria test:
// ≥ 8 concurrent client connections streaming interleaved
// PredictBatch/UpdateBatch frames, each session's result matching its
// offline run.
func TestServerConcurrentConnections(t *testing.T) {
	leakcheck.Check(t)
	const conns = 10
	_, addr := startServer(t, Config{Shards: 4, MailboxDepth: 512}, ServerConfig{})

	var wg sync.WaitGroup
	errs := make(chan string, conns)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err.Error()
				return
			}
			defer c.Close()

			events := testEvents(uint32(0x1000+0x1000*g), 3000)
			p, _ := testSpec.New()
			want := core.Run(p, events).Correct

			// Interleave PredictBatch and UpdateBatch frames, scoring
			// client-side. Batch size 1 keeps the split path
			// sequentially consistent with the offline loop.
			session := uint64(g)
			var hits uint64
			pcs := make([]uint32, 1)
			evs := make([]trace.Event, 1)
			for i, ev := range events {
				pcs[0] = ev.PC
				for {
					values, st, err := c.PredictBatch(session, pcs)
					if err != nil {
						errs <- err.Error()
						return
					}
					if st == StatusBusy {
						continue
					}
					if st != StatusOK {
						errs <- "predict: " + st.String()
						return
					}
					if values[0] == ev.Value {
						hits++
					}
					break
				}
				evs[0] = ev
				for {
					st, err := c.UpdateBatch(session, evs)
					if err != nil {
						errs <- err.Error()
						return
					}
					if st == StatusBusy {
						continue
					}
					if st != StatusOK {
						errs <- "update: " + st.String()
						return
					}
					break
				}
				// Every so often interleave a larger predict-only
				// frame against the same tables; harmless reads.
				if i%500 == 499 {
					if _, _, err := c.PredictBatch(session, pcs[:1]); err != nil {
						errs <- err.Error()
						return
					}
				}
			}
			if hits != want {
				errs <- "conn hit mismatch"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

func TestServerStatsOps(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 2}, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	events := testEvents(0x1000, 500)
	if _, st, err := c.RunBatch(3, events); err != nil || st != StatusOK {
		t.Fatalf("RunBatch: %v %v", st, err)
	}
	if st, err := c.ResetSession(3); err != nil || st != StatusOK {
		t.Fatalf("ResetSession: %v %v", st, err)
	}

	// Stats over the protocol.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Predictions != 500 || stats.Resets != 1 || stats.Sessions != 1 {
		t.Errorf("protocol stats: %+v", stats)
	}

	// Same snapshot over the HTTP handler.
	rec := httptest.NewRecorder()
	StatsHandler(srv.Engine()).ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var httpStats Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &httpStats); err != nil {
		t.Fatalf("decoding HTTP stats: %v", err)
	}
	if httpStats.Predictions != 500 || httpStats.Predictor != stats.Predictor {
		t.Errorf("HTTP stats: %+v", httpStats)
	}
}

func TestServerMaxFrameGuard(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1}, ServerConfig{MaxFrame: 64})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A frame header declaring a payload beyond MaxFrame must get the
	// connection dropped without the server reading the payload.
	var hdr [headerSize]byte
	binary.BigEndian.PutUint16(hdr[0:], protoMagic)
	hdr[2] = protoVersion
	hdr[3] = OpPredictBatch
	binary.BigEndian.PutUint32(hdr[4:], 1<<30)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("server answered an oversized frame instead of closing")
	}
}

func TestServerMalformedPayloadKeepsConnection(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1}, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Hand-roll a PredictBatch whose count disagrees with its body.
	payload := appendPredictReq(nil, 1, []uint32{0x40, 0x44})[:14]
	p, err := c.RoundTrip(OpPredictBatch, payload)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := decodePredictResp(p, nil)
	if err != nil || st != StatusBadRequest {
		t.Errorf("malformed payload: st=%v err=%v", st, err)
	}
	// The same connection still serves well-formed requests.
	if _, st, err := c.RunBatch(1, trace.Trace{{PC: 4, Value: 0}}); err != nil || st != StatusOK {
		t.Errorf("follow-up request: st=%v err=%v", st, err)
	}
}

func TestServerUnknownOp(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1}, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.RoundTrip(0x7f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := decodeStatusResp(p); err != nil || st != StatusBadRequest {
		t.Errorf("unknown op: st=%v err=%v", st, err)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	// Static rule says every goroutine is joinable; this proves the
	// drain path actually joins them all.
	leakcheck.Check(t)
	srv, addr := startServer(t, Config{Shards: 1}, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events := testEvents(0x1000, 100)
	if _, st, err := c.RunBatch(1, events); err != nil || st != StatusOK {
		t.Fatalf("pre-shutdown batch: %v %v", st, err)
	}

	// Drain with a generous deadline: the connected client keeps
	// being served until it disconnects.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	// New connections are refused or closed immediately once
	// draining; give the shutdown a moment to close the listener.
	time.Sleep(50 * time.Millisecond)
	if c2, err := Dial(addr); err == nil {
		if _, _, err := c2.RunBatch(2, events); err == nil {
			t.Error("request on a post-shutdown connection succeeded")
		}
		c2.Close()
	}

	// The live connection still works mid-drain.
	if _, st, err := c.RunBatch(1, events); err != nil || st != StatusOK {
		t.Errorf("mid-drain batch: %v %v", st, err)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Errorf("graceful shutdown returned %v", err)
	}
	// Engine is closed after drain.
	if _, st := srv.Engine().RunBatch(9, events); st != StatusClosed {
		t.Errorf("engine after shutdown: %v, want closed", st)
	}
}
