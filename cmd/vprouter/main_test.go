package main

import (
	"bufio"
	"flag"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// mainArgsEnv carries the command line when the test binary is
// re-executed to run main (see runMain).
const mainArgsEnv = "VPROUTER_MAIN_ARGS"

// TestMain runs the command's main instead of the tests when runMain
// re-executes the test binary, so a test can drive the real process:
// flag parsing, listeners, signal handling and shutdown.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"vprouter"}, strings.Fields(args)...)
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
			t.Fatalf("vprouter exited before routing: %v", err)
		}
		if _, a, ok := strings.Cut(strings.TrimSpace(line), "] on "); ok {
			addr = a
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
				t.Fatalf("vprouter exited with %v after SIGTERM; log:\n%s", e.err, e.log)
			}
			return e.log
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			e := <-done
			t.Fatalf("vprouter still running 10s after SIGTERM; log:\n%s", e.log)
			return ""
		}
	}
}

// startBackend boots an in-process vpserve on a loopback port.
func startBackend(t *testing.T, spec core.Spec) string {
	t.Helper()
	engine, err := serve.NewEngine(serve.Config{Spec: spec, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(engine, serve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func TestNewRouterRejectsNoBackends(t *testing.T) {
	for _, backends := range []string{"", " , ,"} {
		fs := flag.NewFlagSet("vprouter", flag.ContinueOnError)
		o := parseFlags(fs)
		if err := fs.Parse([]string{"-backends", backends}); err != nil {
			t.Fatal(err)
		}
		if _, err := newRouter(o); err == nil {
			t.Errorf("backends=%q: newRouter succeeded", backends)
		}
	}
}

// TestRouterBootAndServe builds the router from flags exactly as main
// does, serves it, and proves a stock serve.Client round-trips
// through it to real backends — including the cluster-wide Stats
// aggregation a single vpserve could not answer.
func TestRouterBootAndServe(t *testing.T) {
	spec := core.Spec{Kind: "dfcm", L1: 10, L2: 10}
	b1 := startBackend(t, spec)
	b2 := startBackend(t, spec)

	fs := flag.NewFlagSet("vprouter", flag.ContinueOnError)
	o := parseFlags(fs)
	if err := fs.Parse([]string{"-backends", b1 + ", " + b2, "-health-interval", "0"}); err != nil {
		t.Fatal(err)
	}
	r, err := newRouter(o)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Backends(); len(got) != 2 {
		t.Fatalf("router membership %v, want both backends", got)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.Serve(ln) }()

	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for id := uint64(1); id <= 4; id++ {
		values, st, err := c.PredictBatch(id, []uint32{0x10, 0x14, 0x18})
		if err != nil || st != serve.StatusOK {
			t.Fatalf("PredictBatch session %d through router: %v %v", id, st, err)
		}
		if len(values) != 3 {
			t.Fatalf("session %d: %d predictions, want 3", id, len(values))
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats through router: %v", err)
	}
	if st.Sessions != 4 || st.Predictions != 12 {
		t.Errorf("aggregated stats %d sessions / %d predictions, want 4 / 12", st.Sessions, st.Predictions)
	}
}

// TestMainShutsDownOnSignal runs the real vprouter process with its
// admin listener and health checker on, routes a request through it,
// and sends SIGTERM: main must close the admin listener, join its
// goroutine, close the router and log its final stats line, then exit
// cleanly. A goroutine main cannot join hangs the shutdown and fails
// the test.
func TestMainShutsDownOnSignal(t *testing.T) {
	backend := startBackend(t, core.Spec{Kind: "dfcm", L1: 10, L2: 10})
	addr, stop := runMain(t, "-addr 127.0.0.1:0 -admin 127.0.0.1:0 -health-interval 10ms -backends "+backend)
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, st, err := c.PredictBatch(1, []uint32{0x10, 0x14}); err != nil || st != serve.StatusOK {
		t.Fatalf("PredictBatch through the router: %v %v", st, err)
	}
	if log := stop(); !strings.Contains(log, "routed 1 sessions") {
		t.Errorf("shutdown log lacks the final stats line:\n%s", log)
	}
}
