// Command vprouter is the scale-out serving tier: a VP1 proxy that
// spreads sessions across a fleet of vpserve backends on a
// consistent-hash ring. Clients speak the same wire protocol to the
// router as to a single vpserve — cmd/vploadgen and serve.Client work
// unchanged — while the router health-checks the backends, aggregates
// Stats cluster-wide, and migrates live sessions between backends
// with zero prediction loss (quiesce → SnapshotSession →
// RestoreSession → re-route).
//
// Usage:
//
//	vprouter -addr :9200 -backends localhost:9177,localhost:9178
//	vprouter -addr :9200 -admin :9201 -backends localhost:9177 -health-interval 5s
//
// The -admin HTTP listener exposes the control surface:
//
//	GET  /stats                     routing and per-backend stats
//	POST /migrate?session=N&to=A    move one live session
//	POST /backends/add?addr=A       grow the ring (auto-migrates moved sessions)
//	POST /backends/remove?addr=A    drain and drop a backend
//
// All backends must run the same predictor spec; migration fails
// closed (the session stays where its state is) if they do not.
// SIGINT/SIGTERM stop the router; backend state is untouched — the
// backends own the sessions, the router only routes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

type options struct {
	addr      string
	adminAddr string
	backends  string
	cfg       cluster.Config
}

// parseFlags binds the option set to fs and returns the destination
// struct; separated from main so tests can drive it.
func parseFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":9200", "TCP listen address for the predictor protocol")
	fs.StringVar(&o.adminAddr, "admin", "", "optional HTTP listen address for the admin control surface (empty disables)")
	fs.StringVar(&o.backends, "backends", "", "comma-separated vpserve backend addresses (required)")
	fs.IntVar(&o.cfg.VNodes, "vnodes", cluster.DefaultVNodes, "virtual nodes per backend on the hash ring")
	fs.DurationVar(&o.cfg.HealthInterval, "health-interval", 5*time.Second, "backend health probe period (0 disables)")
	fs.IntVar(&o.cfg.HealthFails, "health-fails", 3, "consecutive probe failures that mark a backend down")
	fs.DurationVar(&o.cfg.Dialer.Timeout, "dial-timeout", 10*time.Second, "backend dial and round-trip timeout")
	fs.IntVar(&o.cfg.Dialer.Retries, "dial-retries", 2, "extra connect attempts on transient backend dial errors")
	fs.DurationVar(&o.cfg.Dialer.Backoff, "dial-backoff", 50*time.Millisecond, "initial backoff between connect attempts (doubles per retry)")
	o.cfg.Server.RegisterFlags(fs)
	return o
}

// newRouter validates the options and builds the router.
func newRouter(o *options) (*cluster.Router, error) {
	for _, part := range strings.Split(o.backends, ",") {
		if part = strings.TrimSpace(part); part != "" {
			o.cfg.Backends = append(o.cfg.Backends, part)
		}
	}
	if len(o.cfg.Backends) == 0 {
		return nil, fmt.Errorf("-backends requires at least one address")
	}
	return cluster.NewRouter(o.cfg)
}

func main() {
	o := parseFlags(flag.CommandLine)
	flag.Parse()

	r, err := newRouter(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vprouter:", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vprouter:", err)
		os.Exit(1)
	}
	log.Printf("vprouter: routing %v on %s", r.Backends(), ln.Addr())

	// The admin listener is tied to shutdown below: its goroutine
	// closes adminDone, and the signal path closes the http.Server and
	// joins on it, so no goroutine outlives Close (goroutine-lifecycle).
	adminDone := make(chan struct{})
	var adminSrv *http.Server
	if o.adminAddr != "" {
		adminSrv = &http.Server{Addr: o.adminAddr, Handler: r.AdminHandler()}
		go func() {
			defer close(adminDone)
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("vprouter: admin listener: %v", err)
			}
		}()
		log.Printf("vprouter: admin on http://%s/stats", o.adminAddr)
	} else {
		close(adminDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- r.Serve(ln) }()

	select {
	case s := <-sig:
		log.Printf("vprouter: %v: shutting down", s)
		if adminSrv != nil {
			_ = adminSrv.Close()
		}
		<-adminDone
		r.Close()
		st := r.Stats()
		log.Printf("vprouter: routed %d sessions, %d migrations, %d forward errors",
			st.Sessions, st.Migrations, st.ForwardErrors)
	case err := <-done:
		fmt.Fprintln(os.Stderr, "vprouter:", err)
		os.Exit(1)
	}
}
