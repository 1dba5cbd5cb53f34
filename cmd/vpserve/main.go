// Command vpserve serves the internal/core value predictors over the
// VP1 wire protocol: per-session predictor state, a sharded engine,
// and an optional HTTP stats endpoint. The predictor configuration
// uses the same flags as cmd/vpredict, so an offline replay with
// identical flags reproduces a session's hit counts exactly.
//
// Usage:
//
//	vpserve -addr :9177 -predictor dfcm -l1 16 -l2 12
//	vpserve -addr :9177 -http :9178 -shards 8 -predictor hybrid -l1 14 -l2 12
//	vpserve -addr :9177 -predictor dfcm -checkpoint-dir /var/lib/vpserve -checkpoint-interval 30s
//	vpserve -addr :9177 -predictor tage -l1 13 -l2 10 -tables 4 -tag 8 -hmin 4 -hmax 64
//
// -predictor hybrid serves the paper's realizable stride/FCM chooser
// (§4.3: a 2^l1 table of 2-bit counters picks a component per PC), so
// its hits are hits a client comparing PredictBatch answers can get.
// The perfect-meta oracle of Figure 16 is an offline bound only.
//
// SIGINT/SIGTERM drain the server gracefully: the listener closes
// immediately, connected clients are served until they disconnect or
// the drain timeout expires.
//
// With -checkpoint-dir, every session's predictor state is snapshot to
// one file in the directory (internal/snapshot format, inspectable
// with cmd/vpstate) on the background -checkpoint-interval and again
// on graceful drain; the next boot with the same flags warm-starts
// those sessions — tables, confidence counters and lifetime stats —
// so a restart costs no cold-start accuracy. Snapshots whose
// predictor spec does not match the current flags are skipped, not
// loaded wrong.
//
// With -autotune, an online tuner (internal/autotune) shadows a
// sampled fraction of each session's training traffic through the
// -autotune-candidates specs and hot-swaps a session's predictor when
// a candidate beats its incumbent by the hysteresis margin:
//
//	vpserve -addr :9177 -predictor dfcm -l1 10 -l2 10 \
//	    -autotune -autotune-candidates "dfcm:14:12,dfcm:12:10:16,stride:14"
//
// Tuner counters and per-session shadow scores are served as JSON on
// the HTTP listener's /autotune endpoint. Autotuned servers adopt
// snapshot specs on warm start, so a swapped session survives a
// restart under its swapped configuration.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/serve"
)

type options struct {
	addr     string
	httpAddr string
	spec     core.Spec
	engine   serve.Config
	server   serve.ServerConfig
	drain    time.Duration

	autotune     bool
	atCandidates string
	atObjective  string
	atSample     float64
	atSeed       uint64
	atWindow     int
	atMargin     float64
}

// parseFlags binds the option set to fs and returns the destination
// struct; separated from main so tests can drive it.
func parseFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":9177", "TCP listen address for the predictor protocol")
	fs.StringVar(&o.httpAddr, "http", "", "optional HTTP listen address for JSON stats (empty disables)")
	o.spec.RegisterFlags(fs)
	fs.IntVar(&o.engine.Shards, "shards", 0, "session shards, one lock each (0 = GOMAXPROCS)")
	fs.IntVar(&o.engine.MailboxDepth, "mailbox", 128, "requests that may wait for a shard's lock before more are answered busy")
	fs.IntVar(&o.engine.MaxSessions, "max-sessions", 4096, "live session cap across shards")
	fs.StringVar(&o.engine.CheckpointDir, "checkpoint-dir", "", "directory for per-session predictor snapshots; enables warm start (empty disables)")
	fs.DurationVar(&o.engine.CheckpointInterval, "checkpoint-interval", 30*time.Second, "background checkpoint period (0 = checkpoint on drain only)")
	o.server.RegisterFlags(fs)
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful drain timeout on SIGINT/SIGTERM")
	fs.BoolVar(&o.autotune, "autotune", false, "enable the online autotuner (shadow-evaluates -autotune-candidates and hot-swaps winners)")
	fs.StringVar(&o.atCandidates, "autotune-candidates", "", "comma-separated candidate specs, kind:l1[:l2[:width[:delay[:tables[:tag[:hmin[:hmax]]]]]]] (required with -autotune)")
	fs.StringVar(&o.atObjective, "autotune-objective", "accuracy", "promotion objective: accuracy | efficiency (accuracy per Kbit)")
	fs.Float64Var(&o.atSample, "autotune-sample", 1, "fraction of training batches mirrored to the tuner, in (0,1]")
	fs.Uint64Var(&o.atSeed, "autotune-seed", 0, "sampling hash seed (fixed seed = reproducible mirrored subsequence)")
	fs.IntVar(&o.atWindow, "autotune-window", 0, "shadow scoring window in judged events (0 = default)")
	fs.Float64Var(&o.atMargin, "autotune-margin", 0, "relative score margin a candidate must clear to be promoted (0 = default)")
	return o
}

// newServer validates the options and builds the engine, server and
// (with -autotune) the tuner, warm-starting from the checkpoint
// directory when one is configured. The returned tuner is nil when
// autotuning is off; callers owning the drain path must Close it
// before shutting the server down.
func newServer(o *options) (*serve.Server, *autotune.Tuner, error) {
	// Probe the spec once so a bad flag combination fails at startup,
	// not on the first session.
	if _, err := o.spec.New(); err != nil {
		return nil, nil, fmt.Errorf("predictor spec: %w", err)
	}
	var candidates []core.Spec
	if o.autotune {
		var err error
		if candidates, err = autotune.ParseSpecs(o.atCandidates); err != nil {
			return nil, nil, err
		}
	}
	cfg := o.engine
	cfg.Spec = o.spec
	// An autotuned server's sessions drift from the boot spec by
	// hot-swap; adopting snapshot specs on warm start keeps a swapped
	// session's configuration across a restart.
	cfg.AdoptSnapshotSpecs = o.autotune
	engine, err := serve.NewEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.CheckpointDir != "" {
		restored, skipped, err := engine.LoadCheckpoints()
		if err != nil {
			engine.Close()
			return nil, nil, fmt.Errorf("warm start from %s: %w", cfg.CheckpointDir, err)
		}
		if restored+skipped > 0 {
			log.Printf("vpserve: warm start: %d sessions restored, %d files skipped", restored, skipped)
		}
	}
	var tuner *autotune.Tuner
	if o.autotune {
		tuner, err = autotune.New(autotune.Config{
			Engine:     engine,
			Boot:       o.spec,
			Candidates: candidates,
			Objective:  o.atObjective,
			SampleRate: o.atSample,
			Seed:       o.atSeed,
			Window:     o.atWindow,
			Margin:     o.atMargin,
		})
		if err != nil {
			engine.Close()
			return nil, nil, err
		}
	}
	return serve.NewServer(engine, o.server), tuner, nil
}

// newStatsMux builds the HTTP admin mux: engine stats on /stats and,
// when the tuner runs, its counters and shadow scores on /autotune.
func newStatsMux(srv *serve.Server, tuner *autotune.Tuner) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/stats", serve.StatsHandler(srv.Engine()))
	mux.HandleFunc("/autotune", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if tuner == nil {
			fmt.Fprintln(w, `{"enabled":false}`)
			return
		}
		b, err := json.Marshal(tuner.Status())
		if err != nil {
			http.Error(w, "status marshal failed", http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(b) // client gone mid-reply is not a server error
	})
	return mux
}

func main() {
	o := parseFlags(flag.CommandLine)
	flag.Parse()

	srv, tuner, err := newServer(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpserve:", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpserve:", err)
		os.Exit(1)
	}
	log.Printf("vpserve: serving %s on %s", srv.Engine().Snapshot().Predictor, ln.Addr())
	if tuner != nil {
		log.Printf("vpserve: autotune on: candidates %q, objective %s", o.atCandidates, o.atObjective)
	}

	// The stats listener is tied to the drain path below: its goroutine
	// closes statsDone, and shutdown closes the http.Server and joins
	// on it, so no goroutine outlives the drain (goroutine-lifecycle).
	statsDone := make(chan struct{})
	var statsSrv *http.Server
	if o.httpAddr != "" {
		statsSrv = &http.Server{Addr: o.httpAddr, Handler: newStatsMux(srv, tuner)}
		go func() {
			defer close(statsDone)
			if err := statsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("vpserve: http stats listener: %v", err)
			}
		}()
		log.Printf("vpserve: stats on http://%s/stats", o.httpAddr)
	} else {
		close(statsDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		log.Printf("vpserve: %v: draining (timeout %v)", s, o.drain)
		if tuner != nil {
			// Detach the tap and join the tuner loop before the engine
			// drains, so no swap races the final checkpoint.
			tuner.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), o.drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("vpserve: drain incomplete: %v", err)
		}
		if statsSrv != nil {
			_ = statsSrv.Close()
		}
		<-statsDone
		st := srv.Engine().Snapshot()
		log.Printf("vpserve: served %d predictions, %d judged lookups (%.4f hit rate), %d sessions",
			st.Predictions, st.Updates, st.HitRate, st.Sessions)
	case err := <-done:
		fmt.Fprintln(os.Stderr, "vpserve:", err)
		os.Exit(1)
	}
}
