package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/progs"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

const (
	ladderFrames   = 64  // serve-bulk-shaped frames the repro ladder replays
	ladderReps     = 9   // interleaved repetitions of every rung; the median is kept
	migrateProbes  = 33  // idle migrations timed by the ladder
	snapshotProbes = 101 // repetitions of each snapshot step
	kernelReps     = 3   // repetitions of each core kernel pass; the median is kept
	kernelFrames   = 64  // frames per benchmark in a core kernel pass
)

// tracedRun fills res with the per-layer metrics: the workload's
// untraced and traced halves, the layer ladder on the workload's
// frames, the snapshot codec and the offline layers. It writes the
// span log to spansPath.
func tracedRun(e env, o options, res *result) error {
	m := res.Metrics
	plain, err := timedPhase(e, o.seconds/2, nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	c0 := e.counters()
	traced, err := timedPhase(e, o.seconds/2, rec)
	if err != nil {
		return err
	}
	c1 := e.counters()
	var all tally
	all.add(&plain.tally)
	all.add(&traced.tally)

	m["trace_overhead_share"] = metric{traced.cpuPerOp()/plain.cpuPerOp() - 1, "ratio"}
	m["client.op_p50_us"] = metric{plain.tally.lat.quantile(0.5), "us"}
	m["client.op_p99_us"] = metric{plain.tally.lat.quantile(0.99), "us"}
	m["client.op_samples"] = metric{float64(plain.tally.lat.n), "count"}

	frames, split := e.ladder()
	if len(frames) == 0 {
		return fmt.Errorf("no ladder frames")
	}
	lad, err := runLadder(frames, split, rec, &all)
	if err != nil {
		return err
	}
	m["core.kernel_us_per_frame"] = metric{lad.us[0], "us"}
	m["serve.engine_us_per_frame"] = metric{lad.us[1], "us"}
	m["serve.wire_us_per_frame"] = metric{lad.us[2], "us"}
	m["cluster.hop_us_per_frame"] = metric{lad.us[3], "us"}
	m["serve.mailbox_self_us"] = metric{lad.us[1] - lad.us[0], "us"}
	m["serve.wire_self_us"] = metric{lad.us[2] - lad.us[1], "us"}
	m["cluster.router_self_us"] = metric{lad.us[3] - lad.us[2], "us"}

	// Serving counters come from the workload's own stack when it has
	// one, otherwise from the ladder's.
	cnt, ops, migrate := delta(c1, c0), traced.tally.ops, plain.tally.migrate
	if !cnt.served {
		cnt, ops = lad.cnt, lad.ops
	}
	hits, judged := all.hits, all.judged
	if judged == 0 {
		hits, judged = lad.hits, lad.judged
	}
	if migrate.n == 0 {
		migrate = lad.migrate
	}
	m["serve.hit_rate"] = metric{float64(hits) / float64(judged), "ratio"}
	m["serve.shed_share"] = metric{float64(cnt.dropped) / float64(ops), "ratio"}
	m["serve.queue_depth_max"] = metric{float64(max(traced.tally.queueMax, lad.queueMax)), "count"}
	m["cluster.forward_error_share"] = metric{share(cnt.forwardErrors, cnt.forwarded), "ratio"}
	m["cluster.migrations"] = metric{float64(cnt.migrations), "count"}
	m["cluster.migrate_p50_ms"] = metric{migrate.quantile(0.5) / 1e3, "ms"}

	if err := snapshotProbe(lad.warm, rec, m, &all); err != nil {
		return err
	}
	if err := offlineProbes(rec, m, &all); err != nil {
		return err
	}
	res.Attempted, res.Failed = all.ops, all.failed
	m["failed_share"] = metric{float64(all.failed) / float64(all.ops), "ratio"}
	return writeSpans(spansPath(o.workload, o.seed), rec)
}

func delta(a, b counters) counters {
	return counters{
		served:        a.served,
		dropped:       a.dropped - b.dropped,
		forwarded:     a.forwarded - b.forwarded,
		forwardErrors: a.forwardErrors - b.forwardErrors,
		migrations:    a.migrations - b.migrations,
	}
}

func share(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// ladderResult is the layer ladder's outcome: mean per-frame time at
// each rung (kernel, engine, wire, hop), in microseconds.
type ladderResult struct {
	us           [4]float64
	hits, judged uint64
	ops          int64
	queueMax     int
	migrate      hist
	cnt          counters
	warm         core.Predictor // the kernel rung's predictor, trained on every frame
}

// rung is one layer of the ladder: reset starts a fresh session and
// step sends frame i, returning its hits.
type rung struct {
	name  string
	leaf  string
	reset func() error
	step  func(i int) (uint32, error)
}

// runLadder replays the same frames at each rung — the core kernel
// directly, serve.Engine in process, serve.Client to serve.Server over
// loopback, and through a cluster.Router — so each layer's self cost
// is the gap to the rung below. Every rung must score the kernel's
// hits on every frame.
func runLadder(frames [][]trace.Event, split bool, rec *recorder, t *tally) (ladderResult, error) {
	var lr ladderResult
	eng, err := serve.NewEngine(serve.Config{Spec: serveSpec})
	if err != nil {
		return lr, err
	}
	defer eng.Close()
	st, err := newStack(2, true, 0)
	if err != nil {
		return lr, err
	}
	defer st.close()
	wire, err := serve.Dial(st.backends[0].addr)
	if err != nil {
		return lr, err
	}
	defer wire.Close()
	hop, err := serve.Dial(st.router.addr)
	if err != nil {
		return lr, err
	}
	defer hop.Close()

	const session = 1 << 40
	var kernel core.Predictor
	out := make([]uint32, 0, len(frames[0]))
	pcs := make([][]uint32, len(frames))
	if split {
		for i, f := range frames {
			pcs[i] = pcsOf(f)
		}
	}
	clientStep := func(c *serve.Client) func(i int) (uint32, error) {
		return func(i int) (uint32, error) {
			f := frames[i]
			if !split {
				hits, s, err := c.RunBatch(session, f)
				return hits, statusErr(s, err)
			}
			preds, s, err := c.PredictBatchAppend(session, pcs[i], out[:0])
			if err = statusErr(s, err); err != nil {
				return 0, err
			}
			out = preds
			s, err = c.UpdateBatch(session, f)
			return hitsOf(preds, f), statusErr(s, err)
		}
	}
	rungs := []rung{
		{"kernel", "core.RunBatch",
			func() error {
				var err error
				kernel, err = serveSpec.New()
				return err
			},
			func(i int) (uint32, error) {
				f := frames[i]
				if !split {
					return uint32(core.RunBatch(kernel, f).Correct), nil
				}
				out = out[:0]
				for _, x := range f {
					out = append(out, kernel.Predict(x.PC))
				}
				for _, x := range f {
					kernel.Update(x.PC, x.Value)
				}
				return hitsOf(out, f), nil
			}},
		{"engine", "serve.Engine.RunBatch",
			func() error { return statusErr(eng.ResetSession(session), nil) },
			func(i int) (uint32, error) {
				f := frames[i]
				if !split {
					hits, s := eng.RunBatch(session, f)
					return hits, statusErr(s, nil)
				}
				preds, s := eng.PredictBatchAppend(session, pcs[i], out[:0])
				if err := statusErr(s, nil); err != nil {
					return 0, err
				}
				out = preds
				return hitsOf(preds, f), statusErr(eng.UpdateBatch(session, f), nil)
			}},
		{"wire", "serve.Client.RunBatch", func() error { return resetSession(wire, session) }, clientStep(wire)},
		{"hop", "cluster.Router.forward", func() error { return resetSession(hop, session) }, clientStep(hop)},
	}
	if split {
		rungs[1].leaf = "serve.Engine.PredictBatch+UpdateBatch"
		rungs[2].leaf = "serve.Client.PredictBatch+UpdateBatch"
		rungs[3].leaf = "cluster.Router.forward(PredictBatch+UpdateBatch)"
	}

	want := make([]uint32, len(frames))
	per := make([][]float64, len(rungs))
	for rep := 0; rep < ladderReps; rep++ {
		for ri, r := range rungs {
			if err := r.reset(); err != nil {
				return lr, fmt.Errorf("ladder %s: %w", r.name, err)
			}
			rid := rec.open()
			rstart := time.Now()
			for i, f := range frames {
				start := time.Now()
				hits, err := r.step(i)
				rec.leaf(rid, r.leaf, start, time.Now())
				t.ops++
				if err != nil {
					t.failed++
					return lr, fmt.Errorf("ladder %s frame %d: %w", r.name, i, err)
				}
				if ri == 0 && rep == 0 {
					want[i] = hits
					lr.hits += uint64(hits)
					lr.judged += uint64(len(f))
				} else if hits != want[i] {
					t.failed++
				}
				if ri == 1 && i%queueSampleEvery == 0 {
					if d := eng.Snapshot().QueueDepth; d > lr.queueMax {
						lr.queueMax = d
					}
				}
			}
			end := time.Now()
			rec.add(rid, -1, "ladder."+r.name, rstart, end)
			per[ri] = append(per[ri], float64(end.Sub(rstart).Nanoseconds())/1e3/float64(len(frames)))
		}
	}
	for i := range rungs {
		lr.us[i] = median(per[i])
	}
	lr.warm = kernel
	lr.ops = int64(3 * len(frames) * ladderReps) // frames served by the engine, wire and hop rungs
	lr.cnt = st.counters()
	lr.cnt.dropped += eng.Snapshot().Dropped

	// Idle migrations of the hop session's warm state between the two
	// backends; the first only establishes a known location.
	for i := 0; i <= migrateProbes; i++ {
		start := time.Now()
		err := st.router.r.MigrateSession(session, st.backends[i%2].addr)
		end := time.Now()
		rec.leaf(-1, "cluster.Router.MigrateSession", start, end)
		t.ops++
		if err != nil {
			t.failed++
			return lr, err
		}
		if i > 0 {
			lr.migrate.record(end.Sub(start))
		}
	}
	return lr, nil
}

func statusErr(s serve.Status, err error) error {
	if err != nil {
		return err
	}
	if s != serve.StatusOK {
		return fmt.Errorf("status %v", s)
	}
	return nil
}

// hitsOf counts the predictions that equal their event's value.
func hitsOf(preds []uint32, f []trace.Event) uint32 {
	var hits uint32
	for j, x := range f {
		if j < len(preds) && preds[j] == x.Value {
			hits++
		}
	}
	return hits
}

func pcsOf(f []trace.Event) []uint32 {
	pcs := make([]uint32, len(f))
	for i, x := range f {
		pcs[i] = x.PC
	}
	return pcs
}

// snapshotProbe times the four snapshot steps a migration performs on
// a warmed predictor, and checks the round trip restores the state.
func snapshotProbe(p core.Predictor, rec *recorder, m map[string]metric, t *tally) error {
	var capture, encode, decode, restore []float64
	var state int
	timeIt := func(name string, into *[]float64, fn func() error) error {
		start := time.Now()
		err := fn()
		end := time.Now()
		rec.leaf(-1, name, start, end)
		*into = append(*into, float64(end.Sub(start).Nanoseconds())/1e3)
		return err
	}
	for i := 0; i < snapshotProbes; i++ {
		var snap, back *snapshot.Snapshot
		var buf bytes.Buffer
		var q core.Predictor
		err := timeIt("snapshot.Capture", &capture, func() (err error) {
			snap, err = snapshot.Capture(serveSpec, p, snapshot.Meta{Session: 1})
			return err
		})
		if err == nil {
			err = timeIt("snapshot.Encode", &encode, func() error { return snap.Encode(&buf) })
		}
		if err == nil {
			err = timeIt("snapshot.Decode", &decode, func() (err error) {
				back, err = snapshot.Decode(bytes.NewReader(buf.Bytes()))
				return err
			})
		}
		if err == nil {
			err = timeIt("snapshot.Restore", &restore, func() (err error) {
				q, err = back.Restore()
				return err
			})
		}
		t.ops++
		if err != nil {
			t.failed++
			return fmt.Errorf("snapshot probe: %w", err)
		}
		if got, ok := q.(core.Snapshotter); !ok || !bytes.Equal(got.AppendState(nil), snap.State) {
			t.failed++
		}
		state = len(snap.State)
	}
	m["snapshot.capture_us"] = metric{median(capture), "us"}
	m["snapshot.encode_us"] = metric{median(encode), "us"}
	m["snapshot.decode_us"] = metric{median(decode), "us"}
	m["snapshot.restore_us"] = metric{median(restore), "us"}
	m["snapshot.state_kb"] = metric{float64(state) / 1024, "KB"}
	return nil
}

// kernelSpecs are the core predictors timed per event.
var kernelSpecs = []struct {
	name string
	spec core.Spec
}{
	{"dfcm", serveSpec},
	{"fcm", core.Spec{Kind: "fcm", L1: 10, L2: 10}},
	{"stride", core.Spec{Kind: "stride", L1: 10}},
	{"delayed", core.Spec{Kind: "dfcm", L1: 10, L2: 10, Delay: 8}},
	{"tage", core.Spec{Kind: "tage", L1: 10, L2: 10}},
}

// offlineProbes times the offline layers: VM trace generation, a
// sweep over fig10a's predictor set, the streaming engine, each core
// kernel, and each repro experiment.
func offlineProbes(rec *recorder, m map[string]metric, t *tally) error {
	names := progs.SPECNames()
	traces := map[string]trace.Trace{}
	var events int
	vmStart := time.Now()
	for _, name := range names {
		start := time.Now()
		tr, err := progs.TraceFor(name, traceBudget)
		rec.leaf(-1, "vm.TraceFor/"+name, start, time.Now())
		if err != nil {
			return err
		}
		traces[name] = tr
		events += len(tr)
	}
	vmTime := time.Since(vmStart)
	m["vm.trace_ms"] = metric{float64(vmTime.Nanoseconds()) / 1e6, "ms"}
	m["vm.events_per_s"] = metric{float64(events) / vmTime.Seconds(), "1/s"}

	cache := engine.NewTraceCache(func(name string, _ uint64) (trace.Trace, error) { return traces[name], nil })
	sw := engine.NewSweep(engine.Options{}, cache, names, traceBudget)
	var jobs []*engine.Job
	for _, l2 := range []uint{8, 10, 12, 14, 16, 18, 20} {
		jobs = append(jobs,
			sw.Add(func() core.Predictor { return core.NewFCM(16, l2) }),
			sw.Add(func() core.Predictor { return core.NewDFCM(16, l2) }))
	}
	start := time.Now()
	err := sw.Run()
	end := time.Now()
	rec.leaf(-1, "engine.Sweep.Run", start, end)
	t.ops++
	if err != nil {
		t.failed++
		return err
	}
	for _, j := range jobs {
		if j.Weighted() <= 0 {
			t.failed++
		}
	}
	m["engine.sweep_ms"] = metric{float64(end.Sub(start).Nanoseconds()) / 1e6, "ms"}

	p, err := serveSpec.New()
	if err != nil {
		return err
	}
	stream := engine.NewStream([]core.Predictor{p}, 0)
	start = time.Now()
	for _, name := range names {
		for _, f := range frames(traces[name], bulkFrame) {
			stream.Feed(f)
		}
	}
	end = time.Now()
	rec.leaf(-1, "engine.Stream.Feed", start, end)
	t.ops++
	if stream.Results()[0].Predictions != uint64(events) {
		t.failed++
	}
	m["engine.stream_ns_per_event"] = metric{float64(end.Sub(start).Nanoseconds()) / float64(events), "ns"}

	for _, k := range kernelSpecs {
		var per []float64
		for rep := 0; rep < kernelReps; rep++ {
			var ns int64
			var n int
			for _, name := range names {
				p, err := k.spec.New()
				if err != nil {
					return err
				}
				fr := frames(traces[name], bulkFrame)
				fr = fr[:min(len(fr), kernelFrames)]
				start := time.Now()
				for _, f := range fr {
					n += int(core.RunBatch(p, f).Predictions)
				}
				end := time.Now()
				rec.leaf(-1, "core.RunBatch/"+k.name, start, end)
				ns += end.Sub(start).Nanoseconds()
			}
			per = append(per, float64(ns)/float64(n))
		}
		m["core."+k.name+"_ns_per_event"] = metric{median(per), "ns"}
	}

	// Each experiment runs once on a warm experiments trace cache.
	r := &reproEnv{exps: map[string]experiments.Experiment{}}
	if r.digests, err = parseDigests(); err != nil {
		return err
	}
	for _, id := range reproIDs {
		if r.exps[id], err = experiments.Get(id); err != nil {
			return err
		}
	}
	// fig12 runs all eight SPEC stand-ins, so it fills the cache.
	if !r.runChecked("fig12", -1, nil) {
		t.failed++
	}
	for _, id := range reproIDs {
		start := time.Now()
		ok := r.runChecked(id, -1, rec)
		m["experiments."+id+"_ms"] = metric{float64(time.Since(start).Nanoseconds()) / 1e6, "ms"}
		t.ops++
		if !ok {
			t.failed++
		}
	}
	return nil
}

// writeSpans writes the span log as JSON lines: a header with the
// number of spans dropped past maxSpans, then one span per line.
func writeSpans(path string, rec *recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	rec.mu.Lock()
	err = enc.Encode(map[string]int{"spans": len(rec.spans), "dropped": rec.dropped})
	for i := 0; err == nil && i < len(rec.spans); i++ {
		err = enc.Encode(rec.spans[i])
	}
	rec.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
