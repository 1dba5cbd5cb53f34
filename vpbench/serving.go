package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/progs"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Shapes of the served workloads.
const (
	clients = 2 // client connections per served workload

	bulkFrame     = 2048 // events per serve-bulk RunBatch frame
	bulkSegFrames = 64   // frames per serve-bulk segment (one benchmark window)

	chattySessions = 64 // sessions per serve-chatty connection
	chattyIters    = 32 // loop iterations per session per round
	chattyBatch    = 16 // PCs per PredictBatch (one loop iteration)

	clusterSessions  = 32  // sessions across both cluster-mixed connections
	clusterFrame     = 256 // events per cluster-mixed RunBatch frame
	clusterFrames    = 32  // frames per session per round
	migrateEvery     = 128 // frames between migrations, per connection
	routerStatsEvery = 64  // frames between Router.Stats reads, per connection

	queueSampleEvery = 256 // ops between queue-depth samples in traced runs
)

// backend is one in-process vpserve: an Engine behind a Server on a
// loopback listener, wired as cmd/vpserve wires them.
type backend struct {
	srv  *serve.Server
	addr string
	done chan struct{}
}

func startBackend() (*backend, error) {
	eng, err := serve.NewEngine(serve.Config{Spec: serveSpec})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	b := &backend{srv: serve.NewServer(eng, serve.ServerConfig{}), addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		_ = b.srv.Serve(ln) // returns net.ErrClosed after close
	}()
	return b, nil
}

func (b *backend) close() {
	_ = b.srv.Close() // an immediate close reports nothing actionable
	<-b.done
}

// routerProc is one in-process vprouter over the given backends.
type routerProc struct {
	r    *cluster.Router
	addr string
	done chan struct{}
}

func startRouter(backends []string) (*routerProc, error) {
	r, err := cluster.NewRouter(cluster.Config{Backends: backends})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Close()
		return nil, err
	}
	p := &routerProc{r: r, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		_ = p.r.Serve(ln) // returns net.ErrClosed after close
	}()
	return p, nil
}

func (p *routerProc) close() {
	p.r.Close()
	<-p.done
}

// stack is a served workload's running system: backends, an optional
// router in front of them, and the client connections.
type stack struct {
	backends []*backend
	router   *routerProc
	clients  []*serve.Client
}

// newStack starts n backends, a router over them when routed, and
// dials nClients connections to the router (or the first backend).
func newStack(n int, routed bool, nClients int) (*stack, error) {
	s := &stack{}
	var addrs []string
	for i := 0; i < n; i++ {
		b, err := startBackend()
		if err != nil {
			s.close()
			return nil, err
		}
		s.backends = append(s.backends, b)
		addrs = append(addrs, b.addr)
	}
	target := addrs[0]
	if routed {
		r, err := startRouter(addrs)
		if err != nil {
			s.close()
			return nil, err
		}
		s.router = r
		target = r.addr
	}
	for i := 0; i < nClients; i++ {
		c, err := serve.Dial(target)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

func (s *stack) close() {
	for _, c := range s.clients {
		_ = c.Close() // the stack is going away
	}
	if s.router != nil {
		s.router.close()
	}
	for _, b := range s.backends {
		b.close()
	}
}

func (s *stack) counters() counters {
	c := counters{served: true}
	for _, b := range s.backends {
		c.dropped += b.srv.Engine().Snapshot().Dropped
	}
	if s.router != nil {
		st := s.router.r.Stats()
		c.forwardErrors, c.migrations = st.ForwardErrors, st.Migrations
		for _, b := range st.Backends {
			c.forwarded += b.Requests
		}
	}
	return c
}

// sampleQueue records the deepest shard mailbox backlog seen so far.
func (s *stack) sampleQueue(t *tally) {
	for _, b := range s.backends {
		if d := b.srv.Engine().Snapshot().QueueDepth; d > t.queueMax {
			t.queueMax = d
		}
	}
}

func resetSession(c *serve.Client, id uint64) error {
	st, err := c.ResetSession(id)
	if err != nil {
		return fmt.Errorf("reset session %d: %w", id, err)
	}
	if st != serve.StatusOK {
		return fmt.Errorf("reset session %d: %v", id, st)
	}
	return nil
}

// vmTraces generates the eight SPEC stand-in traces on the VM.
func vmTraces() (map[string]trace.Trace, error) {
	out := map[string]trace.Trace{}
	for _, name := range progs.SPECNames() {
		tr, err := progs.TraceFor(name, traceBudget)
		if err != nil {
			return nil, err
		}
		if len(tr) == 0 {
			return nil, fmt.Errorf("empty trace for %s", name)
		}
		out[name] = tr
	}
	return out, nil
}

// runFrames is a session's RunBatch frames with the hits the offline
// reference — a fresh core predictor fed the same frames — scores on
// each.
type runFrames struct {
	session uint64
	frames  [][]trace.Event
	want    []uint32
	state   []byte // reference predictor state after the last frame
}

func newRunFrames(session uint64, fr [][]trace.Event) (*runFrames, error) {
	p, err := serveSpec.New()
	if err != nil {
		return nil, err
	}
	r := &runFrames{session: session, frames: fr}
	for _, f := range fr {
		r.want = append(r.want, uint32(core.RunBatch(p, f).Correct))
	}
	if sn, ok := p.(core.Snapshotter); ok {
		r.state = sn.AppendState(nil)
	}
	return r, nil
}

// runFrame sends one RunBatch frame as one op and checks its hits.
func runFrame(c *serve.Client, r *runFrames, i int, t *tally, rec *recorder, parent int32) error {
	f := r.frames[i]
	start := time.Now()
	hits, st, err := c.RunBatch(r.session, f)
	end := time.Now()
	rec.leaf(parent, "serve.Client.RunBatch", start, end)
	t.lat.record(end.Sub(start))
	t.ops++
	if err != nil {
		t.failed++
		return fmt.Errorf("session %d frame %d: %w", r.session, i, err)
	}
	t.hits += uint64(hits)
	t.judged += uint64(len(f))
	if st != serve.StatusOK || hits != r.want[i] {
		t.failed++
	}
	return nil
}

// bulkEnv is serve-bulk: each of two connections drives one session
// through four benchmark windows per round, in 2048-event RunBatch
// frames.
type bulkEnv struct {
	*stack
	segs   [][]*runFrames // per connection
	digest string
}

func setupBulk(seed int64) (env, error) {
	traces, err := vmTraces()
	if err != nil {
		return nil, err
	}
	rng := newRand(seed, 2)
	names := progs.SPECNames()
	e := &bulkEnv{segs: make([][]*runFrames, clients)}
	var inputs [][]trace.Event
	for k, i := range rng.Perm(len(names)) {
		tr := traces[names[i]]
		ev := window(tr, rng.Intn(len(tr)), bulkSegFrames*bulkFrame)
		c := k % clients
		seg, err := newRunFrames(uint64(c+1), frames(ev, bulkFrame))
		if err != nil {
			return nil, err
		}
		e.segs[c] = append(e.segs[c], seg)
		inputs = append(inputs, ev)
	}
	e.digest = digestEvents(inputs...)
	if e.stack, err = newStack(1, false, clients); err != nil {
		return nil, err
	}
	return e, warmUp(e)
}

// warmUp runs one untimed round as the last step of set-up.
func warmUp(e env) error {
	var t tally
	if err := e.round(&t, nil); err != nil {
		e.close()
		return err
	}
	if t.failed > 0 {
		e.close()
		return fmt.Errorf("warm-up round: %d of %d ops failed their check", t.failed, t.ops)
	}
	return nil
}

func (e *bulkEnv) round(t *tally, rec *recorder) error {
	rid := rec.open()
	rstart := time.Now()
	err := parallel(clients, t, func(c int, t *tally) error {
		cl := e.clients[c]
		for _, seg := range e.segs[c] {
			if err := resetSession(cl, seg.session); err != nil {
				return err
			}
			for i := range seg.frames {
				if err := runFrame(cl, seg, i, t, rec, rid); err != nil {
					return err
				}
				if rec != nil && c == 0 && t.ops%queueSampleEvery == 0 {
					e.sampleQueue(t)
				}
			}
		}
		return nil
	})
	rec.add(rid, -1, "serve-bulk.round", rstart, time.Now())
	return err
}

func (e *bulkEnv) ladder() ([][]trace.Event, bool) {
	return e.segs[0][0].frames, false
}

func (e *bulkEnv) inputDigest() string { return e.digest }

// chattySession is one serve-chatty session: a synthetic loop body
// whose iterations are sent as PredictBatch/UpdateBatch pairs.
type chattySession struct {
	id     uint64
	pcs    [][]uint32
	events [][]trace.Event
	want   [][]uint32 // reference predictions per iteration
}

// chattyEnv is serve-chatty: two connections, each rotating over its
// 64 sessions with one 16-PC PredictBatch and the matching 16-event
// UpdateBatch per op.
type chattyEnv struct {
	*stack
	sessions [][]*chattySession // per connection
	digest   string
}

// newLoopBody builds one session's loop body: workload.LoopBody's
// mix of constant, stride, context and random instructions, with
// seed-drawn base PC, strides and random seeds.
func newLoopBody(rng *rand.Rand) []workload.Instruction {
	body := workload.LoopBody(uint32(0x1000+rng.Intn(1<<12)*64), 4, 4, 4, 4)
	for _, in := range body {
		switch s := in.Stream.(type) {
		case *workload.Stride:
			s.Start, s.Step = uint32(rng.Intn(1<<20)), uint32(1+rng.Intn(64))
		case *workload.Random:
			s.Seed = uint32(1 + rng.Intn(1<<30))
		}
	}
	return body
}

func setupChatty(seed int64) (env, error) {
	rng := newRand(seed, 3)
	e := &chattyEnv{sessions: make([][]*chattySession, clients)}
	var inputs [][]trace.Event
	for c := 0; c < clients; c++ {
		for k := 0; k < chattySessions; k++ {
			s := &chattySession{id: uint64(c*chattySessions + k + 1)}
			ev := trace.Collect(workload.Interleave(newLoopBody(rng), chattyIters), 0)
			p, err := serveSpec.New()
			if err != nil {
				return nil, err
			}
			for _, chunk := range frames(ev, chattyBatch) {
				want := make([]uint32, len(chunk))
				for j, x := range chunk {
					want[j] = p.Predict(x.PC)
				}
				for _, x := range chunk {
					p.Update(x.PC, x.Value)
				}
				s.pcs = append(s.pcs, pcsOf(chunk))
				s.events = append(s.events, chunk)
				s.want = append(s.want, want)
			}
			e.sessions[c] = append(e.sessions[c], s)
			inputs = append(inputs, ev)
		}
	}
	e.digest = digestEvents(inputs...)
	var err error
	if e.stack, err = newStack(1, false, clients); err != nil {
		return nil, err
	}
	return e, warmUp(e)
}

func (e *chattyEnv) round(t *tally, rec *recorder) error {
	rid := rec.open()
	rstart := time.Now()
	err := parallel(clients, t, func(c int, t *tally) error {
		cl := e.clients[c]
		for _, s := range e.sessions[c] {
			if err := resetSession(cl, s.id); err != nil {
				return err
			}
		}
		out := make([]uint32, 0, chattyBatch)
		for it := 0; it < chattyIters; it++ {
			for _, s := range e.sessions[c] {
				start := time.Now()
				preds, pst, err := cl.PredictBatchAppend(s.id, s.pcs[it], out[:0])
				ust := serve.StatusOK
				if err == nil {
					ust, err = cl.UpdateBatch(s.id, s.events[it])
				}
				end := time.Now()
				rec.leaf(rid, "serve.Client.PredictBatch+UpdateBatch", start, end)
				t.lat.record(end.Sub(start))
				t.ops++
				if err != nil {
					t.failed++
					return fmt.Errorf("session %d iteration %d: %w", s.id, it, err)
				}
				out = preds
				t.hits += uint64(hitsOf(preds, s.events[it]))
				t.judged += uint64(len(s.events[it]))
				if pst != serve.StatusOK || ust != serve.StatusOK || !slices.Equal(preds, s.want[it]) {
					t.failed++
				}
				if rec != nil && c == 0 && t.ops%queueSampleEvery == 0 {
					e.sampleQueue(t)
				}
			}
		}
		return nil
	})
	rec.add(rid, -1, "serve-chatty.round", rstart, time.Now())
	return err
}

// ladder replays connection 0's sessions, iteration-major as served,
// through one session.
func (e *chattyEnv) ladder() ([][]trace.Event, bool) {
	var out [][]trace.Event
	for it := 0; it < chattyIters; it++ {
		for _, s := range e.sessions[0] {
			out = append(out, s.events[it])
		}
	}
	return out, true
}

func (e *chattyEnv) inputDigest() string { return e.digest }

// clusterSession is one cluster-mixed session and where its state
// currently lives.
type clusterSession struct {
	*runFrames
	loc int // index of the backend holding the session
}

// clusterEnv is cluster-mixed: two connections through a router to
// two backends, 16 sessions each in 256-event RunBatch frames, with
// the load goroutines migrating sessions between the backends.
type clusterEnv struct {
	*stack
	sessions [][]*clusterSession // per connection
	digest   string
}

func setupCluster(seed int64) (env, error) {
	traces, err := vmTraces()
	if err != nil {
		return nil, err
	}
	rng := newRand(seed, 4)
	names := progs.SPECNames()
	perm := rng.Perm(len(names))
	e := &clusterEnv{sessions: make([][]*clusterSession, clients)}
	var inputs [][]trace.Event
	for k := 0; k < clusterSessions; k++ {
		tr := traces[names[perm[k%len(perm)]]]
		ev := window(tr, rng.Intn(len(tr)), clusterFrames*clusterFrame)
		rf, err := newRunFrames(uint64(k+1), frames(ev, clusterFrame))
		if err != nil {
			return nil, err
		}
		c := k % clients
		e.sessions[c] = append(e.sessions[c], &clusterSession{runFrames: rf, loc: k / clients % 2})
		inputs = append(inputs, ev)
	}
	e.digest = digestEvents(inputs...)
	if e.stack, err = newStack(2, true, clients); err != nil {
		return nil, err
	}
	// Pin every session to a known backend; none has state yet, so
	// these migrations only re-route.
	for _, ss := range e.sessions {
		for _, s := range ss {
			if err := e.router.r.MigrateSession(s.session, e.backends[s.loc].addr); err != nil {
				e.close()
				return nil, err
			}
		}
	}
	return e, warmUp(e)
}

func (e *clusterEnv) round(t *tally, rec *recorder) error {
	rid := rec.open()
	rstart := time.Now()
	err := parallel(clients, t, func(c int, t *tally) error {
		cl := e.clients[c]
		ss := e.sessions[c]
		for _, s := range ss {
			if err := resetSession(cl, s.session); err != nil {
				return err
			}
		}
		migrated := map[*clusterSession]bool{}
		n := 0
		for f := 0; f < clusterFrames; f++ {
			for _, s := range ss {
				if err := runFrame(cl, s.runFrames, f, t, rec, rid); err != nil {
					return err
				}
				n++
				if n%migrateEvery == 0 {
					to := 1 - s.loc
					start := time.Now()
					err := e.router.r.MigrateSession(s.session, e.backends[to].addr)
					end := time.Now()
					rec.leaf(rid, "cluster.Router.MigrateSession", start, end)
					if err != nil {
						t.failed++
						return err
					}
					t.migrate.record(end.Sub(start))
					s.loc = to
					migrated[s] = true
				}
				if n%routerStatsEvery == 0 {
					_ = e.router.r.Stats()
				}
				if rec != nil && c == 0 && t.ops%queueSampleEvery == 0 {
					e.sampleQueue(t)
				}
			}
		}
		// A migrated session's state must equal the unmigrated
		// reference's after the same frames.
		for _, s := range ss {
			if migrated[s] && !sameState(cl, s.runFrames) {
				t.failed++
			}
		}
		return nil
	})
	rec.add(rid, -1, "cluster-mixed.round", rstart, time.Now())
	return err
}

// sameState fetches the session's snapshot through the router and
// compares its predictor state with the reference's.
func sameState(cl *serve.Client, r *runFrames) bool {
	blob, st, err := cl.SnapshotSession(r.session)
	if err != nil || st != serve.StatusOK {
		return false
	}
	snap, err := snapshot.Decode(bytes.NewReader(blob))
	return err == nil && bytes.Equal(snap.State, r.state)
}

// ladder replays connection 0's sessions, frame-major as served,
// through one session.
func (e *clusterEnv) ladder() ([][]trace.Event, bool) {
	var out [][]trace.Event
	for f := 0; f < clusterFrames; f++ {
		for _, s := range e.sessions[0] {
			out = append(out, s.frames[f])
		}
	}
	return out, false
}

func (e *clusterEnv) inputDigest() string { return e.digest }
