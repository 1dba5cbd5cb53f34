package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Config parameterizes a Router.
type Config struct {
	// Backends is the initial vpserve membership. At least one address
	// is required; all backends must run the same predictor spec (the
	// RestoreSession spec check enforces this at migration time).
	Backends []string
	// VNodes is the virtual-node count per backend on the hash ring.
	// 0 selects DefaultVNodes. Must be identical across routers for
	// them to agree on placement.
	VNodes int
	// Dialer establishes backend connections; its Timeout also bounds
	// each forwarded round trip, and its Retries/Backoff absorb
	// transient connect errors to restarting backends.
	Dialer serve.Dialer
	// HealthInterval is the period between health sweeps. 0 disables
	// active checking (backends stay healthy until removed).
	HealthInterval time.Duration
	// HealthFails is the consecutive probe failures that mark a
	// backend down. 0 selects 3. A single successful probe marks it
	// back up.
	HealthFails int
	// Server bounds the inbound client connections — frame cap, read
	// and write deadlines — exactly as for a vpserve.
	Server serve.ServerConfig
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.HealthFails <= 0 {
		c.HealthFails = 3
	}
	return c
}

// sessionLocks hands out one RWMutex per session ID. Forwarding takes
// the read side; migration takes the write side, which is the
// quiesce: it waits out the session's in-flight request and holds new
// ones until the state has moved.
type sessionLocks struct {
	mu sync.Mutex
	m  map[uint64]*sync.RWMutex
}

func (l *sessionLocks) get(id uint64) *sync.RWMutex {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = make(map[uint64]*sync.RWMutex)
	}
	lk, ok := l.m[id]
	if !ok {
		lk = &sync.RWMutex{}
		l.m[id] = lk
	}
	return lk
}

// Router is the scale-out serving tier: a VP1 proxy that maps
// sessions to backends on a consistent-hash ring, checks backend
// health, and migrates live sessions between backends without losing
// a prediction. Its client connections run on the same serve.FrontEnd
// as a vpserve, with dispatch as the per-frame handler. All exported
// methods are safe for concurrent use.
type Router struct {
	cfg   Config
	pool  *Pool
	locks sessionLocks
	fe    *serve.FrontEnd

	mu     sync.RWMutex
	ring   *Ring             // current membership (copy-on-write)
	routes map[uint64]string // session → backend that last served it
	pins   map[uint64]string // session → backend overriding the ring

	migrations    atomic.Uint64
	forwardErrors atomic.Uint64

	closeOnce sync.Once
	healthWG  sync.WaitGroup
	quit      chan struct{}
}

// NewRouter builds a router over the configured backends and starts
// its health checker. Callers must Close it.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: at least one backend is required")
	}
	r := &Router{
		cfg:    cfg,
		pool:   NewPool(cfg.Dialer),
		ring:   NewRing(cfg.VNodes),
		routes: make(map[uint64]string),
		pins:   make(map[uint64]string),
		quit:   make(chan struct{}),
	}
	r.fe = serve.NewFrontEnd(cfg.Server, func() serve.FrameHandler { return r.dispatch })
	for _, addr := range cfg.Backends {
		if addr == "" {
			return nil, fmt.Errorf("cluster: empty backend address")
		}
		r.pool.Add(addr)
		r.ring.Add(addr)
	}
	if cfg.HealthInterval > 0 {
		r.healthWG.Add(1)
		go r.healthLoop()
	}
	return r, nil
}

// Serve accepts VP1 connections on ln until Close. It always returns
// a non-nil error; after a clean shutdown the error is net.ErrClosed.
func (r *Router) Serve(ln net.Listener) error { return r.fe.Serve(ln) }

// dispatch routes one request frame, building the reply frame in
// buf's storage (the returned frame is rooted there; the FrontEnd
// keeps it as the next frame's buf). Stats aggregates across backends;
// everything else passes through to the session's owner, request and
// reply frames both forwarded verbatim.
func (r *Router) dispatch(req serve.Frame, buf []byte) serve.Frame {
	op := req.Op()
	if op == serve.OpStats {
		return r.aggregateStats(buf)
	}
	session, ok := serve.RequestSession(op, req.Payload())
	if !ok {
		return serve.ResponseFrame(buf, op, serve.StatusBadRequest, nil)
	}
	lk := r.locks.get(session)
	lk.RLock()
	defer lk.RUnlock()
	addr, ok := r.routeFor(session)
	if !ok {
		// No live backend: shed like engine backpressure so clients
		// retry rather than tear down.
		return serve.ResponseFrame(buf, op, serve.StatusBusy, nil)
	}
	resp, err := r.forward(addr, req, buf)
	if err != nil {
		r.forwardErrors.Add(1)
		return serve.ResponseFrame(buf, op, serve.StatusBusy, nil)
	}
	r.noteRoute(session, addr)
	return resp
}

// routeFor resolves the backend serving a session: an explicit pin
// wins; otherwise the first healthy backend clockwise on the ring.
func (r *Router) routeFor(session uint64) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if addr, ok := r.pins[session]; ok {
		return addr, true
	}
	return r.ring.LookupSkip(session, func(addr string) bool {
		b, ok := r.pool.Get(addr)
		return !ok || !b.Healthy()
	})
}

// noteRoute records where a session was last served, so membership
// changes know which sessions have live state and where.
func (r *Router) noteRoute(session uint64, addr string) {
	r.mu.RLock()
	cur, ok := r.routes[session]
	r.mu.RUnlock()
	if ok && cur == addr {
		return
	}
	r.mu.Lock()
	r.routes[session] = addr
	r.mu.Unlock()
}

// forward round-trips one request frame to addr over a pooled
// connection, reading the reply frame into buf's storage — the buffer
// must be caller-owned because Pool.Do returns the client to the pool
// before the caller is done with the reply; a client-owned buffer
// would be overwritten by the connection's next borrower. A transport
// error is retried once on a fresh connection: the common cause is a
// pooled socket staled by a backend restart, which fails on the first
// write. (The retry is at-least-once: an error after the backend
// processed the request but before its response arrived would
// re-apply the batch. VP1 carries no request IDs to do better; the
// window requires the backend to die mid-response.)
func (r *Router) forward(addr string, req serve.Frame, buf []byte) (serve.Frame, error) {
	var resp serve.Frame
	do := func() error {
		return r.pool.Do(addr, func(c *serve.Client) error {
			f, err := c.RoundTripFrame(req, buf)
			if err != nil {
				return err
			}
			resp = f
			return nil
		})
	}
	err := do()
	if err != nil {
		err = do()
	}
	if err != nil {
		return nil, err
	}
	if b, ok := r.pool.Get(addr); ok {
		b.requests.Add(1)
	}
	return resp, nil
}

// aggregateStats answers the Stats op, in a reply frame built in
// buf's storage, with the sum over reachable backends, so a client
// pointed at the router instead of a single vpserve sees cluster-wide
// totals in the same shape.
func (r *Router) aggregateStats(buf []byte) serve.Frame {
	var sum serve.Stats
	contacted := 0
	for _, b := range r.pool.Backends() {
		if !b.Healthy() {
			continue
		}
		var st serve.Stats
		err := r.pool.Do(b.Addr(), func(c *serve.Client) error {
			s, err := c.Stats()
			if err != nil {
				return err
			}
			st = s
			return nil
		})
		if err != nil {
			continue
		}
		contacted++
		sum.Merge(st)
	}
	if contacted == 0 {
		return serve.ResponseFrame(buf, serve.OpStats, serve.StatusBusy, nil)
	}
	body, err := json.Marshal(sum)
	if err != nil {
		return serve.ResponseFrame(buf, serve.OpStats, serve.StatusBusy, nil)
	}
	return serve.ResponseFrame(buf, serve.OpStats, serve.StatusOK, body)
}

// location reports where a session's state currently lives: its pin,
// its recorded route, or — for sessions this router has never seen —
// the ring owner.
func (r *Router) location(session uint64) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if addr, ok := r.pins[session]; ok {
		return addr, true
	}
	if addr, ok := r.routes[session]; ok {
		return addr, true
	}
	return r.ring.Lookup(session)
}

// MigrateSession moves one live session to backend `to` with zero
// prediction loss: quiesce (the session's in-flight request drains
// and new ones block), SnapshotSession on the current backend,
// RestoreSession on the destination, then re-route atomically. A
// session with no server-side state yet just re-routes. If `to` is
// not the session's ring owner, the session stays pinned there until
// a later membership change moves it.
func (r *Router) MigrateSession(session uint64, to string) error {
	if _, ok := r.pool.Get(to); !ok {
		return fmt.Errorf("cluster: migrate session %d: no backend %s", session, to)
	}
	lk := r.locks.get(session)
	lk.Lock()
	defer lk.Unlock()

	from, ok := r.location(session)
	if !ok {
		return fmt.Errorf("cluster: migrate session %d: no backends", session)
	}
	if from != to {
		var blob []byte
		var snapSt serve.Status
		err := r.pool.Do(from, func(c *serve.Client) error {
			b, st, err := c.SnapshotSession(session)
			if err != nil {
				return err
			}
			blob, snapSt = b, st
			return nil
		})
		if err != nil {
			return fmt.Errorf("cluster: snapshot session %d on %s: %w", session, from, err)
		}
		switch snapSt {
		case serve.StatusOK:
			var restSt serve.Status
			err := r.pool.Do(to, func(c *serve.Client) error {
				st, err := c.RestoreSession(session, blob)
				if err != nil {
					return err
				}
				restSt = st
				return nil
			})
			if err != nil {
				return fmt.Errorf("cluster: restore session %d on %s: %w", session, to, err)
			}
			if restSt != serve.StatusOK {
				return fmt.Errorf("cluster: restore session %d on %s answered %v", session, to, restSt)
			}
		case serve.StatusBadRequest:
			// The session has no state on `from` (never served there):
			// nothing to move, just re-route.
		default:
			return fmt.Errorf("cluster: snapshot session %d on %s answered %v", session, from, snapSt)
		}
	}

	r.mu.Lock()
	r.routes[session] = to
	if owner, ok := r.ring.Lookup(session); ok && owner == to {
		delete(r.pins, session)
	} else {
		r.pins[session] = to
	}
	r.mu.Unlock()
	r.migrations.Add(1)
	return nil
}

// sessionMove pairs a session with its migration target.
type sessionMove struct {
	session uint64
	to      string
}

// migrateAll drives a batch of planned moves, returning the first
// error; a failed move leaves its session pinned to (and served by)
// its old backend, so no state is lost — re-driving the same move
// later is safe.
func (r *Router) migrateAll(moves []sessionMove) error {
	sort.Slice(moves, func(i, j int) bool { return moves[i].session < moves[j].session })
	var firstErr error
	for _, m := range moves {
		if err := r.MigrateSession(m.session, m.to); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// AddBackend grows the membership: the backend joins the ring, every
// live session whose owner changed is pinned to its current backend,
// and then each is migrated to the new owner. Traffic keeps flowing
// throughout — pinned sessions stay where their state is until their
// migration completes.
func (r *Router) AddBackend(addr string) error {
	if addr == "" {
		return fmt.Errorf("cluster: empty backend address")
	}
	r.mu.Lock()
	if r.ring.Has(addr) {
		r.mu.Unlock()
		return fmt.Errorf("cluster: backend %s already present", addr)
	}
	r.pool.Add(addr)
	nr := r.ring.Clone()
	nr.Add(addr)
	var moves []sessionMove
	for s, loc := range r.routes {
		if _, pinned := r.pins[s]; pinned {
			continue // explicit pins hold through membership changes
		}
		if newOwner, ok := nr.Lookup(s); ok && newOwner != loc {
			r.pins[s] = loc
			moves = append(moves, sessionMove{session: s, to: newOwner})
		}
	}
	r.ring = nr
	r.mu.Unlock()
	return r.migrateAll(moves)
}

// RemoveBackend drains a backend gracefully: it leaves the ring (so
// no new sessions land on it), every session living there is migrated
// to its new ring owner, and only then is the backend dropped from
// the pool. Removing the last backend is refused. On a partial
// failure the backend stays pooled and the unmigrated sessions stay
// pinned to it — state is never abandoned.
func (r *Router) RemoveBackend(addr string) error {
	r.mu.Lock()
	if !r.ring.Has(addr) {
		r.mu.Unlock()
		return fmt.Errorf("cluster: no backend %s", addr)
	}
	if r.ring.Len() == 1 {
		r.mu.Unlock()
		return fmt.Errorf("cluster: refusing to remove the last backend %s", addr)
	}
	nr := r.ring.Clone()
	nr.Remove(addr)
	var moves []sessionMove
	for s, loc := range r.routes {
		if pin, pinned := r.pins[s]; (pinned && pin == addr) || (!pinned && loc == addr) {
			r.pins[s] = addr
			if newOwner, ok := nr.Lookup(s); ok {
				moves = append(moves, sessionMove{session: s, to: newOwner})
			}
		}
	}
	for s, pin := range r.pins {
		if pin != addr {
			continue
		}
		if _, routed := r.routes[s]; routed {
			continue // already planned above
		}
		if newOwner, ok := nr.Lookup(s); ok {
			moves = append(moves, sessionMove{session: s, to: newOwner})
		}
	}
	r.ring = nr
	r.mu.Unlock()
	if err := r.migrateAll(moves); err != nil {
		return err
	}
	r.pool.Remove(addr)
	return nil
}

// Backends returns the current ring membership, sorted.
func (r *Router) Backends() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring.Members()
}

// Close stops the router immediately: listener and inbound
// connections, then the health checker, then the pooled backend
// connections. Idempotent.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		r.fe.Close()
		close(r.quit)
		r.healthWG.Wait()
		r.pool.CloseAll()
	})
}
