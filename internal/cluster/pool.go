package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/serve"
)

// Backend is one vpserve process the router can forward to: its
// address, a free list of idle VP1 connections, health state owned by
// the health checker, and the per-backend request counter the admin
// stats report.
type Backend struct {
	addr string

	healthy  atomic.Bool
	fails    atomic.Int32  // consecutive failed health probes
	requests atomic.Uint64 // client frames forwarded here
	probes   atomic.Uint64 // health probes sent

	mu     sync.Mutex
	idle   []*serve.Client
	closed bool
}

// Addr returns the backend's dial address.
func (b *Backend) Addr() string { return b.addr }

// Healthy reports the health checker's current verdict.
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// Requests returns the number of client frames forwarded here.
func (b *Backend) Requests() uint64 { return b.requests.Load() }

// get pops an idle connection or dials a fresh one.
func (b *Backend) get(d serve.Dialer) (*serve.Client, error) {
	b.mu.Lock()
	if n := len(b.idle); n > 0 {
		c := b.idle[n-1]
		b.idle = b.idle[:n-1]
		b.mu.Unlock()
		return c, nil
	}
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("cluster: backend %s removed", b.addr)
	}
	return d.Dial(b.addr)
}

// put returns a connection to the free list (or closes it if the
// backend was removed meanwhile).
func (b *Backend) put(c *serve.Client) {
	b.mu.Lock()
	if b.closed || len(b.idle) >= maxIdlePerBackend {
		b.mu.Unlock()
		_ = c.Close()
		return
	}
	b.idle = append(b.idle, c)
	b.mu.Unlock()
}

// closeIdle drops every pooled connection and refuses new ones.
func (b *Backend) closeIdle() {
	b.mu.Lock()
	idle := b.idle
	b.idle = nil
	b.closed = true
	b.mu.Unlock()
	for _, c := range idle {
		_ = c.Close()
	}
}

// maxIdlePerBackend bounds each backend's free list; connections past
// it are closed rather than pooled. Matches a typical router's
// concurrent inbound connection count without hoarding sockets.
const maxIdlePerBackend = 32

// Pool is the router's set of live backends with connection reuse:
// every forward borrows a pooled connection and returns it on
// success; any transport error discards the connection instead, so a
// broken socket is never reused.
type Pool struct {
	dialer serve.Dialer

	mu       sync.RWMutex
	backends map[string]*Backend
}

// NewPool returns an empty pool dialing through d.
func NewPool(d serve.Dialer) *Pool {
	return &Pool{dialer: d, backends: make(map[string]*Backend)}
}

// Add registers a backend (idempotently) and returns it. New backends
// start healthy: the checker demotes them on evidence, not suspicion.
func (p *Pool) Add(addr string) *Backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.backends[addr]; ok {
		return b
	}
	b := &Backend{addr: addr}
	b.healthy.Store(true)
	p.backends[addr] = b
	return b
}

// Remove deregisters a backend and closes its pooled connections.
func (p *Pool) Remove(addr string) {
	p.mu.Lock()
	b, ok := p.backends[addr]
	delete(p.backends, addr)
	p.mu.Unlock()
	if ok {
		b.closeIdle()
	}
}

// Get returns the backend registered at addr.
func (p *Pool) Get(addr string) (*Backend, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	b, ok := p.backends[addr]
	return b, ok
}

// Backends returns the registered backends sorted by address.
func (p *Pool) Backends() []*Backend {
	p.mu.RLock()
	out := make([]*Backend, 0, len(p.backends))
	for _, b := range p.backends {
		out = append(out, b)
	}
	p.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// Do borrows a connection to addr, runs fn, and returns the
// connection to the free list iff fn succeeded. fn must return nil
// exactly when the connection is still good (protocol-level non-OK
// statuses are fine; transport errors are not).
func (p *Pool) Do(addr string, fn func(*serve.Client) error) error {
	b, ok := p.Get(addr)
	if !ok {
		return fmt.Errorf("cluster: no backend %s", addr)
	}
	c, err := b.get(p.dialer)
	if err != nil {
		return err
	}
	if err := fn(c); err != nil {
		_ = c.Close()
		return err
	}
	b.put(c)
	return nil
}

// CloseAll drops every backend's pooled connections (router
// shutdown).
func (p *Pool) CloseAll() {
	p.mu.Lock()
	backends := make([]*Backend, 0, len(p.backends))
	for _, b := range p.backends {
		backends = append(backends, b)
	}
	p.mu.Unlock()
	for _, b := range backends {
		b.closeIdle()
	}
}
