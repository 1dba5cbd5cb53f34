package serve

import (
	"bufio"
	"context"
	"flag"
	"net"
	"sync"
	"time"
)

// ServerConfig parameterizes a VP1 front end (a Server, or the
// cluster router's). The zero value selects sane defaults.
type ServerConfig struct {
	// ReadTimeout bounds the wait for the next request frame on a
	// connection; an idle connection past it is closed. 0 selects 60s.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response frame. 0 selects 10s.
	WriteTimeout time.Duration
	// MaxFrame bounds request payload size; RestoreSession requests
	// are always allowed up to MaxSnapshotFrame. A frame beyond its
	// cap is answered StatusBadRequest. 0 selects DefaultMaxFrame.
	MaxFrame int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 60 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	return c
}

// RegisterFlags binds the -read-timeout, -write-timeout and
// -max-frame flags, shared by cmd/vpserve and cmd/vprouter, to c.
func (c *ServerConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.DurationVar(&c.ReadTimeout, "read-timeout", 60*time.Second, "per-connection idle read deadline")
	fs.DurationVar(&c.WriteTimeout, "write-timeout", 10*time.Second, "per-response write deadline")
	fs.IntVar(&c.MaxFrame, "max-frame", DefaultMaxFrame, "maximum request frame payload in bytes")
}

// FrameHandler answers one request frame, building the response in
// buf's storage; the returned frame becomes the connection's buf for
// the next request. A handler belongs to one connection and is only
// called from that connection's goroutine, so it may keep
// per-connection scratch.
type FrameHandler func(req Frame, buf []byte) Frame

// FrontEnd is the VP1 accept loop, live-connection set and
// per-connection frame loop that every VP1 endpoint shares: Server
// answers frames from an Engine, the cluster router by forwarding
// them. Both get one definition of framing, deadlines and the
// oversized-frame answer.
type FrontEnd struct {
	cfg     ServerConfig
	handler func() FrameHandler // called once per connection

	mu       sync.Mutex
	ln       net.Listener          // vplint:guardedby mu
	conns    map[net.Conn]struct{} // vplint:guardedby mu
	draining bool                  // vplint:guardedby mu
	closed   bool                  // vplint:guardedby mu
	connWG   sync.WaitGroup
}

// NewFrontEnd builds a front end that gives each accepted connection
// its own handler from newHandler.
func NewFrontEnd(cfg ServerConfig, newHandler func() FrameHandler) *FrontEnd {
	return &FrontEnd{
		cfg:     cfg.withDefaults(),
		handler: newHandler,
		conns:   make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until Shutdown or Close. It always
// returns a non-nil error; after a clean shutdown the error is
// net.ErrClosed.
func (f *FrontEnd) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.closed || f.draining {
		f.mu.Unlock()
		_ = ln.Close()
		return net.ErrClosed
	}
	f.ln = ln
	f.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		f.mu.Lock()
		if f.draining || f.closed {
			f.mu.Unlock()
			_ = conn.Close()
			continue
		}
		f.conns[conn] = struct{}{}
		f.connWG.Add(1)
		f.mu.Unlock()
		go f.serveConn(conn)
	}
}

// serveConn runs one connection's frame loop. Malformed payloads and
// oversized-but-drained frames get a status answer; only a stream that
// cannot be resynchronized drops the connection. The request and
// response frames reuse two per-connection buffers, so a steady-state
// frame allocates nothing here; the response is fully written before
// the next read, so reuse never overlaps a pending write.
func (f *FrontEnd) serveConn(conn net.Conn) {
	defer f.connWG.Done()
	defer func() {
		_ = conn.Close()
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
	}()
	handle := f.handler()
	br := bufio.NewReader(conn)
	var in, out []byte
	for {
		if err := conn.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout)); err != nil {
			return // connection already dead
		}
		req, oversized, err := ReadRequestFrame(br, f.cfg.MaxFrame, in)
		if err != nil {
			// EOF, timeout, insane frame size or malformed header: drop
			// the connection. The framing carries no frame IDs, so there
			// is no way to resynchronize a corrupted stream.
			return
		}
		in = req
		var resp Frame
		if oversized {
			// The declared payload exceeded the cap but was drained in
			// full, so the stream is still synchronized: answer a clean
			// status instead of dropping the connection.
			resp = ResponseFrame(out, req.Op(), StatusBadRequest, nil)
		} else {
			resp = handle(req, out)
		}
		out = resp
		if err := writeReply(conn, resp, f.cfg.WriteTimeout); err != nil {
			return
		}
	}
}

// writeReply sends one response frame with a single Write under the
// write deadline.
func writeReply(conn net.Conn, resp Frame, timeout time.Duration) error {
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	_, err := conn.Write(resp)
	return err
}

// Shutdown drains gracefully: stop accepting, keep serving connected
// clients until they disconnect or ctx expires, then force the
// stragglers closed. It returns ctx's error when it had to force.
func (f *FrontEnd) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.draining = true
	ln := f.ln
	f.mu.Unlock()
	if ln != nil {
		_ = ln.Close() // Serve's Accept surfaces the close
	}

	done := make(chan struct{})
	go func() {
		f.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		f.mu.Lock()
		for conn := range f.conns {
			_ = conn.Close()
		}
		f.mu.Unlock()
		<-done
	}

	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	return err
}

// Close shuts down immediately: connections are closed without
// waiting for them to go idle. It returns once every connection
// goroutine has exited.
func (f *FrontEnd) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = f.Shutdown(ctx) // its only error is ctx's own cancellation
}
