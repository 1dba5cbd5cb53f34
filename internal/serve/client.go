package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/trace"
)

// Client is a VP1 protocol client over one TCP connection. Requests
// are serialized (one in flight per connection); use one Client per
// goroutine — or per concurrent stream — the way cmd/vploadgen does.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	timeout time.Duration

	// Single-goroutine frame buffers, making the typed methods' steady
	// state allocation-free: each request frame is encoded in place in
	// out and written with one Write, and each response frame is read
	// into in. Every typed method decodes (copying what it returns)
	// before the next round trip, so the reuse never escapes — except
	// SnapshotSession and the exported RoundTrip, whose returned bytes
	// outlive the call and therefore bypass in.
	out []byte
	in  []byte
}

// Dial connects to a vpserve at addr with a 10s I/O timeout per
// request.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout connects to addr; timeout bounds the dial and each
// request round trip.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn:    conn,
		br:      bufio.NewReader(conn),
		timeout: timeout,
	}, nil
}

// Dialer configures connection establishment for callers that must
// not hang on a dead peer — the cluster router dials backends through
// one. The zero value behaves like Dial: a 10s timeout, no retries.
type Dialer struct {
	// Timeout bounds each dial attempt and, on the returned client,
	// each request round trip. 0 selects 10s.
	Timeout time.Duration
	// Retries is the number of additional dial attempts after a failed
	// first one. Connect errors are treated as transient (a backend
	// restarting, a listener not yet up); round-trip errors on an
	// established connection are never retried here — requests are not
	// known to be idempotent.
	Retries int
	// Backoff is the delay before the first retry, doubling on each
	// subsequent one. 0 selects 50ms.
	Backoff time.Duration
}

// Dial connects to addr, retrying transient connect errors with
// exponential backoff up to d.Retries times.
func (d Dialer) Dial(addr string) (*Client, error) {
	timeout := d.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	backoff := d.Backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		c, err := DialTimeout(addr, timeout)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if attempt >= d.Retries {
			break
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	if d.Retries > 0 {
		return nil, fmt.Errorf("serve: dialing %s failed after %d attempts: %w", addr, d.Retries+1, lastErr)
	}
	return nil, lastErr
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// request begins a request frame for op in the client's out buffer.
func (c *Client) request(op byte) []byte { return beginFrame(c.out, op) }

// call sends the request frame f, begun by request, and reads the
// response into the client's in buffer. The returned payload is only
// valid until the next round trip; typed-method callers
// decode-and-copy before returning.
func (c *Client) call(f []byte) ([]byte, error) {
	c.out = f
	resp, err := c.exchange(endFrame(f), DefaultMaxFrame, c.in)
	if err != nil {
		return nil, err
	}
	c.in = resp
	return resp.Payload(), nil
}

// exchange writes the complete request frame req with one Write and
// reads its response frame, whose payload maxResp bounds, into buf's
// storage (growing it as needed); the returned frame aliases it.
func (c *Client) exchange(req Frame, maxResp int, buf []byte) (Frame, error) {
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return nil, err
	}
	if _, err := c.conn.Write(req); err != nil {
		return nil, err
	}
	resp, err := readResponseFrame(c.br, maxResp, buf)
	if err != nil {
		return nil, err
	}
	if resp.Op() != req.Op()|respFlag {
		return nil, fmt.Errorf("serve: response op %#x for request %#x", resp.Op(), req.Op())
	}
	return resp, nil
}

// PredictBatch asks the server for the session's predictions for pcs.
// On StatusBusy/StatusClosed the values are nil: the caller proceeds
// without a prediction.
func (c *Client) PredictBatch(session uint64, pcs []uint32) ([]uint32, Status, error) {
	return c.PredictBatchAppend(session, pcs, nil)
}

// PredictBatchAppend is PredictBatch decoding the predictions into
// out's backing storage when its capacity suffices (allocating a
// larger slice otherwise); the returned slice replaces the caller's
// scratch, making a steady-state predict loop allocation-free end to
// end.
func (c *Client) PredictBatchAppend(session uint64, pcs []uint32, out []uint32) ([]uint32, Status, error) {
	p, err := c.call(appendPredictReq(c.request(OpPredictBatch), session, pcs))
	if err != nil {
		return nil, 0, err
	}
	st, values, err := decodePredictResp(p, out)
	return values, st, err
}

// UpdateBatch trains the session with the outcomes.
func (c *Client) UpdateBatch(session uint64, events []trace.Event) (Status, error) {
	p, err := c.call(appendEventReq(c.request(OpUpdateBatch), session, events))
	if err != nil {
		return 0, err
	}
	return decodeStatusResp(p)
}

// RunBatch replays the events through the session's predictor with
// the offline predict-compare-update loop and returns the hit count.
func (c *Client) RunBatch(session uint64, events []trace.Event) (hits uint32, st Status, err error) {
	p, err := c.call(appendEventReq(c.request(OpRunBatch), session, events))
	if err != nil {
		return 0, 0, err
	}
	st, hits, err = decodeRunResp(p)
	return hits, st, err
}

// Stats fetches the engine's stats snapshot.
func (c *Client) Stats() (Stats, error) {
	p, err := c.call(c.request(OpStats))
	if err != nil {
		return Stats{}, err
	}
	st, body, err := decodeStatsResp(p)
	if err != nil {
		return Stats{}, err
	}
	if st != StatusOK {
		return Stats{}, fmt.Errorf("serve: stats request answered %v", st)
	}
	var stats Stats
	if err := json.Unmarshal(body, &stats); err != nil {
		return Stats{}, fmt.Errorf("serve: decoding stats: %w", err)
	}
	return stats, nil
}

// ResetSession clears the session's learned state on the server.
func (c *Client) ResetSession(session uint64) (Status, error) {
	p, err := c.call(appendU64(c.request(OpResetSession), session))
	if err != nil {
		return 0, err
	}
	return decodeStatusResp(p)
}

// SnapshotSession fetches the session's durable snapshot file — spec,
// lifetime counters and complete predictor state — as encoded by
// internal/snapshot. On non-OK statuses the bytes are nil.
func (c *Client) SnapshotSession(session uint64) ([]byte, Status, error) {
	c.out = appendU64(c.request(OpSnapshotSession), session)
	resp, err := c.exchange(endFrame(c.out), MaxSnapshotFrame, nil)
	if err != nil {
		return nil, 0, err
	}
	st, blob, err := decodeSnapshotResp(resp.Payload())
	return blob, st, err
}

// RestoreSession installs the session on the server from an encoded
// snapshot file — typically bytes SnapshotSession returned, possibly
// from a different server. An existing live session is replaced. The
// request frame is built in its own buffer: a snapshot-sized out
// buffer would outlive this rare call on every pooled connection.
func (c *Client) RestoreSession(session uint64, blob []byte) (Status, error) {
	f := beginFrame(make([]byte, 0, headerSize+8+len(blob)), OpRestoreSession)
	resp, err := c.exchange(endFrame(appendRestoreReq(f, session, blob)), DefaultMaxFrame, c.in)
	if err != nil {
		return 0, err
	}
	c.in = resp
	return decodeStatusResp(resp.Payload())
}

// RoundTrip sends an already-encoded request payload for op and
// returns the raw response payload in fresh storage. The response
// bound follows the op (SnapshotSession responses may reach
// MaxSnapshotFrame).
func (c *Client) RoundTrip(op byte, payload []byte) ([]byte, error) {
	c.out = append(c.request(op), payload...)
	resp, err := c.exchange(endFrame(c.out), maxResponse(op), nil)
	if err != nil {
		return nil, err
	}
	return resp.Payload(), nil
}

// RoundTripFrame forwards a complete request frame verbatim — the
// proxy path: the cluster router reads a frame from its client, picks
// a backend by session, and passes the frame through, header
// included — and reads the response frame into buf's storage (growing
// it as needed); the returned frame aliases it. The buffer is
// caller-owned precisely because proxy clients are pooled
// (cluster.Pool returns the client for another borrower while the
// caller still holds the response): a client-owned buffer here would
// be overwritten by the connection's next borrower, so the caller
// supplies — and keeps — the storage instead.
func (c *Client) RoundTripFrame(req Frame, buf []byte) (Frame, error) {
	return c.exchange(req, maxResponse(req.Op()), buf)
}

// maxResponse is the response payload bound for op.
func maxResponse(op byte) int {
	if op == OpSnapshotSession {
		return MaxSnapshotFrame
	}
	return DefaultMaxFrame
}
