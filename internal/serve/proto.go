// Package serve exposes the internal/core value predictors as a
// concurrent network service: a length-prefixed binary wire protocol
// over TCP, per-session predictor state keyed by client-chosen
// session IDs, and a sharded engine (one lock per shard, with a bound
// on the requests waiting for it) so independent sessions never contend
// on one lock.
//
// # Wire protocol ("VP1")
//
// Every message — request or response — is one frame:
//
//	magic   uint16  0x5650 ("VP")
//	version uint8   1
//	op      uint8   request op, or op|0x80 for its response
//	length  uint32  payload bytes (big-endian), bounded by MaxFrame
//	payload length bytes
//
// All integers are big-endian. Request payloads begin with the
// client-chosen 64-bit session ID where one applies. Response
// payloads begin with a one-byte status.
//
//	PredictBatch (0x01) req:  session u64, count u32, count × pc u32
//	             resp: status u8, count u32, count × value u32
//	UpdateBatch  (0x02) req:  session u64, count u32, count × (pc u32, value u32)
//	             resp: status u8
//	RunBatch     (0x03) req:  session u64, count u32, count × (pc u32, value u32)
//	             resp: status u8, hits u32
//	Stats        (0x04) req:  empty
//	             resp: status u8, JSON-encoded Stats
//	ResetSession (0x05) req:  session u64
//	             resp: status u8
//	SnapshotSession (0x06) req:  session u64
//	             resp: status u8, encoded internal/snapshot file
//	RestoreSession  (0x07) req:  session u64, encoded internal/snapshot file
//	             resp: status u8
//
// SnapshotSession returns the session's durable snapshot — the same
// bytes a server-side checkpoint writes to disk — captured atomically
// on the owning shard. It never creates a session (a missing session
// is StatusBadRequest) and is StatusUnsupported when the predictor
// cannot export its state. Responses can far exceed DefaultMaxFrame; clients
// read them with the MaxSnapshotFrame bound.
//
// RestoreSession is the symmetric write: it installs the session from
// an encoded snapshot — typically one SnapshotSession returned from
// another server, which is how internal/cluster migrates a live
// session between backends. The snapshot's canonical spec must match
// the server's (StatusSpecMismatch otherwise) and its meta session ID,
// when nonzero, must match the addressed session. A restore is
// authoritative: an existing live session is replaced. Request frames
// carry the snapshot blob and may exceed an ordinary server's
// MaxFrame; servers accept them up to MaxSnapshotFrame.
//
// Servers answer a request frame declaring a payload beyond the
// applicable cap — but within MaxSnapshotFrame — with
// StatusBadRequest after draining the declared bytes, keeping the
// connection synchronized. Only a frame beyond MaxSnapshotFrame,
// which no VP1 peer legitimately sends, drops the connection.
//
// RunBatch performs the offline predict-compare-update loop
// (core.Run) server-side, one event at a time in order, so a replay
// through the server is event-for-event equivalent to an offline run
// — including events in the same batch training their successors.
// Split PredictBatch/UpdateBatch calls trade that strict equivalence
// for pipelining: predictions within one batch all see the table
// state at batch start.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Protocol constants.
const (
	protoMagic   = 0x5650 // "VP"
	protoVersion = 1
	headerSize   = 8

	// respFlag marks a response frame's op byte.
	respFlag = 0x80

	// DefaultMaxFrame bounds the payload of a single frame; at 8
	// bytes per event that is ~128k events per batch.
	DefaultMaxFrame = 1 << 20

	// MaxSnapshotFrame bounds a SnapshotSession response frame: the
	// largest encodable predictor state plus the snapshot container
	// and status overhead.
	MaxSnapshotFrame = snapshot.MaxState + 4096
)

// Ops.
const (
	OpPredictBatch    = 0x01
	OpUpdateBatch     = 0x02
	OpRunBatch        = 0x03
	OpStats           = 0x04
	OpResetSession    = 0x05
	OpSnapshotSession = 0x06
	OpRestoreSession  = 0x07
)

// Status is the first byte of every response payload.
type Status uint8

// Statuses.
const (
	StatusOK           Status = 0 // request processed
	StatusBusy         Status = 1 // shard queue or session cap full — no prediction made
	StatusClosed       Status = 2 // engine draining or closed
	StatusBadRequest   Status = 3 // malformed or oversized request
	StatusUnsupported  Status = 4 // op not available on this engine
	StatusSpecMismatch Status = 5 // snapshot built under a different predictor spec
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBusy:
		return "busy"
	case StatusClosed:
		return "closed"
	case StatusBadRequest:
		return "bad-request"
	case StatusUnsupported:
		return "unsupported"
	case StatusSpecMismatch:
		return "spec-mismatch"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Protocol errors.
var (
	ErrBadMagic   = errors.New("serve: bad frame magic")
	ErrBadVersion = errors.New("serve: unsupported protocol version")
	ErrFrameSize  = errors.New("serve: frame exceeds maximum size")
	ErrTruncated  = errors.New("serve: truncated payload")
)

// --- framing -----------------------------------------------------------

// Frame is one whole VP1 frame, header included. Every connection
// reads frames into, and encodes frames in, buffers it owns and reuses:
// a payload is appended in place after the header, the length is
// patched in, and the frame goes out in a single Write. A Frame is
// only valid until its buffer's next use.
type Frame []byte

// Op returns the frame's op byte.
func (f Frame) Op() byte { return f[3] }

// Payload returns the bytes after the header.
func (f Frame) Payload() []byte { return f[headerSize:] }

// beginFrame starts a frame for op in buf's storage: the header with a
// zero length, which endFrame patches once the payload is appended.
func beginFrame(buf []byte, op byte) []byte {
	return append(buf[:0], protoMagic>>8, protoMagic&0xff, protoVersion, op, 0, 0, 0, 0)
}

// endFrame patches the payload length into a frame begun by
// beginFrame.
func endFrame(f []byte) Frame {
	binary.BigEndian.PutUint32(f[4:headerSize], uint32(len(f)-headerSize))
	return f
}

// readHeader reads and validates one frame header into the first
// headerSize bytes of buf's storage, growing it if needed, and returns
// the header and its declared payload length.
func readHeader(r io.Reader, buf []byte) (Frame, uint32, error) {
	f := slices.Grow(buf[:0], headerSize)[:headerSize]
	if _, err := io.ReadFull(r, f); err != nil {
		return nil, 0, err
	}
	if binary.BigEndian.Uint16(f) != protoMagic {
		return nil, 0, ErrBadMagic
	}
	if f[2] != protoVersion {
		return nil, 0, ErrBadVersion
	}
	return f, binary.BigEndian.Uint32(f[4:]), nil
}

// readPayload reads the n payload bytes that follow header f, growing
// f's storage when needed and keeping the header. Callers must have
// checked n against the applicable frame cap.
func readPayload(r io.Reader, f Frame, n uint32) (Frame, error) {
	f = slices.Grow(f[:headerSize], int(n))[:headerSize+int(n)]
	if _, err := io.ReadFull(r, f[headerSize:]); err != nil {
		return nil, err
	}
	return f, nil
}

// readResponseFrame reads one frame whose payload maxFrame bounds into
// buf's storage (growing it as needed); the returned frame replaces
// the caller's scratch.
func readResponseFrame(r io.Reader, maxFrame int, buf []byte) (Frame, error) {
	f, n, err := readHeader(r, buf)
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(maxFrame) {
		return nil, ErrFrameSize
	}
	return readPayload(r, f, n)
}

// ReadRequestFrame reads one request frame into buf's storage with the
// server-side cap discipline of the FrontEnd that vpserve and vprouter
// share: maxFrame bounds ordinary request payloads, while
// RestoreSession requests — which carry a snapshot blob — are always
// allowed up to MaxSnapshotFrame. A frame declaring a payload beyond
// its cap but within MaxSnapshotFrame is drained and reported
// oversized=true with only its header in the returned frame, so the
// caller can answer StatusBadRequest on a still-synchronized
// connection. Only a frame beyond MaxSnapshotFrame, which no VP1 peer
// legitimately sends, is an error. The returned frame replaces the
// caller's scratch for the next call.
func ReadRequestFrame(r io.Reader, maxFrame int, buf []byte) (f Frame, oversized bool, err error) {
	f, n, err := readHeader(r, buf)
	if err != nil {
		return nil, false, err
	}
	limit := maxFrame
	if f.Op() == OpRestoreSession && limit < MaxSnapshotFrame {
		limit = MaxSnapshotFrame
	}
	if uint64(n) > uint64(limit) {
		if uint64(n) > uint64(MaxSnapshotFrame) {
			return nil, false, ErrFrameSize
		}
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			return nil, false, err
		}
		return f, true, nil
	}
	f, err = readPayload(r, f, n)
	return f, false, err
}

// ResponseFrame builds op's response frame in buf's storage: status st
// followed by body. With a nil body it is the universal error answer —
// every VP1 response decoder accepts a one-byte payload for a non-OK
// status — which the FrontEnd sends for an oversized frame and the
// cluster router when a backend is unreachable; with a JSON body it is
// a Stats answer.
func ResponseFrame(buf []byte, op byte, st Status, body []byte) Frame {
	return endFrame(append(append(beginFrame(buf, op|respFlag), byte(st)), body...))
}

// RequestSession extracts the session ID a request payload addresses,
// without decoding the rest — how the cluster router picks a backend
// for a frame it otherwise forwards opaquely. ok is false for ops that
// carry no session (Stats) and for payloads too short to hold one.
func RequestSession(op byte, payload []byte) (session uint64, ok bool) {
	switch op {
	case OpPredictBatch, OpUpdateBatch, OpRunBatch, OpResetSession, OpSnapshotSession, OpRestoreSession:
		if len(payload) < 8 {
			return 0, false
		}
		return binary.BigEndian.Uint64(payload), true
	}
	return 0, false
}

// --- payload codec ----------------------------------------------------
//
// Every payload has one encoder, append*, which appends to a
// caller-owned buffer, and one decoder, decode*, which decodes into
// caller-owned scratch when it has the capacity (allocating storage
// sized by the bytes actually received otherwise) and returns the
// slice that replaces the scratch. Batch bodies grow the buffer once
// per batch, and their loops advance the body slice in step with the
// batch so the compiler drops the per-entry bounds checks; the
// never-taken length test in each loop is what proves that to it.

func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// growBody extends b by n bytes, returning the extended slice and its
// n-byte tail for the caller to fill.
func growBody(b []byte, n int) (out, body []byte) {
	out = slices.Grow(b, n)[:len(b)+n]
	return out, out[len(b):]
}

// appendWords appends each value as a big-endian uint32.
func appendWords(b []byte, vs []uint32) []byte {
	b, body := growBody(b, 4*len(vs))
	for _, v := range vs {
		if len(body) < 4 {
			break
		}
		binary.BigEndian.PutUint32(body, v)
		body = body[4:]
	}
	return b
}

// decodeWords decodes body as big-endian uint32s into dst's storage.
func decodeWords(body []byte, dst []uint32) []uint32 {
	n := len(body) / 4
	if cap(dst) < n {
		dst = make([]uint32, n)
	}
	out := dst[:n]
	for i := range out {
		if len(body) < 4 {
			break
		}
		out[i] = binary.BigEndian.Uint32(body)
		body = body[4:]
	}
	return out
}

// decodeBatch splits a session-addressed batch request — session u64,
// count u32, count entries of size bytes — into the session and the
// entry body.
func decodeBatch(p []byte, size uint64) (session uint64, body []byte, err error) {
	if len(p) < 12 {
		return 0, nil, ErrTruncated
	}
	body = p[12:]
	if uint64(len(body)) != size*uint64(binary.BigEndian.Uint32(p[8:])) {
		return 0, nil, ErrTruncated
	}
	return binary.BigEndian.Uint64(p), body, nil
}

// appendPredictReq appends a PredictBatch request payload to b.
func appendPredictReq(b []byte, session uint64, pcs []uint32) []byte {
	b = appendU32(appendU64(b, session), uint32(len(pcs)))
	return appendWords(b, pcs)
}

// decodePredictReq decodes a PredictBatch request into pcs's storage.
func decodePredictReq(p []byte, pcs []uint32) (session uint64, out []uint32, err error) {
	session, body, err := decodeBatch(p, 4)
	if err != nil {
		return 0, nil, err
	}
	return session, decodeWords(body, pcs), nil
}

// appendEventReq appends an UpdateBatch or RunBatch request payload
// to b. Each event goes out as one big-endian word, PC<<32 | Value.
func appendEventReq(b []byte, session uint64, events []trace.Event) []byte {
	b = appendU32(appendU64(b, session), uint32(len(events)))
	b, body := growBody(b, 8*len(events))
	for _, e := range events {
		if len(body) < 8 {
			break
		}
		binary.BigEndian.PutUint64(body, uint64(e.PC)<<32|uint64(e.Value))
		body = body[8:]
	}
	return b
}

// decodeEventReq decodes an UpdateBatch/RunBatch request into events's
// storage.
func decodeEventReq(p []byte, events []trace.Event) (session uint64, out []trace.Event, err error) {
	session, body, err := decodeBatch(p, 8)
	if err != nil {
		return 0, nil, err
	}
	n := len(body) / 8
	if cap(events) < n {
		events = make([]trace.Event, n)
	}
	out = events[:n]
	for i := range out {
		if len(body) < 8 {
			break
		}
		w := binary.BigEndian.Uint64(body)
		out[i] = trace.Event{PC: uint32(w >> 32), Value: uint32(w)}
		body = body[8:]
	}
	return session, out, nil
}

// appendRestoreReq appends a RestoreSession request payload to b: the
// addressed session ID followed by the encoded snapshot file.
func appendRestoreReq(b []byte, session uint64, blob []byte) []byte {
	return append(appendU64(b, session), blob...)
}

// decodeRestoreReq splits a RestoreSession payload. The blob aliases
// the input; the snapshot decoder validates its structure (and bounds
// every section before allocating).
func decodeRestoreReq(p []byte) (session uint64, blob []byte, err error) {
	if len(p) < 8 {
		return 0, nil, ErrTruncated
	}
	return binary.BigEndian.Uint64(p), p[8:], nil
}

// decodeSessionReq decodes a ResetSession or SnapshotSession request,
// which appendU64 encodes.
func decodeSessionReq(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, ErrTruncated
	}
	return binary.BigEndian.Uint64(p), nil
}

// appendPredictResp appends a PredictBatch response payload to b.
// values is ignored unless st is StatusOK.
func appendPredictResp(b []byte, st Status, values []uint32) []byte {
	b = append(b, byte(st))
	if st != StatusOK {
		return b
	}
	return appendWords(appendU32(b, uint32(len(values))), values)
}

// decodePredictResp decodes a PredictBatch response into values's
// storage.
func decodePredictResp(p []byte, values []uint32) (Status, []uint32, error) {
	if len(p) < 1 {
		return 0, nil, ErrTruncated
	}
	st := Status(p[0])
	if st != StatusOK {
		return st, nil, nil
	}
	if len(p) < 5 {
		return 0, nil, ErrTruncated
	}
	body := p[5:]
	if uint64(len(body)) != 4*uint64(binary.BigEndian.Uint32(p[1:])) {
		return 0, nil, ErrTruncated
	}
	return st, decodeWords(body, values), nil
}

// appendStatusResp appends a status-only response payload to b.
func appendStatusResp(b []byte, st Status) []byte { return append(b, byte(st)) }

func decodeStatusResp(p []byte) (Status, error) {
	if len(p) != 1 {
		return 0, ErrTruncated
	}
	return Status(p[0]), nil
}

// appendRunResp appends a RunBatch response payload to b.
func appendRunResp(b []byte, st Status, hits uint32) []byte {
	b = append(b, byte(st))
	if st != StatusOK {
		return b
	}
	return appendU32(b, hits)
}

func decodeRunResp(p []byte) (Status, uint32, error) {
	if len(p) < 1 {
		return 0, 0, ErrTruncated
	}
	st := Status(p[0])
	if st != StatusOK {
		return st, 0, nil
	}
	if len(p) != 5 {
		return 0, 0, ErrTruncated
	}
	return st, binary.BigEndian.Uint32(p[1:]), nil
}

// appendStatsResp appends a Stats response payload to b.
func appendStatsResp(b []byte, st Status, body []byte) []byte {
	return append(append(b, byte(st)), body...)
}

func decodeStatsResp(p []byte) (Status, []byte, error) {
	if len(p) < 1 {
		return 0, nil, ErrTruncated
	}
	return Status(p[0]), p[1:], nil
}

// appendSnapshotResp appends a SnapshotSession response payload to b.
// blob is ignored unless st is StatusOK.
func appendSnapshotResp(b []byte, st Status, blob []byte) []byte {
	b = append(b, byte(st))
	if st != StatusOK {
		return b
	}
	return append(b, blob...)
}

func decodeSnapshotResp(p []byte) (Status, []byte, error) {
	if len(p) < 1 {
		return 0, nil, ErrTruncated
	}
	st := Status(p[0])
	if st != StatusOK {
		return st, nil, nil
	}
	return st, p[1:], nil
}
