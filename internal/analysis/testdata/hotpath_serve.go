// Seeded-violation fixture for the hot-path-alloc analyzer (serve
// scope). Loaded with import path "repro/internal/serve": the rule
// lints the per-frame codec — top-level append*/decode* functions
// plus the frame builders (beginFrame, endFrame, ResponseFrame,
// growBody), readers (readHeader, readPayload, readResponseFrame,
// ReadRequestFrame) and the FrontEnd's frame writer (writeReply) —
// and nothing else in the package.
package serve

import (
	"errors"
	"fmt"
	"io"
)

var errShort = errors.New("short payload")

// appendValueResp is a frame encoder: in scope by the append* prefix.
func appendValueResp(b []byte, values []uint32) []byte {
	defer fmt.Println(len(values)) // want hot-path-alloc
	for _, v := range values {
		b = append(b, byte(v))
	}
	return b
}

// decodeValueReq is a frame decoder: in scope by the decode* prefix.
func decodeValueReq(p []byte) (uint32, error) {
	if len(p) < 4 {
		return 0, fmt.Errorf("decode: %d bytes: %w", len(p), errShort) // want hot-path-alloc
	}
	return uint32(p[0]), nil
}

// beginFrame, endFrame, ResponseFrame and growBody write frames in
// place: in scope by name.
func beginFrame(buf []byte, op byte) []byte {
	return append(buf[:0], fmt.Sprint(op)...) // want hot-path-alloc
}

func endFrame(f []byte) []byte {
	defer func() {}() // want hot-path-alloc
	return f
}

func ResponseFrame(buf []byte, op byte) []byte {
	x := any(op) // want hot-path-alloc
	_ = x
	return buf
}

func growBody(b []byte, n int) []byte {
	return append(b, fmt.Sprintf("%*s", n, "")...) // want hot-path-alloc
}

// readHeader, readPayload, readResponseFrame and ReadRequestFrame are
// the frame readers: in scope by name.
func readHeader(r io.Reader, buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("header: %w", err) // want hot-path-alloc
	}
	return buf, nil
}

func readPayload(r io.Reader, buf []byte) ([]byte, error) {
	defer fmt.Println(len(buf)) // want hot-path-alloc
	_, err := io.ReadFull(r, buf)
	return buf, err
}

func readResponseFrame(r io.Reader, buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("read: %w", err) // want hot-path-alloc
	}
	return buf, nil
}

func ReadRequestFrame(r io.Reader, buf []byte) ([]byte, error) {
	x := any(len(buf)) // want hot-path-alloc
	_ = x
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// writeReply is the front end's frame writer, called once per
// response: in scope by name.
func writeReply(w io.Writer, f []byte) error {
	if len(f) == 0 {
		return fmt.Errorf("empty reply %v", f) // want hot-path-alloc
	}
	_, err := w.Write(f)
	return err
}

// writeFrame is not a codec name: out of scope.
func writeFrame(w io.Writer, payload []byte) error {
	_, err := fmt.Fprint(w, payload)
	return err
}

// encodeValueResp is a cold allocating helper: out of scope, fmt is
// fine here.
func encodeValueResp(values []uint32) []byte {
	b := appendValueResp(make([]byte, 0, len(values)), values)
	fmt.Println(len(b))
	return b
}

// decodeSuppressed demonstrates suppression on the codec path.
func decodeSuppressed(p []byte) (uint32, error) {
	//lint:ignore hot-path-alloc fixture: debug build only
	s := fmt.Sprintf("%d", len(p))
	_ = s
	return 0, nil
}
