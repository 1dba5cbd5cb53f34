package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// frameBytes builds a complete frame the way every connection does:
// header, payload appended in place, length patched.
func frameBytes(op byte, payload []byte) Frame {
	return endFrame(append(beginFrame(nil, op), payload...))
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	f := frameBytes(OpRunBatch, payload)
	if want := []byte{0x56, 0x50, 1, OpRunBatch, 0, 0, 0, 5, 1, 2, 3, 4, 5}; !bytes.Equal(f, want) {
		t.Fatalf("frame % x, want % x", []byte(f), want)
	}
	got, err := readResponseFrame(bytes.NewReader(f), DefaultMaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op() != OpRunBatch || !bytes.Equal(got.Payload(), payload) || !bytes.Equal(got, f) {
		t.Errorf("round trip: op=%#x payload=%v", got.Op(), got.Payload())
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	f, err := readResponseFrame(bytes.NewReader(frameBytes(OpStats, nil)), DefaultMaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op() != OpStats || len(f.Payload()) != 0 {
		t.Errorf("op=%#x len=%d", f.Op(), len(f.Payload()))
	}
}

// TestFrameReadReusesStorage: a frame that fits the caller's buffer
// is read into it, header included, and a new header overwrites the
// previous frame's.
func TestFrameReadReusesStorage(t *testing.T) {
	buf := make([]byte, 0, 64)
	var stream bytes.Buffer
	stream.Write(frameBytes(OpRunBatch, []byte{9, 9, 9}))
	stream.Write(frameBytes(OpStats, nil))
	f, err := readResponseFrame(&stream, DefaultMaxFrame, buf)
	if err != nil || &f[0] != &buf[:1][0] {
		t.Fatalf("first frame not read into the caller's buffer: %v", err)
	}
	f, err = readResponseFrame(&stream, DefaultMaxFrame, f)
	if err != nil || &f[0] != &buf[:1][0] || f.Op() != OpStats || len(f) != headerSize {
		t.Fatalf("second frame: op=%#x len=%d err=%v", f.Op(), len(f), err)
	}
}

func TestFrameGuards(t *testing.T) {
	read := func(raw []byte, maxFrame int) error {
		_, err := readResponseFrame(bytes.NewReader(raw), maxFrame, nil)
		return err
	}
	if err := read([]byte("XXxxxxxx"), DefaultMaxFrame); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	if err := read([]byte{0x56, 0x50, 99, OpStats, 0, 0, 0, 0}, DefaultMaxFrame); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	// Oversized frame rejected before allocating the payload.
	big := frameBytes(OpStats, make([]byte, 100))
	if err := read(big, 50); !errors.Is(err, ErrFrameSize) {
		t.Errorf("oversized: %v", err)
	}
	if err := read(big[:len(big)-10], DefaultMaxFrame); err == nil {
		t.Error("truncated frame read succeeded")
	}
	if err := read([]byte{0x56}, DefaultMaxFrame); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated header: %v", err)
	}
}

// TestReadRequestFrameCaps: ordinary requests are bounded by maxFrame
// and drained when over it, RestoreSession requests by
// MaxSnapshotFrame, and only a frame past MaxSnapshotFrame is an
// error.
func TestReadRequestFrameCaps(t *testing.T) {
	var stream bytes.Buffer
	stream.Write(frameBytes(OpRunBatch, make([]byte, 100)))
	stream.Write(frameBytes(OpRestoreSession, make([]byte, 100)))
	stream.Write(frameBytes(OpStats, nil))
	f, oversized, err := ReadRequestFrame(&stream, 64, nil)
	if err != nil || !oversized || f.Op() != OpRunBatch || len(f) != headerSize {
		t.Fatalf("oversized RunBatch: op=%#x len=%d oversized=%v err=%v", f.Op(), len(f), oversized, err)
	}
	f, oversized, err = ReadRequestFrame(&stream, 64, f)
	if err != nil || oversized || f.Op() != OpRestoreSession || len(f.Payload()) != 100 {
		t.Fatalf("RestoreSession past maxFrame: len=%d oversized=%v err=%v", len(f), oversized, err)
	}
	f, oversized, err = ReadRequestFrame(&stream, 64, f)
	if err != nil || oversized || f.Op() != OpStats {
		t.Fatalf("stream lost sync after a drained frame: op=%#x err=%v", f.Op(), err)
	}
	insane := []byte{0x56, 0x50, 1, OpRestoreSession, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadRequestFrame(bytes.NewReader(insane), 64, nil); !errors.Is(err, ErrFrameSize) {
		t.Errorf("frame past MaxSnapshotFrame: %v", err)
	}
}

func TestPredictReqRoundTrip(t *testing.T) {
	pcs := []uint32{0x1000, 0x1004, 0xdeadbeef}
	session, got, err := decodePredictReq(appendPredictReq(nil, 42, pcs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if session != 42 || !reflect.DeepEqual(got, pcs) {
		t.Errorf("session=%d pcs=%v", session, got)
	}
	// Empty batch is legal.
	if _, got, err := decodePredictReq(appendPredictReq(nil, 7, nil), nil); err != nil || len(got) != 0 {
		t.Errorf("empty batch: %v %v", got, err)
	}
	// Count/body mismatch rejected.
	bad := appendPredictReq(nil, 1, pcs)[:14]
	if _, _, err := decodePredictReq(bad, nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("mismatched count: %v", err)
	}
	if _, _, err := decodePredictReq([]byte{1, 2}, nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("short payload: %v", err)
	}
}

func TestEventReqRoundTrip(t *testing.T) {
	events := []trace.Event{{PC: 0x40, Value: 9}, {PC: 0x44, Value: 0xffffffff}}
	session, got, err := decodeEventReq(appendEventReq(nil, 99, events), nil)
	if err != nil {
		t.Fatal(err)
	}
	if session != 99 || !reflect.DeepEqual(got, events) {
		t.Errorf("session=%d events=%v", session, got)
	}
	bad := appendEventReq(nil, 1, events)[:17]
	if _, _, err := decodeEventReq(bad, nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("mismatched count: %v", err)
	}
}

func TestSessionReqRoundTrip(t *testing.T) {
	id, err := decodeSessionReq(appendU64(nil, 1<<40))
	if err != nil || id != 1<<40 {
		t.Errorf("id=%d err=%v", id, err)
	}
	if _, err := decodeSessionReq([]byte{1, 2, 3}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short session req: %v", err)
	}
}

func TestPredictRespRoundTrip(t *testing.T) {
	values := []uint32{1, 2, 3}
	st, got, err := decodePredictResp(appendPredictResp(nil, StatusOK, values), nil)
	if err != nil || st != StatusOK || !reflect.DeepEqual(got, values) {
		t.Errorf("st=%v values=%v err=%v", st, got, err)
	}
	// Non-OK statuses carry no values.
	st, got, err = decodePredictResp(appendPredictResp(nil, StatusBusy, values), nil)
	if err != nil || st != StatusBusy || got != nil {
		t.Errorf("busy: st=%v values=%v err=%v", st, got, err)
	}
	if _, _, err := decodePredictResp(nil, nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty resp: %v", err)
	}
}

func TestRunRespRoundTrip(t *testing.T) {
	st, hits, err := decodeRunResp(appendRunResp(nil, StatusOK, 12345))
	if err != nil || st != StatusOK || hits != 12345 {
		t.Errorf("st=%v hits=%d err=%v", st, hits, err)
	}
	st, hits, err = decodeRunResp(appendRunResp(nil, StatusClosed, 777))
	if err != nil || st != StatusClosed || hits != 0 {
		t.Errorf("closed: st=%v hits=%d err=%v", st, hits, err)
	}
}

// TestBatchCodecProperty: over random batch lengths, the word-at-a-time
// batch codec matches a field-by-field big-endian reference encoding,
// appends after existing bytes, decodes back exactly into scratch of
// any capacity, and rejects every truncated or odd-length payload with
// ErrTruncated.
func TestBatchCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prefix := []byte{0xaa, 0xbb, 0xcc}
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(3000)
		if iter < 3 {
			n = []int{0, 1, 2048}[iter]
		}
		session := rng.Uint64()
		events := make([]trace.Event, n)
		pcs := make([]uint32, n)
		for i := range events {
			events[i] = trace.Event{PC: rng.Uint32(), Value: rng.Uint32()}
			pcs[i] = events[i].PC
		}
		// Scratch smaller than, equal to, or larger than the batch.
		evScratch := make([]trace.Event, rng.Intn(n+8))
		pcScratch := make([]uint32, rng.Intn(n+8))

		refEv := appendU32(appendU64(nil, session), uint32(n))
		refPC := append([]byte(nil), refEv...)
		refVal := appendU32(nil, uint32(n))
		for _, e := range events {
			refEv = appendU32(appendU32(refEv, e.PC), e.Value)
			refPC = appendU32(refPC, e.PC)
			refVal = appendU32(refVal, e.PC)
		}

		ev := appendEventReq(append([]byte(nil), prefix...), session, events)
		if !bytes.Equal(ev[:len(prefix)], prefix) || !bytes.Equal(ev[len(prefix):], refEv) {
			t.Fatalf("n=%d: event request diverges from the reference encoding", n)
		}
		pr := appendPredictReq(append([]byte(nil), prefix...), session, pcs)
		if !bytes.Equal(pr[:len(prefix)], prefix) || !bytes.Equal(pr[len(prefix):], refPC) {
			t.Fatalf("n=%d: predict request diverges from the reference encoding", n)
		}
		vr := appendPredictResp(nil, StatusOK, pcs)
		if vr[0] != byte(StatusOK) || !bytes.Equal(vr[1:], refVal) {
			t.Fatalf("n=%d: predict response diverges from the reference encoding", n)
		}
		ev, pr = ev[len(prefix):], pr[len(prefix):]

		s, gotEv, err := decodeEventReq(ev, evScratch)
		if err != nil || s != session || len(gotEv) != n || (n > 0 && !reflect.DeepEqual(gotEv, events)) {
			t.Fatalf("n=%d: event round trip: session=%d len=%d err=%v", n, s, len(gotEv), err)
		}
		s, gotPC, err := decodePredictReq(pr, pcScratch)
		if err != nil || s != session || len(gotPC) != n || (n > 0 && !reflect.DeepEqual(gotPC, pcs)) {
			t.Fatalf("n=%d: predict round trip: session=%d len=%d err=%v", n, s, len(gotPC), err)
		}
		st, gotVal, err := decodePredictResp(vr, pcScratch)
		if err != nil || st != StatusOK || len(gotVal) != n || (n > 0 && !reflect.DeepEqual(gotVal, pcs)) {
			t.Fatalf("n=%d: predict response round trip: len=%d err=%v", n, len(gotVal), err)
		}

		// Truncations: short of the header, mid-entry, one entry
		// short; odd lengths: 1..7 trailing bytes.
		for _, p := range [][]byte{ev, pr, vr} {
			cuts := []int{0, 1, 4, 11, len(p) - 1, len(p) - 4, rng.Intn(len(p))}
			for _, cut := range cuts {
				if cut < 0 || cut >= len(p) {
					continue
				}
				checkTruncated(t, n, p, p[:cut])
			}
			for extra := 1; extra < 8; extra++ {
				checkTruncated(t, n, p, append(append([]byte(nil), p...), make([]byte, extra)...))
			}
		}
	}
}

// checkTruncated requires the decoder for orig's shape to reject bad
// with ErrTruncated.
func checkTruncated(t *testing.T, n int, orig, bad []byte) {
	t.Helper()
	var err error
	switch {
	case len(orig) == 12+8*n:
		_, _, err = decodeEventReq(bad, nil)
	case len(orig) == 12+4*n:
		_, _, err = decodePredictReq(bad, nil)
	default:
		_, _, err = decodePredictResp(bad, nil)
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("n=%d: %d-byte payload (of %d) decoded with err=%v, want ErrTruncated", n, len(bad), len(orig), err)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		StatusOK: "ok", StatusBusy: "busy", StatusClosed: "closed",
		StatusBadRequest: "bad-request", StatusUnsupported: "unsupported",
		Status(42): "status(42)",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

// TestSnapshotRespUnsupported pins the client-side decode of a
// SnapshotSession answered StatusUnsupported, from its wire bytes.
func TestSnapshotRespUnsupported(t *testing.T) {
	raw, err := hex.DecodeString("565001860000000104")
	if err != nil {
		t.Fatal(err)
	}
	f, err := readResponseFrame(bytes.NewReader(raw), MaxSnapshotFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, blob, err := decodeSnapshotResp(f.Payload())
	if err != nil || st != StatusUnsupported || blob != nil || f.Op() != OpSnapshotSession|respFlag {
		t.Errorf("decoded op %#x, status %v, blob % x, err %v; want unsupported snapshot answer", f.Op(), st, blob, err)
	}
}

// TestFrameLengthField: the patched length is the payload size for
// every frame a connection builds, including a response built over a
// previous, longer frame in the same buffer.
func TestFrameLengthField(t *testing.T) {
	buf := appendEventReq(beginFrame(nil, OpRunBatch), 1, make([]trace.Event, 40))
	f := ResponseFrame(buf, OpRunBatch, StatusBusy, nil)
	if !bytes.Equal(f, []byte{0x56, 0x50, 1, OpRunBatch | respFlag, 0, 0, 0, 1, byte(StatusBusy)}) {
		t.Errorf("status frame % x", []byte(f))
	}
	if got := binary.BigEndian.Uint32(endFrame(buf)[4:]); got != 12+8*40 {
		t.Errorf("length field %d, want %d", got, 12+8*40)
	}
}
