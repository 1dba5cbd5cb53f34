package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleTrace(n int, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	t := make(Trace, n)
	pc := uint32(0x1000)
	for i := range t {
		if rng.Intn(4) == 0 {
			pc = 0x1000 + uint32(rng.Intn(256))*4
		}
		t[i] = Event{PC: pc, Value: rng.Uint32() >> uint(rng.Intn(24))}
	}
	return t
}

// replay returns a Source yielding t's events in order.
func replay(t Trace) Source {
	return Func(func() (Event, bool) {
		if len(t) == 0 {
			return Event{}, false
		}
		e := t[0]
		t = t[1:]
		return e, true
	})
}

func TestCollectDrainsSource(t *testing.T) {
	tr := sampleTrace(100, 1)
	if got := Collect(replay(tr), 0); !reflect.DeepEqual(got, tr) {
		t.Error("Collect did not drain the source verbatim")
	}
}

func TestCollectMax(t *testing.T) {
	tr := sampleTrace(100, 2)
	if got := Collect(replay(tr), 10); !reflect.DeepEqual(got, tr[:10]) {
		t.Errorf("Collect(max=10) returned %d events", len(got))
	}
}

func TestFuncSource(t *testing.T) {
	n := 0
	src := Func(func() (Event, bool) {
		if n >= 3 {
			return Event{}, false
		}
		n++
		return Event{PC: uint32(n), Value: uint32(n * 10)}, true
	})
	got := Collect(src, 0)
	if len(got) != 3 || got[2].Value != 30 {
		t.Errorf("Func source yielded %v", got)
	}
}

func TestFileRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 17, 1000} {
		tr := sampleTrace(n, int64(n))
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("n=%d: Write: %v", n, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("n=%d: Read: %v", n, err)
		}
		if len(got) != len(tr) {
			t.Fatalf("n=%d: got %d events, want %d", n, len(got), len(tr))
		}
		for i := range tr {
			if got[i] != tr[i] {
				t.Fatalf("n=%d: event %d = %+v, want %+v", n, i, got[i], tr[i])
			}
		}
	}
}

func TestFileRoundTripQuick(t *testing.T) {
	prop := func(pcs, vals []uint32) bool {
		n := len(pcs)
		if len(vals) < n {
			n = len(vals)
		}
		tr := make(Trace, n)
		for i := 0; i < n; i++ {
			tr[i] = Event{PC: pcs[i], Value: vals[i]}
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(tr) {
			return false
		}
		for i := range tr {
			if got[i] != tr[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFileBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE....."))); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestFileTruncated(t *testing.T) {
	tr := sampleTrace(100, 9)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{0, 2, 5, len(raw) / 2, len(raw) - 1} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("Read of %d/%d bytes succeeded, want error", cut, len(raw))
		}
	}
}

// TestFileHugeCountTruncated: a header claiming 2^31-1 events with no
// event bytes behind it is a truncation error, not an up-front
// allocation of the claimed capacity.
func TestFileHugeCountTruncated(t *testing.T) {
	raw := binary.AppendUvarint([]byte("VTR1"), 1<<31-1)
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("Read of a 2^31-1 event claim with no events succeeded, want error")
	}
}

func TestFileCompression(t *testing.T) {
	// The delta encoding should beat 8 bytes/event on realistic traces.
	tr := sampleTrace(10000, 10)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if perEvent := float64(buf.Len()) / float64(len(tr)); perEvent > 8 {
		t.Errorf("encoding uses %.1f bytes/event, want < 8", perEvent)
	}
}
