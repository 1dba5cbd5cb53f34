package serve

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

// FuzzDecodeFrame drives the frame readers with arbitrary bytes: they
// must never panic, never accept a payload past the max-frame bound,
// and any frame they accept must be the input bytes verbatim and
// survive a re-encode bit-exactly.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte(frameBytes(OpPredictBatch, appendPredictReq(nil, 7, []uint32{1, 2, 3}))), 0)
	f.Add([]byte{}, 0)
	f.Add([]byte{0x56, 0x50, 1, OpStats, 0, 0, 0, 0}, 64)
	f.Add([]byte{0x56, 0x50, 1, OpStats, 0xff, 0xff, 0xff, 0xff}, 64)
	f.Add([]byte{0x00, 0x00, 1, OpStats, 0, 0, 0, 0}, 0)
	f.Fuzz(func(t *testing.T, raw []byte, maxFrame int) {
		if maxFrame > 1<<16 {
			maxFrame = 1 << 16 // keep fuzz memory bounded
		}
		if maxFrame <= 0 {
			maxFrame = DefaultMaxFrame
		}
		fr, err := readResponseFrame(bytes.NewReader(raw), maxFrame, nil)
		if err != nil {
			return
		}
		if len(fr.Payload()) > maxFrame {
			t.Fatalf("accepted %d-byte payload past the %d-byte bound", len(fr.Payload()), maxFrame)
		}
		if !bytes.Equal(fr, raw[:len(fr)]) {
			t.Fatalf("accepted frame is not the input bytes")
		}
		if re := frameBytes(fr.Op(), fr.Payload()); !bytes.Equal(re, fr) {
			t.Fatalf("frame re-encode diverged: % x -> % x", []byte(fr), []byte(re))
		}
		// The server-side reader accepts whatever the client-side one
		// does at the same bound, byte for byte.
		req, oversized, err := ReadRequestFrame(bytes.NewReader(raw), maxFrame, nil)
		if err != nil || oversized || !bytes.Equal(req, fr) {
			t.Fatalf("request reader disagrees: oversized=%v err=%v", oversized, err)
		}
	})
}

// FuzzDecodeMessage drives every VP1 payload decoder with arbitrary
// payloads: no panics, and every accepted payload must re-encode to a
// decodable equivalent (decode∘encode = identity on the accepted
// set) — byte-identical wherever the encoding is canonical.
func FuzzDecodeMessage(f *testing.F) {
	f.Add(appendPredictReq(nil, 1, []uint32{10, 20}))
	f.Add(appendEventReq(nil, 1, []trace.Event{{PC: 4, Value: 9}}))
	f.Add(appendU64(nil, 42))
	f.Add(appendRestoreReq(nil, 42, []byte{0x56, 0x50, 0x53, 0x53}))
	f.Add(appendPredictResp(nil, StatusOK, []uint32{5}))
	f.Add(appendPredictResp(nil, StatusBusy, nil))
	f.Add(appendRunResp(nil, StatusOK, 3))
	f.Add(appendStatusResp(nil, StatusClosed))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		if session, pcs, err := decodePredictReq(p, nil); err == nil {
			if re := appendPredictReq(nil, session, pcs); !bytes.Equal(re, p) {
				t.Fatalf("predict req re-encode diverged")
			}
		}
		if session, events, err := decodeEventReq(p, nil); err == nil {
			if re := appendEventReq(nil, session, events); !bytes.Equal(re, p) {
				t.Fatalf("event req re-encode diverged")
			}
		}
		if session, err := decodeSessionReq(p); err == nil {
			if re := appendU64(nil, session); !bytes.Equal(re, p) {
				t.Fatalf("session req re-encode diverged")
			}
		}
		if session, blob, err := decodeRestoreReq(p); err == nil {
			if re := appendRestoreReq(nil, session, blob); !bytes.Equal(re, p) {
				t.Fatalf("restore req re-encode diverged")
			}
		}
		if st, values, err := decodePredictResp(p, nil); err == nil {
			st2, v2, err := decodePredictResp(appendPredictResp(nil, st, values), nil)
			if err != nil || st2 != st || len(v2) != len(values) {
				t.Fatalf("predict resp round trip: %v", err)
			}
			if st == StatusOK && !bytes.Equal(appendPredictResp(nil, st, values), p) {
				t.Fatalf("predict resp re-encode diverged")
			}
		}
		if st, hits, err := decodeRunResp(p); err == nil {
			st2, h2, err := decodeRunResp(appendRunResp(nil, st, hits))
			if err != nil || st2 != st || (st == StatusOK && h2 != hits) {
				t.Fatalf("run resp round trip: %v", err)
			}
		}
		if st, err := decodeStatusResp(p); err == nil {
			if re := appendStatusResp(nil, st); !bytes.Equal(re, p) {
				t.Fatalf("status resp re-encode diverged")
			}
		}
	})
}

// FuzzDecodeFrameReaderErrors pairs truncated streams with the frame
// readers: a short read must surface an error, never a partial frame.
func FuzzDecodeFrameReaderErrors(f *testing.F) {
	full := frameBytes(OpRunBatch, appendEventReq(nil, 3, []trace.Event{{PC: 8, Value: 1}}))
	for cut := 0; cut < len(full); cut += 3 {
		f.Add(cut)
	}
	f.Fuzz(func(t *testing.T, cut int) {
		if cut < 0 || cut >= len(full) {
			t.Skip()
		}
		if _, err := readResponseFrame(bytes.NewReader(full[:cut]), DefaultMaxFrame, nil); err == nil {
			t.Fatalf("truncated frame (%d of %d bytes) accepted", cut, len(full))
		}
		if _, _, err := ReadRequestFrame(bytes.NewReader(full[:cut]), DefaultMaxFrame, nil); err == nil {
			t.Fatalf("truncated frame (%d of %d bytes) accepted by the request reader", cut, len(full))
		}
	})
}
