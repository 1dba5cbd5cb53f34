package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/core"
)

// FuzzDecodeSnapshot feeds the snapshot decoder arbitrary bytes:
// malformed headers, truncated tables, bad checksums and hostile
// section lengths must surface as errors — never a panic, and never an
// allocation past the decoder's bound. Anything that does decode must
// re-encode, and if its spec and state are coherent the snapshot must
// restore into a live predictor.
func FuzzDecodeSnapshot(f *testing.F) {
	// Seed with a valid snapshot of each predictor family so the fuzzer
	// starts from deep, structurally correct inputs.
	for _, spec := range []core.Spec{
		{Kind: "lvp", L1: 3},
		{Kind: "dfcm", L1: 3, L2: 4},
		{Kind: "hybrid", L1: 3, L2: 4, Delay: 2},
		{Kind: "tage", L1: 3, L2: 3, Tables: 2, Tag: 5, HistMin: 2, HistMax: 8},
	} {
		p, err := spec.New()
		if err != nil {
			f.Fatal(err)
		}
		core.Run(p, trainEvents(64))
		snap, err := Capture(spec, p, Meta{Session: 1, Predictions: 64})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if spec.Kind == "tage" {
			// Deep tage-shaped corruptions: a frame truncated inside the
			// spec-extension section, and a checksum-valid frame whose
			// extension claims a table count Spec.New must reject
			// (13 > core.TAGEMaxTables) — that one decodes cleanly and
			// fails only at Restore, exercising the validation seam.
			full := buf.Bytes()
			// Layout: header, spec section (payload 1+len("tage")+3+4 =
			// 12 bytes), then the specx section; its payload starts after
			// that second section header.
			specxPayload := headerSize + sectionSize + 12 + sectionSize
			f.Add(full[:specxPayload+3]) // cut mid-extension
			bad := append([]byte(nil), full...)
			bad[specxPayload] = 13 // tables byte
			binary.BigEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
			f.Add(bad)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x56, 0x50, 0x53, 0x53, 0x00, 0x01, 0x00, 0x00})

	// The bound keeps a hostile length claim from turning into a giant
	// allocation; real inputs here are tiny.
	const fuzzMax = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeMax(bytes.NewReader(data), fuzzMax)
		if err != nil {
			return
		}
		// A decoded snapshot must survive re-encoding...
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		// ...and restoring must either build a working predictor or
		// reject the state — it must not panic on fuzzer-shaped state.
		if p, err := s.Restore(); err == nil {
			p.Update(0x1000, 42)
			_ = p.Predict(0x1000)
		}
	})
}
