package trace

import (
	"bytes"
	"testing"
)

// FuzzReadAuto checks both trace containers against corrupt input:
// never panic, never return garbage without an error.
func FuzzReadAuto(f *testing.F) {
	tr := sampleTrace(64, 3)
	var plain, comp bytes.Buffer
	if err := Write(&plain, tr); err != nil {
		f.Fatal(err)
	}
	if err := WriteCompressed(&comp, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(comp.Bytes())
	f.Add([]byte("VTR1"))
	f.Add([]byte("VTR1\xff\xff\xff\xff\x07")) // claims 2^31-1 events
	f.Add([]byte("VTRZ\x00\x01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := ReadAuto(bytes.NewReader(raw))
		if err == nil {
			// A successful parse must re-encode and re-parse to the
			// same events.
			var out bytes.Buffer
			if err := Write(&out, got); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			again, err := Read(&out)
			if err != nil || len(again) != len(got) {
				t.Fatalf("round trip after fuzz parse: %v", err)
			}
		}
	})
}
