package hash

import "testing"

// FuzzHash checks the algebraic invariants the FS R-k history hash
// must hold for arbitrary inputs: results stay inside the index width,
// Update is pure (same inputs, same output — the level-1 tables store
// hashed histories directly, so impurity would corrupt them), Fold32
// equals Update wherever Shifts32 says it may stand in for it (n in
// 8..64 here), and Fold preserves values that already fit the target
// width.
func FuzzHash(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(12), uint8(5))
	f.Add(uint64(1)<<63, ^uint64(0), uint8(1), uint8(1))
	f.Add(uint64(0xdeadbeef), uint64(42), uint8(16), uint8(3))
	f.Add(uint64(7), uint64(7), uint8(64), uint8(7))
	f.Fuzz(func(t *testing.T, h, value uint64, nRaw, kRaw uint8) {
		n := uint(nRaw%64) + 1 // index widths 1..64
		k := uint(kRaw%16) + 1 // FS R-k shifts 1..16
		mask := Mask(n)

		if got := Fold(value, n); got > mask {
			t.Fatalf("Fold(%#x, %d) = %#x exceeds %d-bit mask", value, n, got, n)
		}
		if value <= mask {
			if got := Fold(value, n); got != value {
				t.Fatalf("Fold(%#x, %d) = %#x; values within the width must fold to themselves", value, n, got)
			}
		}

		fsr := NewFSR(n, k)
		h0 := h & mask // histories live in [0, 2^n)
		r1 := fsr.Update(h0, value)
		r2 := fsr.Update(h0, value)
		if r1 != r2 {
			t.Fatalf("FSR.Update impure: %#x then %#x", r1, r2)
		}
		if r1 > mask {
			t.Fatalf("FSR.Update(%#x, %#x) = %#x exceeds %d-bit index", h0, value, r1, n)
		}
		if s, ok := fsr.Shifts32(); ok {
			if got, want := Fold32(h0, uint32(value), s), fsr.Update(h0, uint64(uint32(value))); got != want {
				t.Fatalf("Fold32(%#x, %#x) = %#x, FS R-%d Update on n=%d gives %#x", h0, uint32(value), got, k, n, want)
			}
		} else if n >= 8 && n <= 30 {
			t.Fatalf("Shifts32 not usable for n=%d k=%d", n, k)
		}

		// Ageing: after Order() updates with a fixed filler, the
		// original history must no longer influence the index.
		filler := value ^ 0x9e3779b97f4a7c15
		a, b := r1, fsr.Update(^h0&mask, value)
		for i := 0; i < fsr.Order(); i++ {
			a = fsr.Update(a, filler)
			b = fsr.Update(b, filler)
		}
		if a != b {
			t.Fatalf("FSR history did not age out after %d updates: %#x vs %#x", fsr.Order(), a, b)
		}
	})
}
