package hash

import (
	"testing"
	"testing/quick"
)

func TestFoldRange(t *testing.T) {
	for _, n := range []uint{1, 3, 5, 8, 12, 16, 20, 31, 63} {
		for _, v := range []uint64{0, 1, 0xdeadbeef, ^uint64(0), 1 << 63} {
			if f := Fold(v, n); f > Mask(n) {
				t.Errorf("Fold(%#x, %d) = %#x exceeds %d bits", v, n, f, n)
			}
		}
	}
}

func TestFoldIdentityWhenWide(t *testing.T) {
	for _, v := range []uint64{0, 7, 0xabcdef0123456789} {
		if got := Fold(v, 64); got != v {
			t.Errorf("Fold(%#x, 64) = %#x, want identity", v, got)
		}
	}
}

func TestFoldZeroWidth(t *testing.T) {
	if got := Fold(0x1234, 0); got != 0 {
		t.Errorf("Fold with n=0 = %#x, want 0", got)
	}
}

func TestFoldSmallValuesInjective(t *testing.T) {
	// Values that fit in n bits fold to themselves, so they are distinct.
	n := uint(12)
	seen := make(map[uint64]uint64)
	for v := uint64(0); v < 1<<n; v += 37 {
		f := Fold(v, n)
		if f != v {
			t.Fatalf("Fold(%#x, %d) = %#x, want identity for in-range values", v, n, f)
		}
		if prev, ok := seen[f]; ok {
			t.Fatalf("collision: %#x and %#x both fold to %#x", prev, v, f)
		}
		seen[f] = v
	}
}

func TestFoldXORChunksProperty(t *testing.T) {
	// Folding is linear under XOR: Fold(a^b) == Fold(a)^Fold(b).
	f := func(a, b uint64) bool {
		const n = 11
		return Fold(a^b, n) == Fold(a, n)^Fold(b, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMask(t *testing.T) {
	cases := []struct {
		n    uint
		want uint64
	}{
		{0, 0},
		{1, 1},
		{8, 0xff},
		{20, 0xfffff},
		{64, ^uint64(0)},
		{70, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Mask(c.n); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestFSROrderMatchesPaperTable(t *testing.T) {
	// The paper tabulates order = ceil(n/5) for L2 sizes 2^8..2^20:
	// n:     8  10 12 14 16 18 20
	// order: 2  2  3  3  4  4  4
	want := map[uint]int{8: 2, 10: 2, 12: 3, 14: 3, 16: 4, 18: 4, 20: 4}
	for n, ord := range want {
		f := NewFSR5(n)
		if f.Order() != ord {
			t.Errorf("FS R-5 order for n=%d: got %d, want %d", n, f.Order(), ord)
		}
	}
}

func TestFSRUpdateRange(t *testing.T) {
	f := NewFSR5(12)
	prop := func(h, v uint64) bool {
		return f.Update(h&Mask(12), v) <= Mask(12)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFold32MatchesUpdate(t *testing.T) {
	// Fold32 is the branchless form of Update for 32-bit values on
	// n >= 8; it must agree with Update bit for bit on every index
	// width and shift it is used with. The core tables use n up to 30
	// and figure ablation-hash builds FSRs with k != 5. From n = 22 on
	// 3n >= 64, so the fourth chunk's shift only works composed as
	// (v>>2n)>>n; from n = 32 on the 2n count itself is clamped.
	for n := uint(8); n <= 64; n++ {
		for k := uint(1); k <= 16; k++ {
			f := NewFSR(n, k)
			s, ok := f.Shifts32()
			if !ok {
				t.Fatalf("n=%d k=%d: Shifts32 not usable", n, k)
			}
			prop := func(h uint64, v uint32) bool {
				h &= Mask(n)
				return Fold32(h, v, s) == f.Update(h, uint64(v))
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
				t.Errorf("n=%d k=%d: %v", n, k, err)
			}
		}
	}
	for _, n := range []uint{1, 7} {
		if _, ok := NewFSR5(n).Shifts32(); ok {
			t.Errorf("n=%d: Shifts32 usable, but four %d-bit chunks cannot cover a 32-bit value", n, n)
		}
	}
}

func TestFSRAgesOutOldValues(t *testing.T) {
	// After Order() updates, the starting history must not matter.
	f := NewFSR5(12)
	vals := []uint64{0x1111, 0x2222, 0x3333}
	if len(vals) < f.Order() {
		t.Fatalf("need at least %d values", f.Order())
	}
	h1, h2 := uint64(0), Mask(12)
	for _, v := range vals {
		h1 = f.Update(h1, v)
		h2 = f.Update(h2, v)
	}
	if h1 != h2 {
		t.Errorf("histories differ after %d updates: %#x vs %#x", len(vals), h1, h2)
	}
}

func TestFSRRetainsRecentValues(t *testing.T) {
	// Within the order window, changing one value should usually change
	// the index (it always does for values below 2^(n-k) at age 1).
	f := NewFSR5(16)
	h1 := f.Update(f.Update(0, 5), 9)
	h2 := f.Update(f.Update(0, 6), 9)
	if h1 == h2 {
		t.Error("index insensitive to age-1 value")
	}
}

func TestFSRConstantHistoryIsFixedPoint(t *testing.T) {
	// Feeding the same value repeatedly must converge to a fixed point:
	// this is what makes DFCM map whole stride patterns to one L2 entry.
	f := NewFSR5(14)
	for _, v := range []uint64{0, 1, 4, 0xffffffff, 123456789} {
		h := uint64(0)
		for i := 0; i < f.Order()+4; i++ {
			h = f.Update(h, v)
		}
		if next := f.Update(h, v); next != h {
			t.Errorf("value %#x: history %#x not a fixed point (next %#x)", v, h, next)
		}
	}
}

func TestFSRDistinctStridesDistinctFixedPoints(t *testing.T) {
	f := NewFSR5(12)
	fixed := func(v uint64) uint64 {
		h := uint64(0)
		for i := 0; i < 8; i++ {
			h = f.Update(h, v)
		}
		return h
	}
	seen := make(map[uint64]uint64)
	for v := uint64(1); v < 200; v++ {
		fp := fixed(v)
		if prev, ok := seen[fp]; ok {
			t.Fatalf("strides %d and %d share fixed point %#x", prev, v, fp)
		}
		seen[fp] = v
	}
}

func TestNewFSRPanics(t *testing.T) {
	for _, c := range []struct{ n, k uint }{{0, 5}, {65, 5}, {12, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFSR(%d, %d) did not panic", c.n, c.k)
				}
			}()
			NewFSR(c.n, c.k)
		}()
	}
}

func TestFSRName(t *testing.T) {
	if got := NewFSR5(12).Name(); got != "FS R-5 (n=12)" {
		t.Errorf("Name() = %q", got)
	}
}

func BenchmarkFSR5Update(b *testing.B) {
	f := NewFSR5(16)
	var h uint64
	for i := 0; i < b.N; i++ {
		h = f.Update(h, uint64(i)*2654435761)
	}
	_ = h
}

func BenchmarkFold(b *testing.B) {
	var s uint64
	for i := 0; i < b.N; i++ {
		s ^= Fold(uint64(i)*0x9e3779b97f4a7c15, 16)
	}
	_ = s
}

func TestAccessors(t *testing.T) {
	if f := NewFSR(12, 5); f.IndexBits() != 12 || f.Order() != 3 {
		t.Errorf("FSR accessors: bits %d order %d", f.IndexBits(), f.Order())
	}
}
