package core

import "testing"

// Property tests pinning the branchless hot-path primitives to the
// branchy implementations they replaced, across the full input range
// each primitive sees in production. The branchy references here are
// the code as it stood before the mask/arithmetic rewrite.

// satConfBranchy is the original if-based saturating counter update.
func satConfBranchy(c, hit, inc, dec, max int32) int32 {
	if hit != 0 {
		c += inc
		if c > max {
			c = max
		}
		return c
	}
	c -= dec
	if c < 0 {
		c = 0
	}
	return c
}

// TestSatConfMatchesBranchy: every counter value in range, both hit
// outcomes, for every (inc, dec, max) shape used by a predictor —
// stride's (1, 2, 7), the confidence estimator's (1, max, max)
// full-reset scheme — plus wider shapes to cover the arithmetic
// generally. dec = max is the interesting edge: a miss must floor at
// 0 from any counter value without wrapping.
func TestSatConfMatchesBranchy(t *testing.T) {
	maxes := []int32{1, 3, 7, 15, 63, 255}
	for _, max := range maxes {
		for _, inc := range []int32{1, 2, 3, max} {
			for _, dec := range []int32{1, 2, max} {
				for c := int32(0); c <= max; c++ {
					for _, hit := range []int32{0, 1} {
						got := satConf(c, hit, inc, dec, max)
						want := satConfBranchy(c, hit, inc, dec, max)
						if got != want {
							t.Fatalf("satConf(%d, hit=%d, +%d, -%d, max=%d) = %d, branchy %d",
								c, hit, inc, dec, max, got, want)
						}
					}
				}
			}
		}
	}
}

// TestHit01: 1 iff the values are equal, over boundary and mixed
// values (including the a^b patterns whose subtraction carries are
// the mechanism under test).
func TestHit01(t *testing.T) {
	vals := []uint32{0, 1, 2, 0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff, 0xdeadbeef, 0x00010000}
	for _, a := range vals {
		for _, b := range vals {
			want := int32(0)
			if a == b {
				want = 1
			}
			if got := hit01(a, b); got != want {
				t.Fatalf("hit01(%#x, %#x) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// truncateBranchy / extendBranchy are the original width-branching
// stride truncation and sign extension.
func truncateBranchy(stride uint32, bits uint) uint32 {
	if bits >= 32 {
		return stride
	}
	return stride & ((1 << bits) - 1)
}

func extendBranchy(stored uint32, bits uint) uint32 {
	if bits >= 32 {
		return stored
	}
	if stored&(1<<(bits-1)) != 0 {
		return stored | ^uint32((1<<bits)-1)
	}
	return stored
}

// TestTruncateExtendMatchBranchy: the mask/shift pair agrees with the
// branchy reference for every stride width 1..32 over boundary
// patterns, and round-trips: extend(truncate(s)) must reproduce any
// stride representable in the width.
func TestTruncateExtendMatchBranchy(t *testing.T) {
	probes := []uint32{
		0, 1, 2, 3, 0x7f, 0x80, 0xff, 0x100,
		0x7fff, 0x8000, 0xffff, 0x10000,
		0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff,
	}
	for bits := uint(1); bits <= 32; bits++ {
		p := NewDFCMWidth(4, 8, bits)
		for _, s := range probes {
			if got, want := s&p.strideMask, truncateBranchy(s, bits); got != want {
				t.Fatalf("w%d: truncate(%#x) = %#x, branchy %#x", bits, s, got, want)
			}
			stored := s & p.strideMask
			if got, want := signExtend(stored, p.extShift), extendBranchy(stored, bits); got != want {
				t.Fatalf("w%d: extend(%#x) = %#x, branchy %#x", bits, stored, got, want)
			}
			// Round trip: a stride already in range survives intact.
			ext := signExtend(stored, p.extShift)
			if ext&p.strideMask != stored {
				t.Fatalf("w%d: truncate(extend(%#x)) = %#x, not a round trip", bits, stored, ext&p.strideMask)
			}
		}
	}
}
