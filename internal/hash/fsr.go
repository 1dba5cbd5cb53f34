package hash

import "fmt"

// FSR is the "fold and shift, rotate by k" (FS R-k) hash family of
// Sazeides and Smith, used by the DFCM paper with k = 5.
//
// Conceptually, for a level-2 table with 2^n entries, each value in the
// history is folded into n bits (Fold), shifted left by k·age bit
// positions (age 0 = most recent), and the shifted copies are XOR-ed
// into the final n-bit index. Bits shifted beyond position n-1 are
// discarded, so a value stops influencing the index once k·age >= n:
// the effective order is ceil(n/k).
//
// The same index is computed incrementally — the representation a real
// level-1 table would store — as
//
//	h' = ((h << k) ^ Fold(v, n)) & (2^n - 1)
//
// which is what Update implements. The zero value of FSR is not usable;
// construct with NewFSR.
type FSR struct {
	n    uint
	k    uint
	mask uint64
}

// NewFSR returns the FS R-k hash producing n-bit indices.
// It panics if n is 0 or greater than 64, or if k is 0.
func NewFSR(n, k uint) *FSR {
	if n == 0 || n > 64 {
		panic(fmt.Sprintf("hash: FSR index width %d out of range [1,64]", n))
	}
	if k == 0 {
		panic("hash: FSR shift k must be positive")
	}
	return &FSR{n: n, k: k, mask: Mask(n)}
}

// NewFSR5 returns the paper's FS R-5 function for n-bit indices.
func NewFSR5(n uint) *FSR { return NewFSR(n, 5) }

// Update folds value into history h, ageing previous values by k bits.
func (f *FSR) Update(h, value uint64) uint64 {
	return ((h << f.k) ^ Fold(value, f.n)) & f.mask
}

// Shifts holds an FSR's shift counts and mask in the form Fold32
// takes. A caller hoists it out of its per-event loop once, so the
// loop body keeps k, n and the mask in registers instead of reloading
// them through the *FSR on every event.
type Shifts struct {
	k, n, n2 uint // k, n and 2n, the last two clamped to 63
	mask     uint64
}

// Shifts32 returns the Fold32 form of f, and whether Fold32 with it
// equals Update for every 32-bit value. That needs n >= 8, so that
// the four n-bit chunks cover the value, and k < 64, so that the
// shift survives Fold32's &63. n and 2n are clamped to 63: a 32-bit
// value shifted right by 63 is 0, exactly as by any larger count.
func (f *FSR) Shifts32() (Shifts, bool) {
	return Shifts{k: f.k, n: min(f.n, 63), n2: min(2*f.n, 63), mask: f.mask}, f.n >= 8 && f.k < 64
}

// Fold32 is FSR.Update for a 32-bit value, with s from Shifts32.
// With 4n >= 32 the four n-bit chunks cover the whole value (chunks
// i >= 4 are zero), and masking the XOR of chunks equals XOR-ing
// masked chunks, so the result is exactly Update's. t = v ^ v>>2n
// pairs chunks 0 and 2, 1 and 3, so t ^ t>>n is all four chunks in 2
// shifts of v instead of 3. Every count is below 64, and the &63 lets
// the compiler drop the guard a variable shift otherwise pays. The
// data-dependent Fold loop becomes a branchless XOR of shifts, small
// enough to inline into the FCM/DFCM per-event updates.
func Fold32(h uint64, value uint32, s Shifts) uint64 {
	v := uint64(value)
	t := v ^ v>>(s.n2&63)
	return ((h << (s.k & 63)) ^ t ^ t>>(s.n&63)) & s.mask
}

// IndexBits returns n.
func (f *FSR) IndexBits() uint { return f.n }

// Order returns ceil(n/k), the number of values retained by the hash.
func (f *FSR) Order() int { return int((f.n + f.k - 1) / f.k) }

// Name returns e.g. "FS R-5 (n=12)".
func (f *FSR) Name() string { return fmt.Sprintf("FS R-%d (n=%d)", f.k, f.n) }
