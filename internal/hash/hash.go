// Package hash provides the history hashing functions used by two-level
// context-based value predictors (FCM and DFCM).
//
// A context predictor keeps, per static instruction, a compressed history
// of recently produced values; that history indexes a shared level-2
// table. The quality of the compression — how uniformly distinct
// histories spread over level-2 entries — largely determines predictor
// accuracy. Sazeides and Smith ("Implementations of Context Based Value
// Predictors", TR ECE97-8) survey such functions; the DFCM paper (Goeman,
// Vandierendonck, De Bosschere, HPCA 2001) adopts their FS R-5 function,
// which this package implements along with the rest of the FS R-k
// family. FSR is the one history hash: the predictors hold a *FSR and
// fold each value with the inlined Fold32 wherever it is exact.
package hash

// Fold compresses a 64-bit value into n bits by XOR-ing together the
// ceil(64/n) consecutive n-bit chunks of the value. Fold(v, n) < 2^n.
// Folding preserves every bit of the input in some output position, so
// distinct low-entropy values (small integers, small strides) stay
// distinct as long as they fit in n bits.
func Fold(v uint64, n uint) uint64 {
	if n == 0 {
		return 0
	}
	if n >= 64 {
		return v
	}
	mask := (uint64(1) << n) - 1
	var f uint64
	for v != 0 {
		f ^= v & mask
		v >>= n
	}
	return f
}

// Mask returns the n-bit all-ones mask, 2^n - 1. n must be <= 64.
func Mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}
