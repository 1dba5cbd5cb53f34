// Seeded-violation fixture for the hot-path-alloc analyzer (hash
// scope). Loaded with import path "repro/internal/hash".
package hash

import "fmt"

type F struct{ n uint }

func (f *F) Update(h, v uint64) uint64 {
	s := fmt.Sprintf("%d", h) // want hot-path-alloc
	_ = s
	return (h << 1) ^ v
}

// Name is cold: fmt allowed.
func (f *F) Name() string { return fmt.Sprintf("f-%d", f.n) }

func Fold(v uint64, n uint) uint64 {
	defer noteFold() // want hot-path-alloc
	return v & Mask(n)
}

type Shifts struct{ k, n uint }

// Shifts32 is hoisted once per chunk: in scope by name.
func (f *F) Shifts32() Shifts {
	go noteFold() // want hot-path-alloc
	return Shifts{k: 1, n: f.n}
}

func Fold32(h uint64, v uint32, s Shifts) uint64 {
	var x any = fmt.Sprint(v) // want hot-path-alloc
	_ = x
	return (h << s.k) ^ uint64(v)
}

func Mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

func noteFold() {}
