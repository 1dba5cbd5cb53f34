// Seeded-violation fixture for the hot-path-alloc analyzer (core
// scope). Loaded with import path "repro/internal/core".
package core

import (
	"fmt"
	"reflect"
)

type Hot struct {
	t    []uint32
	name string
}

func (h *Hot) Predict(pc uint32) uint32 {
	s := fmt.Sprintf("pc=%d", pc) // want hot-path-alloc
	_ = s
	return h.t[pc&7]
}

func (h *Hot) Update(pc, v uint32) {
	defer func() { _ = recover() }() // want hot-path-alloc
	x := any(v)                      // want hot-path-alloc
	_ = x
	h.t[pc&7] = v
}

// runEach is the generic per-event replay loop — in scope as a
// top-level function.
func runEach(h *Hot, batch []uint32) int {
	n := 0
	for _, v := range batch {
		n += len(fmt.Sprint(v)) // want hot-path-alloc
	}
	return n
}

// RunBatch is the concrete-type chunk loop — in scope like the
// per-event methods it fuses.
func (h *Hot) RunBatch(batch []uint32) int {
	n := 0
	for _, v := range batch {
		fmt.Println(v) // want hot-path-alloc
		n += int(h.t[v&7])
	}
	return n
}

// dfcmStep is a step helper shared by Update and RunBatch — in scope
// as a top-level function.
func dfcmStep(t []uint32, i int, v uint32) int32 {
	fmt.Println(v) // want hot-path-alloc
	t[i] = v
	return 0
}

// delayedSteps, drop and pushAll are the delayed-update kernel's
// helpers, run once per chunk — in scope by name.
func (h *Hot) delayedSteps(upd, ev []uint32) uint64 {
	defer h.drop(0) // want hot-path-alloc
	return uint64(len(upd) + len(ev))
}

func (h *Hot) drop(r int) {
	h.name = fmt.Sprint(r) // want hot-path-alloc
}

func (h *Hot) pushAll(evs []uint32) {
	_ = reflect.ValueOf(evs) // want hot-path-alloc
}

// Name is a cold path: fmt is fine here.
func (h *Hot) Name() string { return fmt.Sprintf("hot-%d", len(h.t)) }

// Logged demonstrates suppression on a hot path.
type Logged struct{ t []uint32 }

func (l *Logged) Predict(pc uint32) uint32 {
	//lint:ignore hot-path-alloc fixture: debug build only
	s := fmt.Sprintf("%d", pc)
	_ = s
	return l.t[0]
}
