package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/trace"
)

// Durable predictor state
//
// Every predictor in this package is pure table state: given the same
// construction parameters and the same mutable state bytes, two
// instances are behaviourally indistinguishable. The Snapshotter
// interface exports exactly that mutable state — no construction
// parameters, no derived caches — so a predictor trained in one
// process can be frozen, shipped, and resumed in another with
// byte-identical subsequent predictions. The framing, versioning and
// checksumming around these raw bytes live in internal/snapshot; this
// layer defines only the per-predictor state layout.
//
// Snapshotter is the servable interface: it belongs to exactly the
// predictor types a Spec can build (last-value, stride, two-delta,
// FCM, DFCM, MetaHybrid, TAGE and the Delayed wrapper), and those are
// the only predictors internal/serve holds, checkpoints or recycles.
// The offline-only types (LastN, Classified and the confidence
// estimators) run in experiments and carry none of it.
//
// Layout discipline: all integers are big-endian (matching the VP1
// wire protocol), and a wrapped predictor's state is embedded as a
// length-prefixed nested block so wrappers compose without knowing
// their children's sizes. Each type states its layout once, in an
// unexported walkState method that lists its stored tables in layout
// order with the bound of every word. A walk runs in one of four
// directions: append and size (AppendState), restore (RestoreState)
// and zero (Reset). All four read the one list, so export, import and
// reset cannot drift apart.

// Snapshotter is a predictor whose complete learned state can be
// exported, re-imported, reset in place and described table by table.
// RestoreState on a freshly constructed predictor must leave it
// byte-for-byte equivalent to the instance AppendState was called on,
// provided both were built with identical parameters; after Reset, a
// predictor's state is byte-for-byte that of a fresh instance.
type Snapshotter interface {
	Predictor
	// AppendState appends the predictor's complete mutable state to b
	// and returns the extended slice.
	AppendState(b []byte) []byte
	// RestoreState replaces the predictor's learned state with data,
	// which must be exactly one AppendState output from an identically
	// configured predictor. On error the predictor's state is
	// unspecified; callers restore into a discardable fresh instance
	// (internal/snapshot does).
	RestoreState(data []byte) error
	// Reset clears all learned state in place, without reallocating
	// tables.
	Reset()
	// StateTables describes the state tables for inspection
	// (cmd/vpstate). Wrappers prefix their components' table names
	// with the component name.
	StateTables() []TableInfo
}

// TableInfo describes one state table of a predictor for inspection
// (cmd/vpstate). Live counts entries that differ from their
// freshly-constructed value.
type TableInfo struct {
	Name    string
	Entries int
	Live    int
}

// ErrState is wrapped by every RestoreState failure, so callers can
// distinguish malformed state from other errors.
var ErrState = errors.New("core: malformed predictor state")

// appendState appends p's state to b. A size-only walk first sums
// the state's length, so b grows at most once.
func appendState(p Predictor, b []byte) []byte {
	size := stateWalk{dir: walkSize}
	walkPredictor(&size, p)
	w := stateWalk{buf: slices.Grow(b, size.off)}
	walkPredictor(&w, p)
	return w.buf
}

// restoreState restores p's state from data, which must be exactly
// one walk long.
func restoreState(p Predictor, data []byte) error {
	w := stateWalk{buf: data, dir: walkRestore}
	walkPredictor(&w, p)
	if err := w.done(); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrState, p.Name(), err)
	}
	return nil
}

// resetState returns p's state to that of a fresh instance in place.
func resetState(p Predictor) {
	w := stateWalk{dir: walkZero}
	walkPredictor(&w, p)
}

// walkDir is the direction of a state walk.
type walkDir uint8

const (
	walkAppend  walkDir = iota // write the state to buf
	walkSize                   // count the bytes an append would write
	walkRestore                // read the state from buf
	walkZero                   // clear the state in place
)

// stateWalk is one pass over a predictor's state. Appending, buf is
// the output and grows; restoring, buf is the input and off the next
// byte to read; sizing, off counts the bytes an append would write;
// zeroing, every column is cleared and buf is unused. The first error
// stops the walk: every later step is a no-op, so a walk needs no
// error checks between its steps.
type stateWalk struct {
	buf []byte
	off int
	dir walkDir
	err error
}

// stores reports whether the walk writes the predictor's state
// (restore and zero), so derived registers must follow it.
func (w *stateWalk) stores() bool { return w.dir == walkRestore || w.dir == walkZero }

// column is one column of a state table: exactly one of the slices is
// set, and restore rejects any word above max. An events column is
// 8 bytes a row, the PC then the value, and takes any word.
type column struct {
	u8  []uint8
	u32 []uint32
	u64 []uint64
	ev  []trace.Event
	max uint64
}

func col8(s []uint8, max uint8) column    { return column{u8: s, max: uint64(max)} }
func col32(s []uint32, max uint32) column { return column{u32: s, max: uint64(max)} }
func col64(s []uint64, max uint64) column { return column{u64: s, max: max} }
func colEvents(s []trace.Event) column    { return column{ev: s} }

// rows returns the column's length and its width in bytes.
func (c column) rows() (n, size int) {
	switch {
	case c.u32 != nil:
		return len(c.u32), 4
	case c.u64 != nil:
		return len(c.u64), 8
	case c.ev != nil:
		return len(c.ev), 8
	}
	return len(c.u8), 1
}

// table walks equal-length columns stored row-interleaved: row i is
// the i-th word of every column, in argument order. A single column is
// a flat table. Each column is one loop, and an append sizes the whole
// table once.
func (w *stateWalk) table(cols ...column) {
	if w.err != nil {
		return
	}
	n, row := cols[0].rows()
	for _, c := range cols[1:] {
		m, size := c.rows()
		if m != n {
			panic("core: state table columns differ in length")
		}
		row += size
	}
	switch w.dir {
	case walkSize:
		w.off += n * row
		return
	case walkZero:
		for _, c := range cols {
			clear(c.u8)
			clear(c.u32)
			clear(c.u64)
			clear(c.ev)
		}
		return
	}
	at := len(w.buf)
	if w.dir == walkRestore {
		if !w.need(uint64(n) * uint64(row)) {
			return
		}
		at = w.off
		w.off += n * row
	} else {
		w.buf = slices.Grow(w.buf, n*row)[:at+n*row]
	}
	for _, c := range cols {
		if w.dir == walkAppend {
			c.append(w.buf[at:], row)
		} else if i := c.restore(w.buf[at:], row); i >= 0 {
			w.err = fmt.Errorf("word at byte %d exceeds %d", at+i*row, c.max)
			return
		}
		_, size := c.rows()
		at += size
	}
}

// append writes the column into b, one word every row bytes.
func (c column) append(b []byte, row int) {
	switch {
	case c.u32 != nil:
		for i, v := range c.u32 {
			binary.BigEndian.PutUint32(b[i*row:], v)
		}
	case c.u64 != nil:
		for i, v := range c.u64 {
			binary.BigEndian.PutUint64(b[i*row:], v)
		}
	case c.ev != nil:
		for i, v := range c.ev {
			binary.BigEndian.PutUint32(b[i*row:], v.PC)
			binary.BigEndian.PutUint32(b[i*row+4:], v.Value)
		}
	default:
		for i, v := range c.u8 {
			b[i*row] = v
		}
	}
}

// restore reads the column from b, one word every row bytes. It stops
// at the first word above max, stores none such, and returns its row;
// it returns -1 when every word is in bounds.
func (c column) restore(b []byte, row int) int {
	switch {
	case c.u32 != nil:
		max := uint32(c.max)
		for i := range c.u32 {
			v := binary.BigEndian.Uint32(b[i*row:])
			if v > max {
				return i
			}
			c.u32[i] = v
		}
	case c.u64 != nil:
		for i := range c.u64 {
			v := binary.BigEndian.Uint64(b[i*row:])
			if v > c.max {
				return i
			}
			c.u64[i] = v
		}
	case c.ev != nil:
		for i := range c.ev {
			c.ev[i] = trace.Event{
				PC:    binary.BigEndian.Uint32(b[i*row:]),
				Value: binary.BigEndian.Uint32(b[i*row+4:]),
			}
		}
	default:
		max := uint8(c.max)
		for i := range c.u8 {
			v := b[i*row]
			if v > max {
				return i
			}
			c.u8[i] = v
		}
	}
	return -1
}

// u32 walks one header word; restore rejects a word above max.
func (w *stateWalk) u32(v *uint32, max uint32) {
	one := [1]uint32{*v}
	w.table(col32(one[:], max))
	if w.stores() {
		*v = one[0]
	}
}

// u64 walks one header word; restore rejects a word above max.
func (w *stateWalk) u64(v *uint64, max uint64) {
	one := [1]uint64{*v}
	w.table(col64(one[:], max))
	if w.stores() {
		*v = one[0]
	}
}

// nested walks p's state as a block prefixed with its byte length, so
// a wrapper need not know its component's size. Restore walks the
// block on its own and requires p to consume all of it; zeroing has
// no prefix to walk.
func (w *stateWalk) nested(p Predictor) {
	switch w.dir {
	case walkZero:
		walkPredictor(w, p)
		return
	case walkSize:
		w.off += 4
		walkPredictor(w, p)
		return
	case walkAppend:
		off := len(w.buf)
		w.buf = append(w.buf, 0, 0, 0, 0)
		walkPredictor(w, p)
		binary.BigEndian.PutUint32(w.buf[off:], uint32(len(w.buf)-off-4))
		return
	}
	var n uint32
	w.u32(&n, math.MaxUint32)
	if !w.need(uint64(n)) {
		return
	}
	inner := stateWalk{buf: w.buf[w.off : w.off+int(n)], dir: walkRestore}
	w.off += int(n)
	walkPredictor(&inner, p)
	if err := inner.done(); err != nil {
		w.err = fmt.Errorf("%s: %w", p.Name(), err)
	}
}

// walkPredictor walks p's state through its walkState method. The
// switch names every type that has one, so a walk stays on its
// caller's stack: the same call through an interface would move every
// walk to the heap, since a wrapper's walk recurses into its
// components.
func walkPredictor(w *stateWalk, p Predictor) {
	switch c := p.(type) {
	case *LastValue:
		c.walkState(w)
	case *Stride:
		c.walkState(w)
	case *TwoDelta:
		c.walkState(w)
	case *FCM:
		c.walkState(w)
	case *DFCM:
		c.walkState(w)
	case *TAGE:
		c.walkState(w)
	case *MetaHybrid:
		c.walkState(w)
	case *Delayed:
		c.walkState(w)
	default:
		panic("core: " + p.Name() + " has no state walk")
	}
}

// done ends a restore: it returns the walk's error, or a trailing-bytes
// error when the walk did not consume all of its input.
func (w *stateWalk) done() error {
	if w.err == nil && w.off != len(w.buf) {
		return fmt.Errorf("%d trailing bytes", len(w.buf)-w.off)
	}
	return w.err
}

// need reports whether the walk is error-free and, restoring, has n
// more input bytes; otherwise it records a truncation error.
func (w *stateWalk) need(n uint64) bool {
	if w.err != nil {
		return false
	}
	if left := uint64(len(w.buf) - w.off); w.dir == walkRestore && n > left {
		w.err = fmt.Errorf("truncated: %d bytes needed at byte %d, %d remain", n, w.off, left)
		return false
	}
	return true
}

// prefixTables returns p's tables with every name prefixed by p's
// name, for wrappers aggregating component tables.
func prefixTables(p Snapshotter) []TableInfo {
	ts := p.StateTables()
	out := make([]TableInfo, len(ts))
	for i, t := range ts {
		t.Name = p.Name() + "." + t.Name
		out[i] = t
	}
	return out
}
