package core

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// Delayed wraps a predictor so that table updates take effect only
// after a further delay predictions have been made, modeling the
// pipeline distance between making a prediction and learning the
// instruction's outcome (paper section 4.5). With delay 0 the wrapper
// is behaviourally identical to the wrapped predictor.
//
// If the same static instruction recurs within the delay window, its
// later predictions are served from stale tables — exactly the effect
// the paper measures in Figure 17.
type Delayed struct {
	p     Snapshotter
	delay int
	// ring is a FIFO of updates not yet applied: n entries starting at
	// head, wrapping at len(ring). It holds at most delay+1 entries and
	// grows on demand up to that size, so a huge delay costs memory
	// only for updates that actually arrive.
	ring    []trace.Event
	head, n int
}

// NewDelayed wraps p with an update delay of delay predictions.
// It panics if delay is negative. The ring starts at its minimum size,
// so the first few updates in flight allocate nothing.
func NewDelayed(p Snapshotter, delay int) *Delayed {
	if delay < 0 {
		panic("core: negative update delay")
	}
	d := &Delayed{p: p, delay: delay}
	d.grow()
	return d
}

// Predict first applies every pending update older than the delay
// window, then predicts with the wrapped predictor.
func (d *Delayed) Predict(pc uint32) uint32 {
	for d.n > d.delay {
		u := d.pop()
		d.p.Update(u.PC, u.Value)
	}
	return d.p.Predict(pc)
}

// Update enqueues the outcome; it reaches the wrapped predictor's
// tables only after delay further predictions. On a full ring the
// oldest update is applied first: the next Predict would apply it
// before anything else reads the tables, so applying it now changes no
// prediction.
func (d *Delayed) Update(pc, value uint32) {
	if d.n > d.delay {
		u := d.pop()
		d.p.Update(u.PC, u.Value)
	}
	if d.n == len(d.ring) {
		d.grow()
	}
	i := d.head + d.n
	if i >= len(d.ring) {
		i -= len(d.ring)
	}
	d.ring[i] = trace.Event{PC: pc, Value: value}
	d.n++
}

// pop dequeues the oldest pending update.
func (d *Delayed) pop() trace.Event {
	u := d.ring[d.head]
	d.head++
	if d.head == len(d.ring) {
		d.head = 0
	}
	d.n--
	return u
}

// drop discards the r <= n oldest pending updates, which RunBatch has
// applied.
func (d *Delayed) drop(r int) {
	d.n -= r
	d.head += r
	if d.head >= len(d.ring) {
		d.head -= len(d.ring)
	}
}

// pushAll enqueues evs in order. The caller guarantees that n+len(evs)
// stays within delay+1, so growing terminates.
func (d *Delayed) pushAll(evs []trace.Event) {
	for d.n+len(evs) > len(d.ring) {
		d.grow()
	}
	i := d.head + d.n
	if i >= len(d.ring) {
		i -= len(d.ring)
	}
	k := copy(d.ring[i:], evs)
	copy(d.ring, evs[k:])
	d.n += len(evs)
}

// grow doubles the ring, capped at delay+1 entries, and unwraps its
// contents to start at index 0. The cap is compared against delay,
// not delay+1, so a delay of math.MaxInt cannot overflow.
func (d *Delayed) grow() {
	size := max(2*len(d.ring), 8)
	if d.delay < size {
		size = d.delay + 1
	}
	ring := make([]trace.Event, size)
	k := copy(ring, d.ring[d.head:])
	copy(ring[k:], d.ring[:d.head])
	d.ring, d.head = ring, 0
}

// Reset implements Snapshotter: the pending queue is discarded (not
// applied) and the wrapped predictor is reset.
func (d *Delayed) Reset() { resetState(d) }

// walkState lists the state: the count of not-yet-applied updates
// (at most delay+1), the updates oldest-first as one events table (two
// when the pending run wraps the ring's end), then the wrapped
// predictor's nested state. Restore checks the claimed count against
// the bytes that actually arrived before it allocates the ring; zeroing
// empties the ring in place.
func (d *Delayed) walkState(w *stateWalk) {
	n := uint32(d.n)
	w.u32(&n, uint32(min(uint64(d.delay)+1, math.MaxUint32)))
	switch w.dir {
	case walkRestore:
		if !w.need(8 * uint64(n)) {
			return
		}
		d.ring, d.head, d.n = make([]trace.Event, n), 0, int(n)
	case walkZero:
		d.head, d.n = 0, 0
	}
	end := min(d.head+d.n, len(d.ring))
	w.table(colEvents(d.ring[d.head:end]))
	w.table(colEvents(d.ring[:d.n-(end-d.head)]))
	w.nested(d.p)
}

// AppendState implements Snapshotter.
func (d *Delayed) AppendState(b []byte) []byte { return appendState(d, b) }

// RestoreState implements Snapshotter.
func (d *Delayed) RestoreState(data []byte) error { return restoreState(d, data) }

// StateTables implements Snapshotter.
func (d *Delayed) StateTables() []TableInfo {
	return append([]TableInfo{{Name: "pending", Entries: d.n, Live: d.n}}, prefixTables(d.p)...)
}

// Name implements Predictor.
func (d *Delayed) Name() string { return fmt.Sprintf("%s@delay%d", d.p.Name(), d.delay) }

// SizeBits implements Predictor (the delay queue models pipeline
// state, not predictor storage, and is not counted).
func (d *Delayed) SizeBits() int64 { return d.p.SizeBits() }
