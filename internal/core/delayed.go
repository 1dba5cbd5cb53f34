package core

import (
	"encoding/binary"
	"fmt"
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
	p     Predictor
	delay int
	// ring is a FIFO of updates not yet applied: n entries starting at
	// head, wrapping at len(ring). It holds at most delay+1 entries and
	// grows on demand up to that size, so a huge delay costs memory
	// only for updates that actually arrive.
	ring    []pendingUpdate
	head, n int
}

type pendingUpdate struct {
	pc    uint32
	value uint32
}

// NewDelayed wraps p with an update delay of delay predictions.
// It panics if delay is negative. The ring starts at its minimum size,
// so the first few updates in flight allocate nothing.
func NewDelayed(p Predictor, delay int) *Delayed {
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
		d.p.Update(u.pc, u.value)
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
		d.p.Update(u.pc, u.value)
	}
	if d.n == len(d.ring) {
		d.grow()
	}
	i := d.head + d.n
	if i >= len(d.ring) {
		i -= len(d.ring)
	}
	d.ring[i] = pendingUpdate{pc: pc, value: value}
	d.n++
}

// pop dequeues the oldest pending update.
func (d *Delayed) pop() pendingUpdate {
	u := d.ring[d.head]
	d.head++
	if d.head == len(d.ring) {
		d.head = 0
	}
	d.n--
	return u
}

// grow doubles the full ring, capped at delay+1 entries, and unwraps
// its contents to start at index 0. The cap is compared against delay,
// not delay+1, so a delay of math.MaxInt cannot overflow.
func (d *Delayed) grow() {
	size := max(2*len(d.ring), 8)
	if d.delay < size {
		size = d.delay + 1
	}
	ring := make([]pendingUpdate, size)
	k := copy(ring, d.ring[d.head:])
	copy(ring[k:], d.ring[:d.head])
	d.ring, d.head = ring, 0
}

// Reset implements Resetter: the pending queue is discarded (not
// applied) and the wrapped predictor is reset.
func (d *Delayed) Reset() {
	d.head, d.n = 0, 0
	mustReset(d.p)
}

// AppendState implements Snapshotter: the count of not-yet-applied
// updates, the updates oldest-first, then the wrapped predictor's
// nested state.
func (d *Delayed) AppendState(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(d.n))
	for k := 0; k < d.n; k++ {
		u := d.ring[(d.head+k)%len(d.ring)]
		b = binary.BigEndian.AppendUint32(b, u.pc)
		b = binary.BigEndian.AppendUint32(b, u.value)
	}
	return appendNested(b, d.p)
}

// RestoreState implements Snapshotter. The claimed queue length is
// checked against the delay window and against the bytes that actually
// arrived before the ring is allocated.
func (d *Delayed) RestoreState(data []byte) error {
	if len(data) < 4 {
		return stateSizeErr("delayed", 4, len(data))
	}
	n := binary.BigEndian.Uint32(data)
	if uint64(n) > uint64(d.delay)+1 {
		return fmt.Errorf("%w: delayed queue holds %d updates, delay %d allows at most %d", ErrState, n, d.delay, uint64(d.delay)+1)
	}
	if uint64(len(data)-4) < 8*uint64(n) {
		return fmt.Errorf("%w: delayed queue claims %d updates, %d bytes remain", ErrState, n, len(data)-4)
	}
	rows := data[4:]
	d.n = int(n)
	d.ring = make([]pendingUpdate, n)
	for i := range d.ring {
		d.ring[i] = pendingUpdate{
			pc:    binary.BigEndian.Uint32(rows[8*i:]),
			value: binary.BigEndian.Uint32(rows[8*i+4:]),
		}
	}
	d.head = 0
	rest, err := restoreNested(rows[8*n:], d.p)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after delayed state", ErrState, len(rest))
	}
	return nil
}

// StateTables implements StateTabler.
func (d *Delayed) StateTables() []TableInfo {
	return append(
		[]TableInfo{{Name: "pending", Entries: d.n, Live: d.n}},
		prefixTables(d.p.Name(), d.p)...,
	)
}

// Name implements Predictor.
func (d *Delayed) Name() string { return fmt.Sprintf("%s@delay%d", d.p.Name(), d.delay) }

// SizeBits implements Predictor (the delay queue models pipeline
// state, not predictor storage, and is not counted).
func (d *Delayed) SizeBits() int64 { return d.p.SizeBits() }
