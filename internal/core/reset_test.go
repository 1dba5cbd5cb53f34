package core

import (
	"testing"

	"repro/internal/trace"
)

// trainEvents is a deterministic mixed stream over a handful of PCs:
// constant, stride and repeating-context patterns plus a xorshift
// stream, enough to dirty every table of every predictor under test.
func trainEvents(n int) trace.Trace {
	t := make(trace.Trace, 0, n)
	pattern := []uint32{9, 2, 25, 7, 1, 130, 4, 66}
	rnd := uint32(2463534242)
	for i := 0; len(t) < n; i++ {
		t = append(t,
			trace.Event{PC: 0x1000, Value: 42},
			trace.Event{PC: 0x1004, Value: uint32(i) * 8},
			trace.Event{PC: 0x1008, Value: pattern[i%len(pattern)]},
		)
		rnd ^= rnd << 13
		rnd ^= rnd >> 17
		rnd ^= rnd << 5
		t = append(t, trace.Event{PC: 0x100c, Value: rnd & 0xffff})
	}
	return t[:n]
}

// resettables enumerates one instance of every predictor type a Spec
// can build — the types that carry the serving machinery (Resetter,
// Snapshotter, StateTabler) — paired with a factory producing an
// identical fresh one.
func resettables() map[string]func() Predictor {
	return map[string]func() Predictor{
		"lvp":     func() Predictor { return NewLastValue(8) },
		"stride":  func() Predictor { return NewStride(8) },
		"2delta":  func() Predictor { return NewTwoDelta(8) },
		"fcm":     func() Predictor { return NewFCM(8, 10) },
		"dfcm":    func() Predictor { return NewDFCMWidth(8, 10, 8) },
		"delayed": func() Predictor { return NewDelayed(NewDFCM(8, 10), 16) },
		"meta":    func() Predictor { return NewMetaHybrid(NewStride(8), NewDFCM(8, 10), 8) },
		"tage":    func() Predictor { return NewTAGE(8, 6, 32, 4, 8, 4, 64) },
		"tage-w8": func() Predictor { return NewTAGE(8, 6, 8, 3, 10, 2, 32) },
	}
}

// TestResetMatchesFresh trains a predictor, resets it, and asserts the
// post-reset run is event-for-event identical to a fresh predictor's
// run — the contract internal/serve relies on to recycle sessions.
func TestResetMatchesFresh(t *testing.T) {
	events := trainEvents(2000)
	for name, mk := range resettables() {
		t.Run(name, func(t *testing.T) {
			p := mk()
			r, ok := p.(Resetter)
			if !ok {
				t.Fatalf("%s does not implement Resetter", p.Name())
			}
			Run(p, events) // dirty every table
			r.Reset()

			fresh := mk()
			for _, e := range events {
				got, want := p.Predict(e.PC), fresh.Predict(e.PC)
				if got != want {
					t.Fatalf("post-reset Predict(%#x) = %d, fresh = %d", e.PC, got, want)
				}
				p.Update(e.PC, e.Value)
				fresh.Update(e.PC, e.Value)
			}
		})
	}
}

// TestTryReset covers the helper's both outcomes.
func TestTryReset(t *testing.T) {
	p := NewDFCM(6, 8)
	Run(p, trainEvents(100))
	if !TryReset(p) {
		t.Fatal("DFCM should be resettable")
	}
	if got, want := p.Predict(0x1000), NewDFCM(6, 8).Predict(0x1000); got != want {
		t.Fatalf("post-TryReset prediction %d, fresh %d", got, want)
	}
	if TryReset(unresettable{}) {
		t.Fatal("TryReset on a non-Resetter must report false")
	}
}

type unresettable struct{}

func (unresettable) Predict(pc uint32) uint32 { return 0 }
func (unresettable) Update(pc, value uint32)  {}
func (unresettable) Name() string             { return "unresettable" }
func (unresettable) SizeBits() int64          { return 0 }

// TestDelayedResetDropsQueue asserts a reset Delayed predictor does
// not later apply updates queued before the reset.
func TestDelayedResetDropsQueue(t *testing.T) {
	d := NewDelayed(NewLastValue(6), 4)
	for i := 0; i < 3; i++ {
		d.Update(0x40, 77) // queued, not yet applied
	}
	d.Reset()
	// Drain past the delay window; stale updates must not surface.
	for i := 0; i < 10; i++ {
		if got := d.Predict(0x40); got != 0 {
			t.Fatalf("stale queued update leaked through Reset: got %d", got)
		}
		d.Update(0x40, 0)
	}
}
