package core

import (
	"bytes"
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
// can build — the Snapshotter types — paired with a factory producing
// an identical fresh one.
func resettables() map[string]func() Snapshotter {
	return map[string]func() Snapshotter{
		"lvp":     func() Snapshotter { return NewLastValue(8) },
		"stride":  func() Snapshotter { return NewStride(8) },
		"2delta":  func() Snapshotter { return NewTwoDelta(8) },
		"fcm":     func() Snapshotter { return NewFCM(8, 10) },
		"dfcm":    func() Snapshotter { return NewDFCMWidth(8, 10, 8) },
		"delayed": func() Snapshotter { return NewDelayed(NewDFCM(8, 10), 16) },
		"meta":    func() Snapshotter { return NewMetaHybrid(NewStride(8), NewDFCM(8, 10), 8) },
		"tage":    func() Snapshotter { return NewTAGE(8, 6, 32, 4, 8, 4, 64) },
		"tage-w8": func() Snapshotter { return NewTAGE(8, 6, 8, 3, 10, 2, 32) },
	}
}

// TestResetMatchesFresh trains a predictor, resets it, and asserts its
// state bytes equal a fresh predictor's and the post-reset run is
// event-for-event identical to the fresh one's — the contract
// internal/serve relies on to recycle sessions. The bytes catch a
// header word the zeroing walk skipped (the TAGE update count, the
// Delayed queue length) before any prediction would.
func TestResetMatchesFresh(t *testing.T) {
	events := trainEvents(2000) // leaves delay+1 updates queued in Delayed
	for name, mk := range resettables() {
		t.Run(name, func(t *testing.T) {
			p := mk()
			Run(p, events) // dirty every table
			p.Reset()

			fresh := mk()
			if got, want := p.AppendState(nil), fresh.AppendState(nil); !bytes.Equal(got, want) {
				t.Fatalf("reset state (%d bytes) differs from a fresh predictor's (%d bytes)", len(got), len(want))
			}
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
