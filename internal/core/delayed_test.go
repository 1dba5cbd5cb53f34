package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

func TestDelayedZeroEquivalent(t *testing.T) {
	// delay 0 must be bit-identical to the unwrapped predictor.
	tr := mixedTrace(2000, 3)
	for _, mk := range []func() Snapshotter{
		func() Snapshotter { return NewLastValue(8) },
		func() Snapshotter { return NewStride(8) },
		func() Snapshotter { return NewFCM(8, 10) },
		func() Snapshotter { return NewDFCM(8, 10) },
	} {
		plain := Run(mk(), tr)
		delayed := Run(NewDelayed(mk(), 0), tr)
		if plain != delayed {
			t.Errorf("%s: delay-0 result %+v != plain %+v", mk().Name(), delayed, plain)
		}
	}
}

func TestDelayedStaleHistoryHurtsTightLoop(t *testing.T) {
	// A single instruction producing a stride pattern: with delay d,
	// every prediction is based on history d events old, so the stride
	// predictor still extrapolates correctly only once the stale last
	// value is accounted... for LVP the prediction is simply d+1
	// values behind and always wrong on a stride.
	vals := strideSeq(0, 1, 400)
	plain := tailAccuracy(NewStride(10), vals, 10)
	if plain != 1 {
		t.Fatalf("undelayed stride accuracy = %v", plain)
	}
	d := NewDelayed(NewStride(10), 8)
	var correct, total int
	for i, v := range vals {
		if d.Predict(0x40) == v && i >= 20 {
			correct++
		}
		if i >= 20 {
			total++
		}
		d.Update(0x40, v)
	}
	acc := float64(correct) / float64(total)
	if acc > 0.05 {
		t.Errorf("delayed stride accuracy in tight loop = %v, want ~0 (stale last value)", acc)
	}
}

func TestDelayedDoesNotAffectDistantRecurrence(t *testing.T) {
	// If an instruction recurs only every delay+k events, its updates
	// are always applied before its next prediction, so accuracy is
	// unchanged. Construct 64 interleaved constant instructions and
	// delay 16 < 64.
	var tr trace.Trace
	for i := 0; i < 200; i++ {
		for k := 0; k < 64; k++ {
			tr = append(tr, trace.Event{PC: uint32(0x1000 + 4*k), Value: uint32(k)})
		}
	}
	plain := Run(NewLastValue(10), tr)
	delayed := Run(NewDelayed(NewLastValue(10), 16), tr)
	if plain != delayed {
		t.Errorf("delay < recurrence distance changed result: %+v vs %+v", delayed, plain)
	}
}

func TestDelayedMonotoneDegradation(t *testing.T) {
	// Figure 17's shape: accuracy is non-increasing in delay (up to
	// noise; here we require weak monotonicity on a deterministic
	// workload with generous tolerance).
	rng := rand.New(rand.NewSource(11))
	var tr trace.Trace
	pattern := []uint32{5, 19, 3, 200, 42}
	for i := 0; i < 3000; i++ {
		for k := 0; k < 8; k++ {
			var v uint32
			switch k % 3 {
			case 0:
				v = uint32(i * (k + 1)) // stride
			case 1:
				v = pattern[(i+k)%len(pattern)] // context
			default:
				v = rng.Uint32() >> 20 // semi-random
			}
			tr = append(tr, trace.Event{PC: uint32(0x1000 + 4*k), Value: v})
		}
	}
	prev := 1.1
	for _, delay := range []int{0, 16, 64, 256} {
		acc := Run(NewDelayed(NewDFCM(8, 12), delay), tr).Accuracy()
		if acc > prev+0.02 {
			t.Errorf("accuracy increased with delay %d: %.3f > %.3f", delay, acc, prev)
		}
		prev = acc
	}
}

// TestDelayedRingBounded: the pending ring never holds more than
// delay+1 entries, whether updates alternate with predictions or
// arrive in a run with no prediction between them, and a huge delay
// allocates only for the updates that arrived.
func TestDelayedRingBounded(t *testing.T) {
	for _, delay := range []int{0, 4, 100} {
		d := NewDelayed(NewLastValue(8), delay)
		for i := 0; i < 10000; i++ {
			if i%1000 < 500 {
				d.Predict(0x40)
			}
			d.Update(0x40, uint32(i))
			if len(d.ring) > delay+1 || d.n > delay+1 {
				t.Fatalf("delay %d, event %d: ring of %d holds %d entries", delay, i, len(d.ring), d.n)
			}
		}
	}
	for _, delay := range []int{1<<32 - 1, math.MaxInt} {
		d := NewDelayed(NewLastValue(8), delay)
		for i := 0; i < 100; i++ {
			d.Update(0x40, uint32(i))
		}
		if len(d.ring) > 256 {
			t.Errorf("delay %d: ring grew to %d entries for 100 updates", delay, len(d.ring))
		}
	}
}
