package core

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/hash"
	"repro/internal/trace"
)

// batchTrace builds a deterministic mixed-pattern event stream.
func batchTrace(n int) trace.Trace {
	tr := make(trace.Trace, 0, n)
	var x uint32
	for i := 0; i < n; i++ {
		pc := uint32(0x40 + 4*(i%11))
		if i%4 == 0 {
			x += 7
		} else {
			x = x*3 + uint32(i%6)
		}
		tr = append(tr, trace.Event{PC: pc, Value: x})
	}
	return tr
}

// TestRunBatchChunksEqualRun: feeding a trace through RunBatch in
// chunks — predictor state carrying across calls — sums to exactly
// one Run over the whole trace, for plain and wrapped predictors, at
// chunk sizes that do and do not divide the trace.
func TestRunBatchChunksEqualRun(t *testing.T) {
	tr := batchTrace(5000)
	mks := map[string]func() Predictor{
		"lvp":     func() Predictor { return NewLastValue(8) },
		"stride":  func() Predictor { return NewStride(8) },
		"2delta":  func() Predictor { return NewTwoDelta(8) },
		"fcm":     func() Predictor { return NewFCM(8, 10) },
		"dfcm":    func() Predictor { return NewDFCM(8, 10) },
		"delayed": func() Predictor { return NewDelayed(NewDFCM(8, 10), 32) },
		"tage":    func() Predictor { return NewTAGE(8, 6, 32, 4, 8, 4, 64) },
	}
	for name, mk := range mks {
		want := Run(mk(), trace.NewReader(tr))
		for _, chunk := range []int{1, 13, 512, len(tr), len(tr) + 1} {
			p := mk()
			var got Result
			for start := 0; start < len(tr); start += chunk {
				end := start + chunk
				if end > len(tr) {
					end = len(tr)
				}
				got.Add(RunBatch(p, tr[start:end]))
			}
			if got != want {
				t.Errorf("%s chunk %d: RunBatch sum %+v, Run %+v", name, chunk, got, want)
			}
		}
	}
}

// TestHitsMatchesRun: Hits fed in chunks of 1, 63, 64, 65 and the
// whole trace, into a mask buffer pre-filled with ones, returns the
// Result of Run, sets bit j exactly when event j of the chunk is
// predicted by a twin stepped per event, clears every word the chunk
// covers and no word beyond it.
func TestHitsMatchesRun(t *testing.T) {
	tr := batchTrace(5000)
	mks := map[string]func() Predictor{
		"lvp":          func() Predictor { return NewLastValue(8) },
		"stride":       func() Predictor { return NewStride(8) },
		"fcm":          func() Predictor { return NewFCM(8, 10) },
		"dfcm":         func() Predictor { return NewDFCM(8, 10) },
		"delayed-dfcm": func() Predictor { return NewDelayed(NewDFCM(8, 10), 16) },
		"tage":         func() Predictor { return NewTAGE(8, 6, 32, 4, 8, 4, 64) },
		"meta":         func() Predictor { return NewMetaHybrid(NewStride(8), NewFCM(8, 10), 8) },
		"delayed-tage": func() Predictor { return NewDelayed(NewTAGE(8, 6, 32, 4, 8, 4, 64), 16) },
	}
	for name, mk := range mks {
		want := Run(mk(), trace.NewReader(tr))
		for _, chunk := range []int{1, 63, 64, 65, len(tr)} {
			p, ref := mk(), mk()
			buf := make([]uint64, (chunk+63)/64+1)
			var got Result
			for start := 0; start < len(tr); start += chunk {
				batch := tr[start:min(start+chunk, len(tr))]
				for i := range buf {
					buf[i] = ^uint64(0)
				}
				r := Hits(p, batch, buf)
				words := HitWords(len(batch))
				var pop uint64
				for _, w := range buf[:words] {
					pop += uint64(bits.OnesCount64(w))
				}
				if r.Predictions != uint64(len(batch)) || pop != r.Correct {
					t.Fatalf("%s chunk %d at %d: %+v, mask popcount %d", name, chunk, start, r, pop)
				}
				for i, w := range buf[words:] {
					if w != ^uint64(0) {
						t.Fatalf("%s chunk %d at %d: word %d beyond the batch changed", name, chunk, start, words+i)
					}
				}
				for j, e := range batch {
					hit := ref.Predict(e.PC) == e.Value
					ref.Update(e.PC, e.Value)
					if bit := Hit(buf, j); bit != hit {
						t.Fatalf("%s chunk %d: event %d bit %v, outcome %v", name, chunk, start+j, bit, hit)
					}
				}
				got.Add(r)
			}
			if got != want {
				t.Errorf("%s chunk %d: Hits sum %+v, Run %+v", name, chunk, got, want)
			}
		}
	}
}

// TestUnionHits: the union counts each event set in any mask once,
// in every word including the top bit.
func TestUnionHits(t *testing.T) {
	a := []uint64{0b1010, 1 << 63, 0}
	b := []uint64{0b0110, 1 << 63, 1}
	for _, c := range []struct {
		masks [][]uint64
		want  uint64
	}{
		{[][]uint64{a, b}, 5},
		{[][]uint64{b, a}, 5},
		{[][]uint64{a}, 3},
		{nil, 0},
	} {
		if got := UnionHits(c.masks...); got != c.want {
			t.Errorf("UnionHits(%v) = %d, want %d", c.masks, got, c.want)
		}
	}
}

// TestRunBatchEmpty: an empty batch is a no-op.
func TestRunBatchEmpty(t *testing.T) {
	if r := RunBatch(NewLastValue(4), nil); r != (Result{}) {
		t.Errorf("empty batch produced %+v", r)
	}
}

// TestRunBatchConcreteMatchesGeneric: every concrete RunBatch
// loop (batch.go) produces, chunk by chunk, exactly the Result of the
// generic loop (runEach, which bypasses the BatchRunner dispatch) on
// an identical twin, and leaves the predictor in the same state,
// witnessed by the serialized snapshot after every chunk and by
// post-run prediction parity.
func TestRunBatchConcreteMatchesGeneric(t *testing.T) {
	tr := batchTrace(6000)
	mks := map[string]func() Predictor{
		"lvp":      func() Predictor { return NewLastValue(8) },
		"stride":   func() Predictor { return NewStride(8) },
		"twodelta": func() Predictor { return NewTwoDelta(8) },
		"fcm":      func() Predictor { return NewFCM(8, 10) },
		"dfcm":     func() Predictor { return NewDFCM(8, 10) },
		"dfcm-w8":  func() Predictor { return NewDFCMWidth(8, 10, 8) },
		// Narrow level-2 disables the FSR Fold32 fast path, covering
		// the interface-hash loop variant.
		"dfcm-small-l2": func() Predictor { return NewDFCMWidth(8, 6, 32) },
		"fcm-small-l2":  func() Predictor { return NewFCMHash(8, 6, hash.NewFSR5(6)) },
		// Inners without a fused delayed kernel take the generic
		// fallback inside Delayed.RunBatch.
		"delayed-dfcm-small-l2": func() Predictor { return NewDelayed(NewDFCMWidth(8, 6, 32), 16) },
		"delayed-tage":          func() Predictor { return NewDelayed(NewTAGE(8, 6, 32, 4, 8, 4, 64), 16) },
	}
	// The fused delayed kernel, at delays from none through one
	// engine chunk (4096 events) to more than the whole trace.
	for _, delay := range []int{0, 1, 16, 733, 4096, len(tr) + 100} {
		mks[fmt.Sprintf("delayed-fcm-%d", delay)] = func() Predictor { return NewDelayed(NewFCM(8, 10), delay) }
		mks[fmt.Sprintf("delayed-dfcm-%d", delay)] = func() Predictor { return NewDelayed(NewDFCM(8, 10), delay) }
		mks[fmt.Sprintf("delayed-dfcm-w8-%d", delay)] = func() Predictor { return NewDelayed(NewDFCMWidth(8, 10, 8), delay) }
	}
	for name, mk := range mks {
		if _, ok := mk().(BatchRunner); !ok {
			t.Errorf("%s: does not implement BatchRunner", name)
			continue
		}
		for _, chunk := range []int{1, 17, 733, len(tr)} {
			concrete, generic := mk(), mk()
			checkConcreteMatchesGeneric(t, fmt.Sprintf("%s chunk %d", name, chunk), concrete, generic, tr, chunk)
		}
	}
}

// TestDelayedRunBatchAfterRestore: a restored Delayed holds its
// pending updates in a ring of exactly their number, so the fused
// kernel's first batch must grow it, whether the ring was
// short of the delay window or at it.
func TestDelayedRunBatchAfterRestore(t *testing.T) {
	tr := batchTrace(6000)
	for _, inner := range []string{"fcm", "dfcm"} {
		mk := func(delay int) *Delayed {
			if inner == "fcm" {
				return NewDelayed(NewFCM(8, 10), delay)
			}
			return NewDelayed(NewDFCM(8, 10), delay)
		}
		for _, c := range []struct{ delay, prefix int }{{16, 5}, {16, 3000}, {733, 100}, {733, 3000}} {
			src := mk(c.delay)
			runEach(src, tr[:c.prefix], nil)
			state := src.AppendState(nil)
			concrete, generic := mk(c.delay), mk(c.delay)
			if err := concrete.RestoreState(state); err != nil {
				t.Fatal(err)
			}
			if err := generic.RestoreState(state); err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{1, 17, 733} {
				name := fmt.Sprintf("%s delay %d restored after %d, chunk %d", inner, c.delay, c.prefix, chunk)
				checkConcreteMatchesGeneric(t, name, concrete, generic, tr[c.prefix:c.prefix+1500], chunk)
			}
		}
	}
}

// checkConcreteMatchesGeneric feeds tr in chunks to concrete through
// RunBatch and to generic through the generic loop, requiring equal
// Results and equal serialized state after every chunk.
func checkConcreteMatchesGeneric(t *testing.T, name string, concrete, generic Predictor, tr trace.Trace, chunk int) {
	t.Helper()
	cs, gs := concrete.(Snapshotter), generic.(Snapshotter)
	var cb, gb []byte
	for start := 0; start < len(tr); start += chunk {
		end := min(start+chunk, len(tr))
		got := RunBatch(concrete, tr[start:end])
		want := runEach(generic, tr[start:end], nil)
		if got != want {
			t.Fatalf("%s at %d: concrete %+v, generic %+v", name, start, got, want)
		}
		cb, gb = cs.AppendState(cb[:0]), gs.AppendState(gb[:0])
		if string(cb) != string(gb) {
			t.Fatalf("%s at %d: serialized state diverged between concrete and generic loops", name, start)
		}
	}
	for _, e := range tr[:64] {
		if concrete.Predict(e.PC) != generic.Predict(e.PC) {
			t.Fatalf("%s: post-run predictions diverged at pc %#x", name, e.PC)
		}
	}
}
