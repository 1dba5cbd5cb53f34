package core

import (
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
// one Run over the whole trace, for plain predictors, wrapped ones
// and Scorers, at chunk sizes that do and do not divide the trace.
func TestRunBatchChunksEqualRun(t *testing.T) {
	tr := batchTrace(5000)
	mks := map[string]func() Predictor{
		"lvp":     func() Predictor { return NewLastValue(8) },
		"stride":  func() Predictor { return NewStride(8) },
		"2delta":  func() Predictor { return NewTwoDelta(8) },
		"fcm":     func() Predictor { return NewFCM(8, 10) },
		"dfcm":    func() Predictor { return NewDFCM(8, 10) },
		"delayed": func() Predictor { return NewDelayed(NewDFCM(8, 10), 32) },
		"perfect": func() Predictor { return NewPerfectHybrid(NewStride(8), NewFCM(8, 10)) },
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

// TestRunBatchEmpty: an empty batch is a no-op.
func TestRunBatchEmpty(t *testing.T) {
	if r := RunBatch(NewLastValue(4), nil); r != (Result{}) {
		t.Errorf("empty batch produced %+v", r)
	}
}

// runGenericBatch is RunBatch's generic per-event loop, bypassing the
// BatchRunner dispatch — the reference the concrete-type loops must
// match bit for bit.
func runGenericBatch(p Predictor, batch []trace.Event) Result {
	var res Result
	res.Predictions = uint64(len(batch))
	if s, ok := p.(Scorer); ok {
		for _, e := range batch {
			if s.Score(e.PC, e.Value) {
				res.Correct++
			}
		}
		return res
	}
	for _, e := range batch {
		if p.Predict(e.PC) == e.Value {
			res.Correct++
		}
		p.Update(e.PC, e.Value)
	}
	return res
}

// TestRunBatchConcreteMatchesGeneric: every concrete RunBatch
// loop (batch.go) produces, chunk by chunk, exactly the Result of the
// generic loop on an identical twin — and leaves the predictor in the
// same state, witnessed by the serialized snapshot where available
// and by post-run prediction parity everywhere.
func TestRunBatchConcreteMatchesGeneric(t *testing.T) {
	tr := batchTrace(6000)
	mks := map[string]func() Predictor{
		"lvp":      func() Predictor { return NewLastValue(8) },
		"stride":   func() Predictor { return NewStride(8) },
		"twodelta": func() Predictor { return NewTwoDelta(8) },
		"fcm":      func() Predictor { return NewFCM(8, 10) },
		"dfcm":     func() Predictor { return NewDFCM(8, 10) },
		"dfcm-w8":  func() Predictor { return NewDFCMWidth(8, 10, 8) },
		// Narrow level-2 disables the FSR Update32 fast path, covering
		// the interface-hash loop variant.
		"dfcm-small-l2": func() Predictor { return NewDFCMWidth(8, 6, 32) },
		"fcm-small-l2":  func() Predictor { return NewFCMHash(8, 6, hash.NewFSR5(6)) },
	}
	for name, mk := range mks {
		concrete, generic := mk(), mk()
		if _, ok := concrete.(BatchRunner); !ok {
			t.Errorf("%s: does not implement BatchRunner", name)
			continue
		}
		for _, chunk := range []int{1, 17, 733, len(tr)} {
			for start := 0; start < len(tr); start += chunk {
				end := start + chunk
				if end > len(tr) {
					end = len(tr)
				}
				got := RunBatch(concrete, tr[start:end])
				want := runGenericBatch(generic, tr[start:end])
				if got != want {
					t.Fatalf("%s chunk %d at %d: concrete %+v, generic %+v", name, chunk, start, got, want)
				}
			}
		}
		cs, cok := concrete.(Snapshotter)
		gs, gok := generic.(Snapshotter)
		if cok && gok {
			if string(cs.AppendState(nil)) != string(gs.AppendState(nil)) {
				t.Errorf("%s: serialized state diverged between concrete and generic loops", name)
			}
		}
		for _, e := range tr[:64] {
			if concrete.Predict(e.PC) != generic.Predict(e.PC) {
				t.Errorf("%s: post-run predictions diverged at pc %#x", name, e.PC)
				break
			}
		}
	}
}
