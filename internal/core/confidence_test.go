package core

import (
	"testing"

	"repro/internal/trace"
)

func TestCounterConfidenceGatesCorrectly(t *testing.T) {
	// A stride instruction (predictable) and a noisy instruction:
	// the estimator should be confident on the former, not the latter.
	p := NewCounterConfidence(NewStride(8), 8, 15, 8)
	var tr trace.Trace
	noise := uint32(0x9e3779b9)
	for i := 0; i < 2000; i++ {
		tr = append(tr, trace.Event{PC: 0x100, Value: uint32(i * 4)})
		noise = noise*1664525 + 1013904223
		tr = append(tr, trace.Event{PC: 0x104, Value: noise})
	}
	res := RunConfident(p, tr)
	if res.All.Predictions != uint64(len(tr)) {
		t.Fatalf("predictions = %d", res.All.Predictions)
	}
	cov := res.Coverage()
	if cov < 0.4 || cov > 0.6 {
		t.Errorf("coverage = %.3f, expected ~0.5 (one of two instructions predictable)", cov)
	}
	if acc := res.Confident.Accuracy(); acc < 0.99 {
		t.Errorf("confident accuracy = %.3f, want ~1", acc)
	}
	if res.All.Accuracy() >= res.Confident.Accuracy() {
		t.Error("confidence gating should raise accuracy")
	}
}

func TestCounterConfidenceResetOnMiss(t *testing.T) {
	c := NewCounterConfidence(NewLastValue(4), 4, 15, 4)
	// Build confidence with a constant...
	for i := 0; i < 10; i++ {
		c.Update(0x40, 7)
	}
	if _, conf := c.PredictConfident(0x40); !conf {
		t.Fatal("not confident after 10 correct updates")
	}
	// ...one miss resets it.
	c.Update(0x40, 999)
	if _, conf := c.PredictConfident(0x40); conf {
		t.Error("still confident after a miss")
	}
}

func TestCounterConfidencePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCounterConfidence(NewLastValue(4), 4, 0, 0) },
		func() { NewCounterConfidence(NewLastValue(4), 4, 3, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic for bad counter parameters")
				}
			}()
			f()
		}()
	}
}

func TestHashTagConfidentOnCleanContexts(t *testing.T) {
	// One instruction with a short repeating pattern and a huge L2:
	// no aliasing, so once warm, predictions should be confident and
	// correct.
	p := NewHashTag(NewDFCM(8, 16), 8, 7)
	pattern := []uint32{5, 9, 1, 44, 13}
	var tr trace.Trace
	for i := 0; i < 400; i++ {
		tr = append(tr, trace.Event{PC: 0x40, Value: pattern[i%len(pattern)]})
	}
	res := RunConfident(p, tr)
	if res.Coverage() < 0.8 {
		t.Errorf("coverage = %.3f, want high on an alias-free workload", res.Coverage())
	}
	if res.Confident.Accuracy() < 0.98 {
		t.Errorf("confident accuracy = %.3f", res.Confident.Accuracy())
	}
}

func TestHashTagDetectsAliasing(t *testing.T) {
	// Small L2 (2^8): many instructions with distinct irregular
	// patterns collide heavily. The tag must slash coverage, and
	// confident predictions must stay more accurate than the raw
	// stream. Tag shift 3 gives an order-3 second hash, orthogonal to
	// the order-2 FS R-5 primary at n=8.
	mk := func() *HashTag { return NewHashTag(NewFCM(8, 8), 8, 3) }
	var tr trace.Trace
	patterns := [][]uint32{}
	for k := 0; k < 24; k++ {
		p := make([]uint32, 5+k%7)
		for j := range p {
			p[j] = uint32((k+1)*(j+13)*2654435761) >> 10
		}
		patterns = append(patterns, p)
	}
	for i := 0; i < 4000; i++ {
		for k, p := range patterns {
			tr = append(tr, trace.Event{PC: uint32(0x1000 + 4*k), Value: p[i%len(p)]})
		}
	}
	res := RunConfident(mk(), tr)
	if res.Coverage() > 0.9 {
		t.Errorf("coverage = %.3f on a heavily aliased table, want gating", res.Coverage())
	}
	if res.Confident.Predictions > 0 &&
		res.Confident.Accuracy() < res.All.Accuracy() {
		t.Errorf("confident accuracy %.3f below raw accuracy %.3f",
			res.Confident.Accuracy(), res.All.Accuracy())
	}
}

func TestHashTagDoesNotPerturbPredictions(t *testing.T) {
	// Wrapping must not change what is predicted, only add the signal.
	tr := mixedTrace(2000, 21)
	plain := Run(NewDFCM(8, 10), tr)
	wrapped := Run(NewHashTag(NewDFCM(8, 10), 6, 7), tr)
	if plain != wrapped {
		t.Errorf("wrapped result %+v != plain %+v", wrapped, plain)
	}
}

func TestHashTagWorksOnFCMAndDFCM(t *testing.T) {
	var _ ConfidentPredictor = NewHashTag(NewFCM(4, 8), 4, 7)
	var _ ConfidentPredictor = NewHashTag(NewDFCM(4, 8), 4, 7)
	var _ ConfidentPredictor = NewCounterConfidence(NewStride(4), 4, 7, 4)
}

func TestHashTagPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHashTag(NewLastValue(4), 4, 7) }, // not two-level
		func() { NewHashTag(NewFCM(4, 8), 0, 7) },    // zero tag
		func() { NewHashTag(NewFCM(4, 8), 17, 7) },   // too wide
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestConfidenceSizeAccounting(t *testing.T) {
	base := NewDFCM(8, 10)
	ht := NewHashTag(NewDFCM(8, 10), 6, 7)
	// + 2^8 second histories of 10 bits + 2^10 tags of 6 bits.
	want := base.SizeBits() + 256*10 + 1024*6
	if got := ht.SizeBits(); got != want {
		t.Errorf("HashTag SizeBits = %d, want %d", got, want)
	}
	cc := NewCounterConfidence(NewStride(8), 8, 15, 8)
	want = NewStride(8).SizeBits() + 256*4
	if got := cc.SizeBits(); got != want {
		t.Errorf("CounterConfidence SizeBits = %d, want %d", got, want)
	}
}

func TestHistoryFeederContracts(t *testing.T) {
	f := NewFCM(6, 8)
	if f.L1Entries() != 64 || f.L1Index(0x104) != 1 {
		t.Error("FCM feeder geometry wrong")
	}
	if f.HistoryInput(0x40, 123) != 123 {
		t.Error("FCM history input should be the value")
	}
	d := NewDFCM(6, 8)
	d.Update(0x40, 100)
	if d.HistoryInput(0x40, 103) != 3 {
		t.Error("DFCM history input should be the stride")
	}
	if d.HistoryInput(0x40, 97) != uint64(^uint32(0)-2) { // -3 as uint32
		t.Error("DFCM negative stride should wrap as uint32")
	}
}

func TestCombinedConfidence(t *testing.T) {
	mk := func() (*Combined, Predictor) {
		p := NewDFCM(10, 10)
		return NewCombined(p,
			NewHashTag(p, 8, 3),
			NewCounterConfidence(p, 10, 15, 4)), p
	}
	// Mixed workload: predictable stride + noise instruction.
	var tr trace.Trace
	noise := uint32(12345)
	for i := 0; i < 3000; i++ {
		tr = append(tr, trace.Event{PC: 0x100, Value: uint32(i * 8)})
		noise = noise*1664525 + 1013904223
		tr = append(tr, trace.Event{PC: 0x104, Value: noise})
	}
	comb, _ := mk()
	res := RunConfident(comb, tr)
	if res.Confident.Accuracy() < 0.99 {
		t.Errorf("combined confident accuracy = %.3f", res.Confident.Accuracy())
	}
	if res.Coverage() < 0.3 || res.Coverage() > 0.6 {
		t.Errorf("combined coverage = %.3f, expected ~0.5", res.Coverage())
	}

	// The AND must never exceed either component's coverage.
	p2 := NewDFCM(10, 10)
	tagOnly := RunConfident(NewHashTag(p2, 8, 3), tr)
	if res.Coverage() > tagOnly.Coverage()+1e-9 {
		t.Errorf("combined coverage %.3f exceeds tag coverage %.3f",
			res.Coverage(), tagOnly.Coverage())
	}

	// Predictions must be identical to the bare predictor's.
	comb2, _ := mk()
	plain := Run(NewDFCM(10, 10), tr)
	wrapped := Run(comb2, tr)
	if plain != wrapped {
		t.Errorf("combined wrapper changed predictions: %+v vs %+v", wrapped, plain)
	}
}

func TestCombinedPanicsOnMismatchedPredictors(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for estimators over different predictors")
		}
	}()
	a, b := NewDFCM(6, 8), NewDFCM(6, 8)
	NewCombined(a, NewHashTag(a, 4, 3), NewCounterConfidence(b, 6, 15, 4))
}

func TestConfidenceResultCoverage(t *testing.T) {
	var r ConfidenceResult
	if r.Coverage() != 0 {
		t.Error("empty coverage should be 0")
	}
	r.All.Predictions = 10
	r.Confident.Predictions = 4
	if r.Coverage() != 0.4 {
		t.Errorf("coverage = %v", r.Coverage())
	}
}
