package core

import (
	"math/rand"
	"testing"
)

// predictorZoo builds one instance of every predictor in the package.
func predictorZoo() []Predictor {
	dfcmForCombined := NewDFCM(8, 10)
	return []Predictor{
		NewLastValue(8),
		NewLastN(8, 4),
		NewStride(8),
		NewTwoDelta(8),
		NewFCM(8, 10),
		NewDFCM(8, 10),
		NewDFCMWidth(8, 10, 8),
		NewMetaHybrid(NewStride(8), NewFCM(8, 10), 8),
		NewDelayed(NewDFCM(8, 10), 16),
		NewCounterConfidence(NewStride(8), 8, 15, 8),
		NewHashTag(NewDFCM(8, 10), 6, 3),
		NewCombined(dfcmForCombined,
			NewHashTag(dfcmForCombined, 6, 3),
			NewCounterConfidence(dfcmForCombined, 8, 15, 8)),
		NewClassified(8, 16, 8, NewLastValue(8), NewStride(8)),
	}
}

// TestPredictIsPure verifies the core interface contract that hybrid
// and confidence wrappers rely on: Predict must not change predictor
// state, no matter how often or in what order it is called.
//
// The Delayed wrapper is the documented exception — its Predict
// applies matured updates — so it is checked only for idempotence of
// repeated Predict calls at the same point.
func TestPredictIsPure(t *testing.T) {
	tr := mixedTrace(1500, 99)
	for mkIdx := range predictorZoo() {
		zooA := predictorZoo()
		zooB := predictorZoo()
		a, b := zooA[mkIdx], zooB[mkIdx]
		rng := rand.New(rand.NewSource(42))
		var resA, resB Result
		for _, e := range tr {
			// a: the clean reference.
			resA.Predictions++
			if a.Predict(e.PC) == e.Value {
				resA.Correct++
			}
			a.Update(e.PC, e.Value)
			// b: same, but with gratuitous extra Predict calls at
			// random PCs sprinkled in.
			for k := rng.Intn(3); k > 0; k-- {
				b.Predict(uint32(0x1000 + 4*rng.Intn(64)))
			}
			resB.Predictions++
			if b.Predict(e.PC) == e.Value {
				resB.Correct++
			}
			b.Update(e.PC, e.Value)
		}
		if _, isDelayed := a.(*Delayed); isDelayed {
			continue // extra Predicts legitimately apply pending updates earlier
		}
		if resA != resB {
			t.Errorf("%s: extra Predict calls changed results: %+v vs %+v",
				a.Name(), resB, resA)
		}
	}
}

// TestRepeatedPredictStable checks plain double-call idempotence for
// every predictor including Delayed.
func TestRepeatedPredictStable(t *testing.T) {
	for _, p := range predictorZoo() {
		p.Update(0x40, 123)
		p.Update(0x40, 456)
		first := p.Predict(0x40)
		for i := 0; i < 5; i++ {
			if got := p.Predict(0x40); got != first {
				t.Errorf("%s: Predict unstable: %d then %d", p.Name(), first, got)
			}
		}
	}
}

// TestZooNamesAndSizes sanity-checks the whole zoo's metadata.
func TestZooNamesAndSizes(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range predictorZoo() {
		if p.Name() == "" {
			t.Error("empty name")
		}
		if seen[p.Name()] {
			t.Errorf("duplicate name %q", p.Name())
		}
		seen[p.Name()] = true
		if p.SizeBits() <= 0 {
			t.Errorf("%s: non-positive size", p.Name())
		}
	}
}
