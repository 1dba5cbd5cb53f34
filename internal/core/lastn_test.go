package core

import (
	"testing"

	"repro/internal/trace"
)

func TestLastNPredictsConstant(t *testing.T) {
	p := NewLastN(8, 4)
	if acc := tailAccuracy(p, repeatSeq([]uint32{9}, 50), 2); acc != 1 {
		t.Errorf("constant accuracy = %v", acc)
	}
}

func TestLastNPredictsAlternating(t *testing.T) {
	// The motivating case from Burtscher & Zorn: values alternating
	// between a small set defeat LVP but fit in n slots. With the
	// most-recent tie-break a 2-cycle is predicted at 50% and a
	// near-constant-with-glitches stream near 100%; the clear win
	// shows on "mostly A, sometimes B".
	vals := make([]uint32, 200)
	for i := range vals {
		if i%5 == 4 {
			vals[i] = 111
		} else {
			vals[i] = 42
		}
	}
	lvp := tailAccuracy(NewLastValue(8), vals, 10)
	ln := tailAccuracy(NewLastN(8, 4), vals, 10)
	if ln <= lvp {
		t.Errorf("last-n (%.3f) should beat LVP (%.3f) on glitchy constants", ln, lvp)
	}
	if ln < 0.75 {
		t.Errorf("last-n accuracy = %.3f, want >= 0.75", ln)
	}
}

func TestLastNKeepsHighConfidenceValues(t *testing.T) {
	p := NewLastN(4, 2)
	// Train 7 as dominant.
	for i := 0; i < 6; i++ {
		p.Update(0x40, 7)
	}
	// Two transient values churn the weaker slot, 7 must survive.
	p.Update(0x40, 100)
	p.Update(0x40, 200)
	if got := p.Predict(0x40); got != 7 {
		t.Errorf("dominant value evicted: predict %d, want 7", got)
	}
}

func TestLastNWidthOne(t *testing.T) {
	// n=1 behaves like a confidence-weighted last-value predictor on
	// constants.
	p := NewLastN(6, 1)
	if acc := tailAccuracy(p, repeatSeq([]uint32{3}, 40), 2); acc != 1 {
		t.Errorf("n=1 constant accuracy = %v", acc)
	}
}

func TestLastNSizeAndName(t *testing.T) {
	p := NewLastN(10, 4)
	if p.SizeBits() != 1024*4*34 {
		t.Errorf("SizeBits = %d", p.SizeBits())
	}
	if p.Name() != "last4-2^10" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestLastNPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewLastN(4, 0) },
		func() { NewLastN(4, 9) },
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

func TestClassifiedAssignsStrideToStride(t *testing.T) {
	p := NewClassified(8, 16, 8,
		NewLastValue(8), NewStride(8), NewFCM(8, 12))
	res := Run(p, seqTrace(0x40, strideSeq(0, 4, 400)))
	if res.Accuracy() < 0.9 {
		t.Errorf("classified accuracy on stride = %.3f", res.Accuracy())
	}
	s := &p.state[pcIndex(0x40, 8)]
	if s.assigned != 1 {
		t.Errorf("assigned to component %d, want stride (1)", s.assigned)
	}
}

func TestClassifiedMarksNoiseUnpredictable(t *testing.T) {
	p := NewClassified(8, 16, 8,
		NewLastValue(8), NewStride(8), NewFCM(8, 12))
	noise := uint32(0x9e3779b9)
	var tr trace.Trace
	for i := 0; i < 400; i++ {
		noise = noise*1664525 + 1013904223
		tr = append(tr, trace.Event{PC: 0x40, Value: noise})
	}
	Run(p, tr)
	if p.Unpredictable() != 1 {
		t.Errorf("unpredictable fraction = %.2f, want 1 for pure noise", p.Unpredictable())
	}
}

func TestClassifiedStopsTrainingOtherComponents(t *testing.T) {
	lvp, stride := NewLastValue(8), NewStride(8)
	p := NewClassified(8, 8, 4, lvp, stride)
	// Constant stream: assigns to LVP (component 0 wins ties).
	for i := 0; i < 8; i++ {
		p.Update(0x40, 5)
	}
	s := &p.state[pcIndex(0x40, 8)]
	if s.assigned < 0 {
		t.Fatalf("not assigned after window: %d", s.assigned)
	}
	// Further updates must not reach the unassigned component.
	before := string(stride.AppendState(nil))
	for i := 0; i < 10; i++ {
		p.Update(0x40, 5)
	}
	if string(stride.AppendState(nil)) != before && s.assigned != 1 {
		t.Error("unassigned component kept training")
	}
}

func TestClassifiedVsDFCM(t *testing.T) {
	// The paper's related-work argument in miniature: on a workload
	// whose pattern mix shifts between instructions, a dynamically
	// shared DFCM beats a statically partitioned classifier of equal
	// spirit.
	tr := mixedTrace(4000, 13)
	cl := NewClassified(10, 16, 8,
		NewLastValue(8), NewStride(8), NewFCM(8, 10))
	clAcc := Run(cl, tr).Accuracy()
	dfcmAcc := Run(NewDFCM(10, 12), tr).Accuracy()
	if dfcmAcc < clAcc-0.02 {
		t.Errorf("DFCM %.3f should be at least competitive with classification %.3f",
			dfcmAcc, clAcc)
	}
}

func TestClassifiedPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewClassified(4, 8, 4) },                  // no components
		func() { NewClassified(4, 0, 0, NewLastValue(4)) }, // zero window
		func() { NewClassified(4, 4, 5, NewLastValue(4)) }, // threshold > window
		func() {
			NewClassified(4, 8, 4, NewLastValue(4), NewLastValue(4), NewLastValue(4), NewLastValue(4), NewLastValue(4))
		}, // too many
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

func TestClassifiedSizeIncludesComponents(t *testing.T) {
	p := NewClassified(8, 16, 8, NewLastValue(8), NewStride(8))
	want := NewLastValue(8).SizeBits() + NewStride(8).SizeBits() + 256*2
	if p.SizeBits() != want {
		t.Errorf("SizeBits = %d, want %d", p.SizeBits(), want)
	}
}
