package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// The basic predict/update loop: a DFCM learns a stride pattern it
// has never seen repeated.
func ExampleDFCM() {
	p := core.NewDFCM(10, 12) // 2^10 level-1 entries, 2^12 level-2 entries
	const pc = 0x1000
	correct := 0
	for i := 0; i < 100; i++ {
		value := uint32(1000 + 7*i) // stride 7, never repeats
		if p.Predict(pc) == value {
			correct++
		}
		p.Update(pc, value)
	}
	fmt.Printf("correct: %d/100 (warmup only)\n", correct)
	fmt.Println("size:", p.SizeBits(), "bits")
	// Output:
	// correct: 95/100 (warmup only)
	// size: 176128 bits
}

// Run drives a predictor over a trace and accumulates accuracy.
func ExampleRun() {
	tr := trace.Trace{
		{PC: 0x40, Value: 5}, {PC: 0x40, Value: 5},
		{PC: 0x40, Value: 5}, {PC: 0x40, Value: 5},
	}
	res := core.Run(core.NewLastValue(8), tr)
	fmt.Printf("%d/%d correct\n", res.Correct, res.Predictions)
	// Output:
	// 3/4 correct
}

// A perfect meta-predictor scores an event as correct when any
// component predicted it, and every component trains on every event,
// so its hits are the union of the components' hit masks.
func ExampleUnionHits() {
	var tr trace.Trace
	for i := 0; i < 50; i++ {
		tr = append(tr, trace.Event{PC: 0x40, Value: uint32(i * 3)}) // pure stride
	}
	lvp := make([]uint64, core.HitWords(len(tr)))
	stride := make([]uint64, len(lvp))
	core.Hits(core.NewLastValue(8), tr, lvp)
	core.Hits(core.NewStride(8), tr, stride)
	// The stride component carries it.
	fmt.Printf("accuracy with warmup: %.2f\n", float64(core.UnionHits(lvp, stride))/float64(len(tr)))
	// Output:
	// accuracy with warmup: 0.98
}

// Delayed update models the pipeline distance between making a
// prediction and learning the outcome.
func ExampleNewDelayed() {
	base := core.NewLastValue(8)
	d := core.NewDelayed(base, 2)
	d.Update(0x40, 7) // enqueued, not yet visible
	fmt.Println("immediately after update:", d.Predict(0x40))
	d.Update(0x44, 1) // two more outcomes push the first one
	d.Update(0x48, 2) // out of the 2-deep delay window
	fmt.Println("after the delay window:", d.Predict(0x40))
	// Output:
	// immediately after update: 0
	// after the delay window: 7
}

// Confidence estimation: the paper's hash-tag proposal flags
// predictions whose level-2 entry was written under the same
// (unaliased) history.
func ExampleNewHashTag() {
	p := core.NewDFCM(8, 10)
	ht := core.NewHashTag(p, 8, 3)
	var tr trace.Trace
	for i := 0; i < 200; i++ {
		tr = append(tr, trace.Event{PC: 0x40, Value: uint32(i * 4)})
	}
	res := core.RunConfident(ht, tr)
	fmt.Printf("confident accuracy %.2f at coverage %.2f\n",
		res.Confident.Accuracy(), res.Coverage())
	// Output:
	// confident accuracy 0.99 at coverage 0.98
}
