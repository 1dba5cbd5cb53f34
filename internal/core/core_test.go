package core

import (
	"testing"

	"repro/internal/trace"
)

// seqSource builds a trace where every event comes from one static
// instruction at pc.
func seqSource(pc uint32, values []uint32) trace.Source {
	t := make(trace.Trace, len(values))
	for i, v := range values {
		t[i] = trace.Event{PC: pc, Value: v}
	}
	return trace.NewReader(t)
}

// strideSeq returns n values start, start+s, start+2s, ...
func strideSeq(start, s uint32, n int) []uint32 {
	out := make([]uint32, n)
	v := start
	for i := range out {
		out[i] = v
		v += s
	}
	return out
}

// repeatSeq repeats pattern until n values are produced.
func repeatSeq(pattern []uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

// tailAccuracy runs p over the values at a single PC and returns the
// accuracy over the events after the first skip.
func tailAccuracy(p Predictor, values []uint32, skip int) float64 {
	var res Result
	for i, v := range values {
		correct := p.Predict(0x1000) == v
		p.Update(0x1000, v)
		if i >= skip {
			res.Predictions++
			if correct {
				res.Correct++
			}
		}
	}
	return res.Accuracy()
}

func TestResultAccuracy(t *testing.T) {
	var r Result
	if r.Accuracy() != 0 {
		t.Error("empty result should have accuracy 0")
	}
	r = Result{Predictions: 4, Correct: 3}
	if r.Accuracy() != 0.75 {
		t.Errorf("accuracy = %v, want 0.75", r.Accuracy())
	}
	r.Add(Result{Predictions: 4, Correct: 1})
	if r.Predictions != 8 || r.Correct != 4 {
		t.Errorf("after Add: %+v", r)
	}
}

func TestRunCountsEvents(t *testing.T) {
	p := NewLastValue(8)
	res := Run(p, seqSource(0x40, []uint32{7, 7, 7, 7}))
	if res.Predictions != 4 {
		t.Fatalf("predictions = %d, want 4", res.Predictions)
	}
	// First prediction sees an empty table (predicts 0), rest are correct.
	if res.Correct != 3 {
		t.Errorf("correct = %d, want 3", res.Correct)
	}
}

func TestPCIndexDropsAlignmentBits(t *testing.T) {
	// Consecutive word-aligned PCs must map to consecutive entries.
	if pcIndex(0x1000, 8) == pcIndex(0x1004, 8) {
		t.Error("adjacent instructions alias in a 256-entry table")
	}
	if pcIndex(0x1000, 8) != pcIndex(0x1000+4*256, 8) {
		t.Error("table should wrap after 2^bits instructions")
	}
}

func TestLastValueConstantPattern(t *testing.T) {
	p := NewLastValue(10)
	if acc := tailAccuracy(p, repeatSeq([]uint32{42}, 100), 1); acc != 1 {
		t.Errorf("constant pattern accuracy = %v, want 1", acc)
	}
}

func TestLastValueMissesStridePattern(t *testing.T) {
	p := NewLastValue(10)
	if acc := tailAccuracy(p, strideSeq(0, 1, 100), 1); acc != 0 {
		t.Errorf("stride pattern accuracy = %v, want 0 for LVP", acc)
	}
}

func TestLastValueAliasing(t *testing.T) {
	// Two PCs mapping to the same entry interfere.
	p := NewLastValue(2) // 4 entries
	p.Update(0x0, 1)
	p.Update(0x0+4*4, 2) // same entry
	if got := p.Predict(0x0); got != 2 {
		t.Errorf("aliased entry predicts %d, want 2", got)
	}
}

func TestStridePredictsStridePattern(t *testing.T) {
	for _, s := range []uint32{1, 4, 8, 0xfffffff0 /* negative stride */} {
		p := NewStride(10)
		if acc := tailAccuracy(p, strideSeq(1000, s, 100), 2); acc != 1 {
			t.Errorf("stride %d: accuracy = %v, want 1", int32(s), acc)
		}
	}
}

func TestStridePredictsConstantPattern(t *testing.T) {
	p := NewStride(10)
	if acc := tailAccuracy(p, repeatSeq([]uint32{5}, 50), 2); acc != 1 {
		t.Errorf("constant accuracy = %v, want 1", acc)
	}
}

func TestStrideConfidenceProtectsAcrossReset(t *testing.T) {
	// A loop counter 0..9 repeated: the reset (9 -> 0) is one
	// misprediction; a confident predictor must not unlearn the stride,
	// so the value after the reset is predicted correctly again.
	p := NewStride(10)
	vals := repeatSeq(strideSeq(0, 1, 10), 60)
	// After enough repetitions confidence saturates; measure the last
	// two full loops: exactly 1 miss per loop (the wraparound).
	var miss int
	for i, v := range vals {
		if p.Predict(0x40) != v && i >= 40 {
			miss++
		}
		p.Update(0x40, v)
	}
	if miss != 2 {
		t.Errorf("misses over 2 loops = %d, want 2 (one per wraparound)", miss)
	}
}

func TestStrideConfidenceCounterSaturation(t *testing.T) {
	p := NewStride(4)
	e := &p.table[pcIndex(0x40, 4)]
	for _, v := range strideSeq(0, 3, 20) {
		p.Update(0x40, v)
	}
	if e.conf != strideConfMax {
		t.Errorf("confidence = %d, want saturated %d", e.conf, strideConfMax)
	}
	// A wrong outcome decrements by 2.
	p.Update(0x40, 9999)
	if e.conf != strideConfMax-strideConfDecrement {
		t.Errorf("confidence after miss = %d, want %d", e.conf, strideConfMax-strideConfDecrement)
	}
	// Saturates at zero, never wraps.
	for i := 0; i < 10; i++ {
		p.Update(0x40, uint32(100000+i*17+i*i))
	}
	if e.conf > strideConfMax {
		t.Errorf("confidence wrapped: %d", e.conf)
	}
}

func TestTwoDeltaPredictsStridePattern(t *testing.T) {
	p := NewTwoDelta(10)
	if acc := tailAccuracy(p, strideSeq(7, 3, 100), 3); acc != 1 {
		t.Errorf("accuracy = %v, want 1", acc)
	}
}

func TestTwoDeltaResetCostsOneMiss(t *testing.T) {
	// The defining property (section 2.2): a reset of a loop control
	// variable introduces only one misprediction, because the stride
	// must occur twice in a row before s1 is replaced.
	p := NewTwoDelta(10)
	vals := repeatSeq(strideSeq(0, 1, 20), 100)
	var miss int
	for i, v := range vals {
		if p.Predict(0x40) != v && i >= 60 {
			miss++
		}
		p.Update(0x40, v)
	}
	if miss != 2 { // two wraparounds in the measured window
		t.Errorf("misses = %d, want 2", miss)
	}
}

func TestSizeBitsAccounting(t *testing.T) {
	cases := []struct {
		p    Predictor
		want int64
	}{
		{NewLastValue(10), 1024 * 32},
		{NewStride(10), 1024 * 67},
		{NewTwoDelta(10), 1024 * 96},
		{NewFCM(16, 12), 1<<16*12 + 1<<12*32},
		{NewDFCM(16, 12), 1<<16*(12+32) + 1<<12*32},
		{NewDFCMWidth(16, 12, 8), 1<<16*(12+32) + 1<<12*8},
		{NewMetaHybrid(NewLastValue(4), NewStride(4), 4), 16*32 + 16*67 + 16*2},
	}
	for _, c := range cases {
		if got := c.p.SizeBits(); got != c.want {
			t.Errorf("%s: SizeBits = %d, want %d", c.p.Name(), got, c.want)
		}
	}
}

func TestNames(t *testing.T) {
	cases := []struct {
		p    Predictor
		want string
	}{
		{NewLastValue(6), "lvp-2^6"},
		{NewStride(8), "stride-2^8"},
		{NewTwoDelta(8), "2delta-2^8"},
		{NewFCM(16, 12), "fcm-2^16/2^12"},
		{NewDFCM(16, 12), "dfcm-2^16/2^12"},
		{NewDFCMWidth(16, 12, 16), "dfcm-2^16/2^12/w16"},
		{NewDelayed(NewFCM(4, 8), 32), "fcm-2^4/2^8@delay32"},
	}
	for _, c := range cases {
		if got := c.p.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"lvp width", func() { NewLastValue(31) }},
		{"dfcm stride width 0", func() { NewDFCMWidth(4, 8, 0) }},
		{"dfcm stride width 33", func() { NewDFCMWidth(4, 8, 33) }},
		{"delayed negative", func() { NewDelayed(NewLastValue(4), -1) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.f()
		}()
	}
}
