package core

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// mixedTrace interleaves a constant instruction, a stride instruction,
// a context-pattern instruction and a random instruction.
func mixedTrace(n int, seed int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	pattern := []uint32{3, 99, 15, 2, 60}
	var tr trace.Trace
	for i := 0; i < n; i++ {
		tr = append(tr,
			trace.Event{PC: 0x100, Value: 7},
			trace.Event{PC: 0x104, Value: uint32(i * 16)},
			trace.Event{PC: 0x108, Value: pattern[i%len(pattern)]},
			trace.Event{PC: 0x10c, Value: rng.Uint32()},
		)
	}
	return tr
}

// perfectAccuracy is the accuracy of a perfect meta-predictor over
// the given components: the union of their standalone hit masks.
func perfectAccuracy(tr trace.Trace, comps ...Predictor) float64 {
	masks := make([][]uint64, len(comps))
	for i, c := range comps {
		masks[i] = make([]uint64, HitWords(len(tr)))
		Hits(c, tr, masks[i])
	}
	return float64(UnionHits(masks...)) / float64(len(tr))
}

func TestPerfectHybridAtLeastAsGoodAsComponents(t *testing.T) {
	tr := mixedTrace(2000, 1)
	stride := Run(NewStride(8), trace.NewReader(tr)).Accuracy()
	fcm := Run(NewFCM(8, 12), trace.NewReader(tr)).Accuracy()
	hybrid := perfectAccuracy(tr, NewStride(8), NewFCM(8, 12))
	if hybrid < stride || hybrid < fcm {
		t.Errorf("perfect hybrid %.3f below components (stride %.3f, fcm %.3f)",
			hybrid, stride, fcm)
	}
}

func TestDFCMBeatsPerfectStrideFCMHybridUnderPressure(t *testing.T) {
	// Section 4.3's qualitative result, in miniature: with a small L2
	// the DFCM outperforms even a perfect STRIDE+FCM hybrid, because
	// the hybrid's FCM component still wastes its L2 on strides.
	tr := make(trace.Trace, 0, 1<<17)
	pattern := []uint32{11, 3, 250, 77, 4, 92, 13, 8}
	for i := 0; len(tr) < cap(tr); i++ {
		// All PCs in one contiguous region so they occupy distinct
		// level-1 entries (0x1000 and 0x2000 would alias in a
		// 1024-entry PC-indexed table).
		for k := 0; k < 24; k++ {
			tr = append(tr, trace.Event{PC: uint32(0x1000 + k*4), Value: uint32(k*1000 + i*(2*k+1))})
		}
		for k := 0; k < 8; k++ {
			tr = append(tr, trace.Event{PC: uint32(0x1000 + (64+k)*4), Value: pattern[(i+k)%len(pattern)]})
		}
	}
	dfcm := Run(NewDFCM(10, 8), trace.NewReader(tr)).Accuracy()
	hybrid := perfectAccuracy(tr, NewStride(10), NewFCM(10, 8))
	if dfcm <= hybrid-0.02 {
		t.Errorf("DFCM %.3f should be competitive with perfect STRIDE+FCM %.3f under L2 pressure",
			dfcm, hybrid)
	}
}

func TestMetaHybridTracksBetterComponent(t *testing.T) {
	// On a pure stride workload the meta predictor must converge to
	// the stride component.
	h := NewMetaHybrid(NewStride(8), NewLastValue(8), 8)
	res := Run(h, seqSource(0x40, strideSeq(0, 3, 500)))
	if res.Accuracy() < 0.95 {
		t.Errorf("meta hybrid accuracy = %.3f, want >= 0.95 on stride workload", res.Accuracy())
	}
}

func TestMetaHybridBetweenComponentsOnMixedTrace(t *testing.T) {
	tr := mixedTrace(3000, 7)
	a := Run(NewStride(8), trace.NewReader(tr)).Accuracy()
	b := Run(NewLastValue(8), trace.NewReader(tr)).Accuracy()
	m := Run(NewMetaHybrid(NewStride(8), NewLastValue(8), 8), trace.NewReader(tr)).Accuracy()
	lo := min(a, b)
	if m < lo-0.05 {
		t.Errorf("meta hybrid %.3f far below both components (%.3f, %.3f)", m, a, b)
	}
	perfect := perfectAccuracy(tr, NewStride(8), NewLastValue(8))
	if m > perfect {
		t.Errorf("meta hybrid %.3f above perfect hybrid %.3f", m, perfect)
	}
}
