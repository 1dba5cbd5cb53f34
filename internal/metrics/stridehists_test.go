package metrics

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// histTrace interleaves stride runs with context-dependent noise over
// several PCs so both the oracle and the level-2 occupancy are
// non-trivial.
func histTrace(n int) trace.Trace {
	tr := make(trace.Trace, 0, n)
	var a, b uint32
	for i := 0; i < n; i++ {
		a += 4
		tr = append(tr, trace.Event{PC: 0x100, Value: a})
		b = b*5 + uint32(i%9)
		tr = append(tr, trace.Event{PC: 0x104 + 4*uint32(i%3), Value: b})
	}
	return tr
}

// TestStrideHistsMatchPerRunHistograms: the single-pass shared-oracle
// scan must reproduce, bit for bit, the histograms of one
// StrideHist.Run per predictor over the same trace, on each of its
// loops: FCM alone, the FCM and DFCM pair, and the generic loop.
func TestStrideHistsMatchPerRunHistograms(t *testing.T) {
	tr := histTrace(4000)
	const oracleBits, l2 = 10, 8
	hits := StrideHits(oracleBits, tr)
	fcm := func() core.Predictor { return core.NewFCM(8, l2) }
	dfcm := func() core.Predictor { return core.NewDFCM(8, l2) }
	for _, mks := range [][]func() core.Predictor{{fcm}, {fcm, dfcm}, {dfcm, fcm}} {
		ps := make([]core.Predictor, len(mks))
		for i, mk := range mks {
			ps[i] = mk()
		}
		got := StrideHistsFromHits(hits, tr, ps...)
		if len(got) != len(mks) {
			t.Fatalf("got %d histograms, want %d", len(got), len(mks))
		}
		for i, mk := range mks {
			ref := NewStrideHist(1<<l2, oracleBits).Run(mk(), tr)
			if len(got[i]) != len(ref) {
				t.Fatalf("%s: %d entries, want %d", ps[i].Name(), len(got[i]), len(ref))
			}
			for j := range ref {
				if got[i][j] != ref[j] {
					t.Errorf("%s rank %d: %d, want %d", ps[i].Name(), j, got[i][j], ref[j])
					break
				}
			}
			if ref.Total() == 0 {
				t.Errorf("%s: no stride accesses recorded; trace not exercising the oracle", ps[i].Name())
			}
		}
	}
}

// TestStrideHistsRejectsNonIndexer mirrors StrideHist.Run's contract.
func TestStrideHistsRejectsNonIndexer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for predictor without L2Index")
		}
	}()
	tr := histTrace(1)
	StrideHistsFromHits(StrideHits(4, tr), tr, core.NewLastValue(4))
}
