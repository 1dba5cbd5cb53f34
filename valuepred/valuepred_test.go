package valuepred_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/valuepred"
)

func TestPublicAPISurface(t *testing.T) {
	// Every constructor must be reachable and produce a working
	// predictor through the facade alone.
	preds := []valuepred.Predictor{
		valuepred.NewLastValue(8),
		valuepred.NewStride(8),
		valuepred.NewTwoDelta(8),
		valuepred.NewLastN(8, 4),
		valuepred.NewFCM(8, 10),
		valuepred.NewDFCM(8, 10),
		valuepred.NewDFCMWidth(8, 10, 16),
		valuepred.NewMetaHybrid(valuepred.NewStride(8), valuepred.NewFCM(8, 10), 8),
		valuepred.NewClassified(8, 16, 8, valuepred.NewLastValue(8), valuepred.NewStride(8)),
		valuepred.NewDelayed(valuepred.NewDFCM(8, 10), 16),
		valuepred.NewTAGE(8, 6, 32, 4, 8, 4, 64),
	}
	var tr valuepred.Trace
	for i := 0; i < 500; i++ {
		tr = append(tr, valuepred.Event{PC: 0x40, Value: uint32(i * 3)})
	}
	for _, p := range preds {
		res := valuepred.Run(p, valuepred.NewReader(tr))
		if res.Predictions != uint64(len(tr)) {
			t.Errorf("%s: %d predictions", p.Name(), res.Predictions)
		}
	}
}

// TestPublicHitMasks: Hits through the facade agrees with Run, and
// the union of two masks (the perfect hybrid) counts at least each
// component's hits.
func TestPublicHitMasks(t *testing.T) {
	var tr valuepred.Trace
	for i := 0; i < 500; i++ {
		v := uint32(i * 3)
		if i%2 == 1 {
			v = 42
		}
		tr = append(tr, valuepred.Event{PC: 0x40 + 4*uint32(i%2), Value: v})
	}
	lvp := make([]uint64, valuepred.HitWords(len(tr)))
	stride := make([]uint64, len(lvp))
	rl := valuepred.Hits(valuepred.NewLastValue(8), tr, lvp)
	rs := valuepred.Hits(valuepred.NewStride(8), tr, stride)
	if want := valuepred.Run(valuepred.NewStride(8), valuepred.NewReader(tr)); rs != want {
		t.Errorf("Hits %+v, Run %+v", rs, want)
	}
	if u := valuepred.UnionHits(lvp, stride); u < rl.Correct || u < rs.Correct || u > uint64(len(tr)) {
		t.Errorf("union %d outside [max(%d, %d), %d]", u, rl.Correct, rs.Correct, len(tr))
	}
}

func TestPublicConfidenceAPI(t *testing.T) {
	p := valuepred.NewDFCM(8, 10)
	var estimators []valuepred.ConfidentPredictor
	estimators = append(estimators,
		valuepred.NewCounterConfidence(valuepred.NewDFCM(8, 10), 8, 15, 8),
		valuepred.NewHashTag(valuepred.NewDFCM(8, 10), 8, 3),
		valuepred.NewCombined(p, valuepred.NewHashTag(p, 8, 3),
			valuepred.NewCounterConfidence(p, 8, 15, 8)),
	)
	var tr valuepred.Trace
	for i := 0; i < 300; i++ {
		tr = append(tr, valuepred.Event{PC: 0x40, Value: uint32(i)})
	}
	for _, e := range estimators {
		res := valuepred.RunConfident(e, valuepred.NewReader(tr))
		if res.All.Predictions != uint64(len(tr)) {
			t.Errorf("%s: missing predictions", e.Name())
		}
	}
}

func TestPublicTraceIO(t *testing.T) {
	tr := valuepred.Trace{{PC: 0x40, Value: 7}, {PC: 0x44, Value: 9}}
	for _, write := range []func(*bytes.Buffer, valuepred.Trace) error{
		func(b *bytes.Buffer, t valuepred.Trace) error { return valuepred.WriteTrace(b, t) },
		func(b *bytes.Buffer, t valuepred.Trace) error { return valuepred.WriteTraceCompressed(b, t) },
	} {
		var buf bytes.Buffer
		if err := write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := valuepred.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != tr[0] {
			t.Errorf("round trip: %v", got)
		}
	}
}

func TestPublicHashAPI(t *testing.T) {
	var h valuepred.HashFunc = valuepred.NewFSR5(12)
	if h.Order() != 3 {
		t.Errorf("FS R-5 order at n=12 = %d", h.Order())
	}
	if valuepred.NewFSR(12, 3).Order() != 4 {
		t.Error("FS R-3 order wrong")
	}
}

// The facade in action, as a user would write it.
func ExampleNewDFCM() {
	p := valuepred.NewDFCM(10, 12)
	correct := 0
	for i := 0; i < 50; i++ {
		v := uint32(100 + 9*i)
		if p.Predict(0x40) == v {
			correct++
		}
		p.Update(0x40, v)
	}
	fmt.Printf("%d/50 after warmup\n", correct)
	// Output:
	// 45/50 after warmup
}
