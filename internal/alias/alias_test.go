package alias

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/progs"
	"repro/internal/trace"
)

func TestKindStrings(t *testing.T) {
	want := []string{"l1", "hash", "l2_priv", "l2_pc", "none"}
	for i, k := range Kinds() {
		if k.String() != want[i] {
			t.Errorf("kind %d = %q, want %q", i, k, want[i])
		}
	}
	if Kind(99).String() == "" {
		t.Error("out-of-range kind should still format")
	}
}

// mixedTrace builds a workload with strides, context patterns,
// interfering instructions and noise.
func mixedTrace(n int, seed int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	pattern := []uint32{5, 19, 3, 200, 42, 7}
	var tr trace.Trace
	for i := 0; i < n; i++ {
		for k := 0; k < 12; k++ {
			pc := uint32(0x1000 + 4*k)
			var v uint32
			switch k % 4 {
			case 0:
				v = uint32(i * (k + 1))
			case 1:
				v = pattern[(i+k)%len(pattern)]
			case 2:
				v = 77
			default:
				v = rng.Uint32() >> 16
			}
			tr = append(tr, trace.Event{PC: pc, Value: v})
		}
	}
	return tr
}

func TestAnalyzerMatchesCorePredictor(t *testing.T) {
	// The analyzer's predict/update must be bit-identical to the
	// production predictors on an identical trace.
	tr := mixedTrace(4000, 5)
	for _, differential := range []bool{false, true} {
		var ref core.Predictor
		if differential {
			ref = core.NewDFCM(8, 10)
		} else {
			ref = core.NewFCM(8, 10)
		}
		an := New(8, 10, differential)
		var refRes, anRes core.Result
		for _, e := range tr {
			refRes.Predictions++
			if ref.Predict(e.PC) == e.Value {
				refRes.Correct++
			}
			ref.Update(e.PC, e.Value)
			_, ok := an.Step(e.PC, e.Value)
			anRes.Predictions++
			if ok {
				anRes.Correct++
			}
		}
		if refRes != anRes {
			t.Errorf("differential=%v: analyzer %+v != core %+v", differential, anRes, refRes)
		}
		if an.Total() != anRes {
			t.Errorf("Total() = %+v, want %+v", an.Total(), anRes)
		}
	}
}

func TestCategoriesPartitionPredictions(t *testing.T) {
	an := New(6, 8, true)
	tr := mixedTrace(2000, 9)
	an.Run(tr)
	var sum uint64
	for _, c := range an.Counts() {
		sum += c.Predictions
	}
	if sum != uint64(len(tr)) {
		t.Errorf("categories cover %d of %d predictions", sum, len(tr))
	}
}

func TestSingleInstructionNeverL1OrL2PC(t *testing.T) {
	// With one static instruction there is no cross-instruction
	// aliasing: l1 and l2_pc must be empty.
	an := New(6, 8, false)
	for i := 0; i < 3000; i++ {
		an.Step(0x40, uint32(i%7)*13)
	}
	c := an.Counts()
	if c[L1].Predictions != 0 {
		t.Errorf("l1 count = %d, want 0", c[L1].Predictions)
	}
	if c[L2PC].Predictions != 0 {
		t.Errorf("l2_pc count = %d, want 0", c[L2PC].Predictions)
	}
}

func TestL1AliasingDetected(t *testing.T) {
	// Two instructions sharing one level-1 entry (tiny table).
	an := New(0, 12, false) // single L1 entry
	for i := 0; i < 500; i++ {
		an.Step(0x40, uint32(i))
		an.Step(0x44, uint32(1000+i))
	}
	if an.Counts()[L1].Predictions == 0 {
		t.Error("forced level-1 sharing produced no l1 aliasing")
	}
}

func TestL2PCAliasingDetected(t *testing.T) {
	// Two instructions with identical repeating patterns and separate
	// level-1 entries share level-2 contexts: l2_pc events expected,
	// and they should be well predictable (the paper's observation).
	// Adjacent PCs so they get distinct level-1 entries even in a
	// 64-entry table.
	an := New(6, 12, false)
	pattern := []uint32{9, 2, 25, 7, 1}
	for i := 0; i < 4000; i++ {
		v := pattern[i%len(pattern)]
		an.Step(0x100, v)
		an.Step(0x104, v)
	}
	c := an.Counts()
	if c[L2PC].Predictions == 0 {
		t.Fatal("identical patterns on two PCs produced no l2_pc aliasing")
	}
	if acc := c[L2PC].Accuracy(); acc < 0.9 {
		t.Errorf("l2_pc accuracy = %.3f; aliasing between identical patterns should be benign", acc)
	}
}

func TestHashAliasingLowAccuracy(t *testing.T) {
	// On a benchmark trace, hash-aliased predictions must be much
	// less accurate than non-aliased ones (paper Figure 12).
	tr, err := progs.TraceFor("li", 400_000)
	if err != nil {
		t.Fatal(err)
	}
	an := New(10, 8, false) // small L2 to force hash pressure
	an.Run(tr)
	c := an.Counts()
	if c[Hash].Predictions == 0 {
		t.Fatal("no hash aliasing on a small level-2 table")
	}
	hashAcc := c[Hash].Accuracy()
	noneAcc := c[None].Accuracy()
	if c[None].Predictions > 100 && hashAcc > noneAcc-0.1 {
		t.Errorf("hash accuracy %.3f not clearly below none accuracy %.3f", hashAcc, noneAcc)
	}
}

func TestDFCMShiftsAliasMixTowardL2PC(t *testing.T) {
	// The paper's Figure 13 observation: DFCM maps same-stride
	// patterns from different instructions to the same entries, so
	// l2_pc grows relative to FCM.
	var tr trace.Trace
	for i := 0; i < 3000; i++ {
		for k := 0; k < 8; k++ {
			// Eight instructions, all stride 3, different bases.
			tr = append(tr, trace.Event{PC: uint32(0x1000 + 4*k), Value: uint32(k*100000 + i*3)})
		}
	}
	fcm := New(8, 10, false)
	fcm.Run(tr)
	dfcm := New(8, 10, true)
	dfcm.Run(tr)
	f := float64(fcm.Counts()[L2PC].Predictions) / float64(len(tr))
	d := float64(dfcm.Counts()[L2PC].Predictions) / float64(len(tr))
	if d <= f {
		t.Errorf("l2_pc fraction: dfcm %.3f should exceed fcm %.3f on shared-stride workload", d, f)
	}
}

func TestName(t *testing.T) {
	if got, want := New(4, 8, false).Name(), "fcm-2^4/2^8 (alias analysis)"; got != want {
		t.Errorf("FCM name = %q, want %q", got, want)
	}
	if got, want := New(4, 8, true).Name(), "dfcm-2^4/2^8 (alias analysis)"; got != want {
		t.Errorf("DFCM name = %q, want %q", got, want)
	}
}

// refAnalyzer is the straightforward form of the classifier: one
// struct per table entry, histories as growing slices and one map per
// level-1 entry for its private level-2 table. The flat Analyzer must
// agree with it on every event.
type refAnalyzer struct {
	differential bool
	h            *hash.FSR
	order        int
	l1mask       uint32
	l1           []refL1
	l2           []refL2
	priv         []map[uint64]uint32
	counts       [NumKinds]core.Result
}

type refItem struct{ value, pc uint32 }

type refL1 struct {
	last   uint32
	hist   uint64
	recent []refItem
}

type refL2 struct {
	value    uint32
	tagPC    uint32
	tagHist  []uint32
	tagValid bool
}

func newRef(l1bits, l2bits uint, differential bool) *refAnalyzer {
	h := hash.NewFSR5(l2bits)
	return &refAnalyzer{
		differential: differential,
		h:            h,
		order:        h.Order(),
		l1mask:       uint32(1<<l1bits) - 1,
		l1:           make([]refL1, 1<<l1bits),
		l2:           make([]refL2, 1<<l2bits),
		priv:         make([]map[uint64]uint32, 1<<l1bits),
	}
}

func (a *refAnalyzer) Step(pc, value uint32) (Kind, bool) {
	i := (pc >> 2) & a.l1mask
	e := &a.l1[i]
	idx := e.hist
	l2 := &a.l2[idx]
	pred := l2.value
	if a.differential {
		pred += e.last
	}
	correct := pred == value
	kind := a.classify(pc, i, e, l2, idx)
	a.counts[kind].Predictions++
	if correct {
		a.counts[kind].Correct++
	}

	w := value
	if a.differential {
		w = value - e.last
		e.last = value
	}
	l2.value = w
	l2.tagPC = pc
	l2.tagHist = l2.tagHist[:0]
	for _, it := range e.recent {
		l2.tagHist = append(l2.tagHist, it.value)
	}
	l2.tagValid = true
	if a.priv[i] == nil {
		a.priv[i] = make(map[uint64]uint32)
	}
	a.priv[i][idx] = w
	e.hist = a.h.Update(e.hist, uint64(w))
	e.recent = append(e.recent, refItem{value: w, pc: pc})
	if len(e.recent) > a.order {
		e.recent = e.recent[1:]
	}
	return kind, correct
}

func (a *refAnalyzer) classify(pc, i uint32, e *refL1, l2 *refL2, idx uint64) Kind {
	for _, it := range e.recent {
		if it.pc != pc {
			return L1
		}
	}
	if !l2.tagValid || len(l2.tagHist) != len(e.recent) {
		return Hash
	}
	for k, it := range e.recent {
		if l2.tagHist[k] != it.value {
			return Hash
		}
	}
	if a.priv[i][idx] != l2.value {
		return L2Priv
	}
	if l2.tagPC != pc {
		return L2PC
	}
	return None
}

// checkAgainstRef steps an Analyzer and a refAnalyzer through tr and
// fails on the first event they classify or score differently, or if
// their per-category counts differ at the end.
func checkAgainstRef(t *testing.T, tr trace.Trace, l1bits, l2bits uint, differential bool) {
	t.Helper()
	an, ref := New(l1bits, l2bits, differential), newRef(l1bits, l2bits, differential)
	for n, e := range tr {
		k, ok := an.Step(e.PC, e.Value)
		rk, rok := ref.Step(e.PC, e.Value)
		if k != rk || ok != rok {
			t.Fatalf("%s: event %d (pc %#x value %d): got (%v, %v), reference (%v, %v)",
				an.Name(), n, e.PC, e.Value, k, ok, rk, rok)
		}
	}
	if an.Counts() != ref.counts {
		t.Errorf("%s: counts %v, reference %v", an.Name(), an.Counts(), ref.counts)
	}
}

func TestAnalyzerMatchesReference(t *testing.T) {
	// l1bits 0 puts all twelve instructions on one level-1 entry;
	// l2bits 4 folds through FSR.Update, not Fold32. The shuffled
	// copy visits the instructions in no fixed order, so a shared
	// level-1 entry's history mixes them irregularly.
	for _, l1bits := range []uint{0, 2, 6} {
		for _, l2bits := range []uint{4, 8, 12} {
			seed := int64(100*l1bits + l2bits)
			tr := mixedTrace(1500, seed)
			shuffled := append(trace.Trace(nil), tr...)
			rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			for _, differential := range []bool{false, true} {
				checkAgainstRef(t, tr, l1bits, l2bits, differential)
				checkAgainstRef(t, shuffled, l1bits, l2bits, differential)
			}
		}
	}
}

func TestAnalyzerMatchesReferenceOnBenchmark(t *testing.T) {
	tr, err := progs.TraceFor("go", 400_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, differential := range []bool{false, true} {
		checkAgainstRef(t, tr, 12, 12, differential)
	}
}

// BenchmarkAliasAnalyzer is Figure 12's per-benchmark kernel: the
// 2^12 x 2^12 FCM analyzer over a SPEC stand-in trace. The analyzer
// is warmed by one pass first, so every private level-2 row the trace
// touches exists and the steady state allocates nothing (an alloc
// gate in the Makefile's allocgate target).
func BenchmarkAliasAnalyzer(b *testing.B) {
	tr, err := progs.TraceFor("li", 200_000)
	if err != nil {
		b.Fatal(err)
	}
	an := New(12, 12, false)
	an.Run(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.Run(tr)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr)), "ns/event")
}
