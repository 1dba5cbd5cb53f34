package progs

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/vm"
)

func TestAllBenchmarksAssemble(t *testing.T) {
	for _, name := range Names() {
		if _, err := Program(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRegistryContents(t *testing.T) {
	if len(SPECNames()) != 8 {
		t.Fatal("expected 8 SPECint stand-ins")
	}
	for _, name := range SPECNames() {
		b, err := Get(name)
		if err != nil {
			t.Fatalf("%s missing: %v", name, err)
		}
		if b.SelfTerminating {
			t.Errorf("%s should run until the budget expires", name)
		}
		if b.Model == "" || b.Description == "" {
			t.Errorf("%s lacks Table-1 metadata", name)
		}
	}
	b, err := Get("norm")
	if err != nil || !b.SelfTerminating {
		t.Error("norm must exist and self-terminate")
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown benchmark did not error")
	}
}

func TestBenchmarksRunAndEmit(t *testing.T) {
	const budget = 300_000
	for _, name := range SPECNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr, err := TraceFor(name, budget)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			// The paper's filter keeps a large fraction of instructions:
			// expect a healthy event rate and PC diversity.
			if len(tr) < budget/10 {
				t.Errorf("only %d events from %d instructions", len(tr), budget)
			}
			pcs := make(map[uint32]bool)
			for _, e := range tr {
				pcs[e.PC] = true
			}
			if len(pcs) < 20 {
				t.Errorf("only %d distinct PCs; program too trivial", len(pcs))
			}
		})
	}
}

func TestNormRunsToCompletion(t *testing.T) {
	tr, err := TraceFor("norm", 0)
	if err != nil {
		t.Fatalf("norm: %v", err)
	}
	if len(tr) < 100_000 {
		t.Errorf("norm trace has only %d events", len(tr))
	}
}

func TestNormIsStrideHeavy(t *testing.T) {
	// The whole point of Figure 5: most of norm's values should be
	// correctly predictable by a stride predictor.
	tr, err := TraceFor("norm", 0)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ last, stride uint32 }
	table := make(map[uint32]*entry)
	var correct, total int
	for _, e := range tr {
		en := table[e.PC]
		if en == nil {
			en = &entry{}
			table[e.PC] = en
		}
		if en.last+en.stride == e.Value {
			correct++
		}
		total++
		en.stride = e.Value - en.last
		en.last = e.Value
	}
	if frac := float64(correct) / float64(total); frac < 0.5 {
		t.Errorf("stride-predictable fraction of norm = %.2f, want >= 0.5", frac)
	}
}

func TestTracesAreDeterministic(t *testing.T) {
	for _, name := range []string{"li", "m88ksim"} {
		a, err := TraceFor(name, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := TraceFor(name, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ", name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: event %d differs", name, i)
			}
		}
	}
}

func TestBenchmarksSustainLongRuns(t *testing.T) {
	// The unbounded programs must not fault even over longer budgets
	// (catches heap/table overflows that only appear later).
	if testing.Short() {
		t.Skip("long run")
	}
	for _, name := range SPECNames() {
		p, err := Program(name)
		if err != nil {
			t.Fatal(err)
		}
		c := vm.New(p, false)
		if err := c.Run(3_000_000); err != vm.ErrBudget {
			t.Errorf("%s: err = %v, want budget expiry", name, err)
		}
	}
}

func TestValueMixVariesAcrossBenchmarks(t *testing.T) {
	// Sanity check that the suite spans different behaviours: the
	// stride-predictable fraction should differ substantially between
	// the most regular and the most irregular benchmark.
	frac := func(tr trace.Trace) float64 {
		type entry struct{ last, stride uint32 }
		table := make(map[uint32]*entry)
		var correct int
		for _, e := range tr {
			en := table[e.PC]
			if en == nil {
				en = &entry{}
				table[e.PC] = en
			}
			if en.last+en.stride == e.Value {
				correct++
			}
			en.stride = e.Value - en.last
			en.last = e.Value
		}
		return float64(correct) / float64(len(tr))
	}
	lo, hi := 2.0, -1.0
	for _, name := range SPECNames() {
		tr, err := TraceFor(name, 400_000)
		if err != nil {
			t.Fatal(err)
		}
		f := frac(tr)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
		t.Logf("%s: stride-predictable %.3f", name, f)
	}
	if hi-lo < 0.15 {
		t.Errorf("benchmarks too homogeneous: stride fractions span [%.2f, %.2f]", lo, hi)
	}
}
