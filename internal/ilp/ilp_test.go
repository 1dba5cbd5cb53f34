package ilp

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/progs"
	"repro/internal/vm"
)

func mustAsm(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const exit = "\nli $v0, 10\nsyscall\n"

func TestSerialChainHasHeightN(t *testing.T) {
	// A pure dependence chain: each addiu depends on the previous.
	p := mustAsm(t, `
	main:
		addiu $t0, $t0, 1
		addiu $t0, $t0, 1
		addiu $t0, $t0, 1
		addiu $t0, $t0, 1
		addiu $t0, $t0, 1
	`+exit)
	res, err := Measure(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 5 chained adds + li (independent) + syscall (reads v0 -> after li).
	if res.Height < 5 {
		t.Errorf("height = %d, want >= 5", res.Height)
	}
	if res.ILP() > 2 {
		t.Errorf("serial chain ILP = %.2f, want low", res.ILP())
	}
}

func TestIndependentOpsAreParallel(t *testing.T) {
	p := mustAsm(t, `
	main:
		addiu $t0, $zero, 1
		addiu $t1, $zero, 2
		addiu $t2, $zero, 3
		addiu $t3, $zero, 4
		addiu $t4, $zero, 5
		addiu $t5, $zero, 6
	`+exit)
	res, err := Measure(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ILP() < 2.5 {
		t.Errorf("independent ops ILP = %.2f, want high", res.ILP())
	}
}

func TestOracleCollapsesChains(t *testing.T) {
	// A long serial accumulation: the oracle publishes every result at
	// cycle 0, collapsing the chain to height ~1.
	p := mustAsm(t, `
	main:
		li   $t0, 0
		li   $t1, 0
	loop:
		addiu $t0, $t0, 1
		addu  $t1, $t1, $t0
		li    $t2, 2000
		bne   $t0, $t2, loop
	`+exit)
	base, err := Measure(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := Measure(p, 0, Oracle)
	if err != nil {
		t.Fatal(err)
	}
	if orc.Height >= base.Height/10 {
		t.Errorf("oracle height %d vs baseline %d: chains not collapsed", orc.Height, base.Height)
	}
	if orc.Accuracy() != 1 {
		t.Errorf("oracle accuracy = %v", orc.Accuracy())
	}
	if base.Predictable != 0 || base.Correct != 0 {
		t.Error("baseline should not consult a predictor")
	}
}

func TestRealPredictorBetweenBaselineAndOracle(t *testing.T) {
	p, err := progs.Program("li")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 150_000
	base, err := Measure(p, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	dfcm, err := Measure(p, budget, core.NewDFCM(14, 12))
	if err != nil {
		t.Fatal(err)
	}
	orc, err := Measure(p, budget, Oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !(base.ILP() <= dfcm.ILP() && dfcm.ILP() <= orc.ILP()) {
		t.Errorf("ILP ordering violated: base %.2f, dfcm %.2f, oracle %.2f",
			base.ILP(), dfcm.ILP(), orc.ILP())
	}
	if dfcm.ILP() <= base.ILP() {
		t.Errorf("DFCM should raise ILP above the dataflow limit (%.2f vs %.2f)",
			dfcm.ILP(), base.ILP())
	}
}

func TestPredictableCountMatchesVMFilter(t *testing.T) {
	// isa.DecodeDeps' Predictable flag must agree exactly with the
	// simulator's trace-emission filter.
	for _, bench := range []string{"li", "m88ksim", "cc1"} {
		p, err := progs.Program(bench)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Measure(p, 100_000, core.NewLastValue(4))
		if err != nil {
			t.Fatal(err)
		}
		c := vm.New(p, false)
		if err := c.Run(res.Instructions); err != nil && err != vm.ErrBudget {
			t.Fatal(err)
		}
		if res.Predictable != c.Emitted {
			t.Errorf("%s: deps filter counts %d predictable, VM emits %d",
				bench, res.Predictable, c.Emitted)
		}
	}
}

func TestPredictorAccuracyMatchesCoreRun(t *testing.T) {
	// Consulting the predictor inside the ILP walk must reproduce the
	// exact accuracy of the standalone trace run.
	p, err := progs.Program("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Measure(p, 120_000, core.NewDFCM(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := vm.Trace(p, res.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.Run(core.NewDFCM(12, 10), tr)
	if ref.Predictions != res.Predictable || ref.Correct != res.Correct {
		t.Errorf("ILP walk scored %d/%d, trace run %d/%d",
			res.Correct, res.Predictable, ref.Correct, ref.Predictions)
	}
}

func TestDecodeDepsSpotChecks(t *testing.T) {
	cases := []struct {
		word uint32
		want isa.Deps
	}{
		{0, isa.Deps{Src1: -1, Src2: -1, Dest: -1, Dest2: -1}}, // nop
		{isa.EncodeR(isa.FnADDU, isa.RegT0, isa.RegT1, isa.RegT2, 0),
			isa.Deps{Src1: isa.RegT1, Src2: isa.RegT2, Dest: isa.RegT0, Dest2: -1, Predictable: true}},
		{isa.EncodeR(isa.FnMULT, 0, isa.RegT0, isa.RegT1, 0),
			isa.Deps{Src1: isa.RegT0, Src2: isa.RegT1, Dest: isa.RegLO, Dest2: isa.RegHI, Predictable: true}},
		{isa.EncodeI(isa.OpLW, isa.RegT0, isa.RegSP, 4),
			isa.Deps{Src1: isa.RegSP, Src2: -1, Dest: isa.RegT0, Dest2: -1, Load: true, Predictable: true}},
		{isa.EncodeI(isa.OpSW, isa.RegT0, isa.RegSP, 4),
			isa.Deps{Src1: isa.RegSP, Src2: isa.RegT0, Dest: -1, Dest2: -1, Store: true}},
		{isa.EncodeI(isa.OpBEQ, isa.RegT1, isa.RegT0, 4),
			isa.Deps{Src1: isa.RegT0, Src2: isa.RegT1, Dest: -1, Dest2: -1, Branch: true}},
		{isa.EncodeJ(isa.OpJAL, 0x100),
			isa.Deps{Src1: -1, Src2: -1, Dest: isa.RegRA, Dest2: -1, Branch: true}},
		{isa.EncodeI(isa.OpADDIU, 0 /* $zero dest */, isa.RegT0, 1),
			isa.Deps{Src1: isa.RegT0, Src2: -1, Dest: -1, Dest2: -1}},
	}
	for _, c := range cases {
		if got := isa.DecodeDeps(c.word); got != c.want {
			t.Errorf("DecodeDeps(%#x) = %+v, want %+v", c.word, got, c.want)
		}
	}
}
