package vm_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/progs"
	"repro/internal/trace"
	"repro/internal/vm"
)

// shapeBudget bounds every run of the run-shape test.
const shapeBudget = 30_000

// endState is everything a run can be observed by.
type endState struct {
	Regs              [isa.NumRegs]uint32
	HI, LO, PC        uint32
	Executed, Emitted uint64
	Halted            bool
	Stdout            string
	Mem               string
	Events            trace.Trace
	Err               string // each run makes its own error value
}

// runShapes are the four ways to drive a CPU through the same
// instructions.
var runShapes = []struct {
	name string
	run  func(c *vm.CPU, budget uint64) (trace.Trace, error)
}{
	{"one Run", func(c *vm.CPU, budget uint64) (trace.Trace, error) {
		err := c.Run(budget)
		return c.Events(), err
	}},
	{"Run increments", func(c *vm.CPU, budget uint64) (trace.Trace, error) {
		// Random budget steps, with the events drained between them.
		rng := rand.New(rand.NewSource(int64(budget)))
		var events trace.Trace
		for {
			limit := min(c.Executed+1+uint64(rng.Intn(3000)), budget)
			err := c.Run(limit)
			events = append(events, c.Events()...)
			if err != vm.ErrBudget || limit == budget {
				return events, err
			}
		}
	}},
	{"Step loop", func(c *vm.CPU, budget uint64) (trace.Trace, error) {
		for !c.Halted() {
			if c.Executed >= budget {
				return c.Events(), vm.ErrBudget
			}
			if err := c.Step(); err != nil {
				return c.Events(), err
			}
		}
		return c.Events(), nil
	}},
	{"stripped ops", func(c *vm.CPU, budget uint64) (trace.Trace, error) {
		vm.StripOps(c)
		err := c.Run(budget)
		return c.Events(), err
	}},
}

// checkRunShapes runs p each way and fails unless all four end in
// the same state. It returns that state and the first way's error.
func checkRunShapes(t *testing.T, p *asm.Program) (endState, error) {
	t.Helper()
	var first endState
	var firstErr error
	for i, shape := range runShapes {
		c := vm.New(p, true)
		events, err := shape.run(c, shapeBudget)
		got := endState{c.Regs, c.HI, c.LO, c.PC, c.Executed, c.Emitted, c.Halted(),
			string(c.Stdout), vm.MemDigest(c.Mem), events, fmt.Sprint(err)}
		if uint64(len(events)) != c.Emitted {
			t.Errorf("%s: %d events, Emitted %d", shape.name, len(events), c.Emitted)
		}
		if i == 0 {
			first, firstErr = got, err
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("%s ends differently from %s:\n got %+v\nwant %+v", shape.name, runShapes[0].name, got, first)
		}
	}
	return first, firstErr
}

func TestRunShapesOnPrograms(t *testing.T) {
	for _, name := range progs.Names() {
		t.Run(name, func(t *testing.T) {
			p, err := progs.Program(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := checkRunShapes(t, p); err != nil && err != vm.ErrBudget {
				t.Errorf("run: %v", err)
			}
		})
	}
	files, err := filepath.Glob("../../examples/mr32/*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("example programs: %v, %d files", err, len(files))
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := checkRunShapes(t, mustAssemble(t, string(src))); err != nil && err != vm.ErrBudget {
				t.Errorf("run: %v", err)
			}
		})
	}
}

func mustAssemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// TestRunShapesOnFixtures covers the paths the benchmark programs do
// not: self-modifying code, a jump into data, an unaligned PC and
// syscalls, and every fault, which must stop each run shape on the
// instruction labelled fault.
func TestRunShapesOnFixtures(t *testing.T) {
	const exit = "\nli $v0, 10\nsyscall\n"
	for _, tc := range []struct {
		name, src string
		word      uint32 // if set, replaces the instruction at fault
		err       error  // with no fault label, the program exits cleanly
	}{
		{"self-modifying", `
		main:	la $t0, patch
			li $t4, 0
		patch:	addiu $t1, $zero, 1
			bnez $t4, done
			li $t4, 1
			li $t2, 0x24090002
			sw $t2, 0($t0)
			li $t2, 0x0003
			sh $t2, 0($t0)
			li $t2, 0x0b
			sb $t2, 2($t0)
			b patch
		done:` + exit, 0, nil},
		{"cross-page store into text", `
		main:	addiu $t1, $zero, 1
			bnez $t4, done
			li $t4, 1
			li $t0, 0x3fffff
			li $t2, 0x5500
			sh $t2, 0($t0)
			j main
		done:` + exit, 0, nil},
		{"jump into data and unaligned pc", `
		.data
		code: .word 0x24090007, 0x03e00008
		.text
		main:	la $t0, code
			jalr $t0
			la $t1, a
			addiu $t1, $t1, 2
			la $ra, back
			jr $t1
		# Two bytes into a the words read addiu $t1, $zero, 0x1234
		# (0x24091234), then jr $ra (0x03e03508).
		a:	beq $s1, $s4, main
			ori $t0, $t0, 0x2409
			ori $t0, $t0, 0x03e0
		back:` + exit, 0, nil},
		{"syscalls", `
		.data
		msg: .asciiz "n="
		.text
		main:	la $a0, msg
			li $v0, 4
			syscall
			li $a0, -42
			li $v0, 1
			syscall
			li $a0, 10
			li $v0, 11
			syscall
			li $a0, 64
			li $v0, 9
			syscall
			sw $v0, 0($v0)` + exit, 0, nil},
		{"div by zero", "main: li $t0, 3\nmult $t0, $t0\nfault: div2 $t0, $zero" + exit, 0, vm.ErrDivZero},
		{"divu by zero", "main: li $t0, 3\nfault: divu $t0, $zero" + exit, 0, vm.ErrDivZero},
		{"misaligned lw", "main: li $t0, 2\nfault: lw $t1, 0($t0)" + exit, 0, vm.ErrMisalign},
		{"misaligned lw to zero", "main: li $t0, 2\nfault: lw $zero, 0($t0)" + exit, 0, vm.ErrMisalign},
		{"misaligned sw", "main: li $t0, 6\nsw $t1, 2($t0)\nfault: sw $t1, 0($t0)" + exit, 0, vm.ErrMisalign},
		{"illegal op", "main: li $t0, 1\nfault: nop" + exit, 0xffffffff, vm.ErrBadOp},
		{"illegal funct", "main: li $t0, 1\nfault: nop" + exit, isa.EncodeR(0x3f, 1, 2, 3, 0), vm.ErrBadOp},
		{"illegal regimm", "main: li $t0, 1\nfault: nop" + exit, isa.EncodeI(isa.OpRegImm, 9, 0, 0), vm.ErrBadOp},
		{"unknown syscall", "main: li $v0, 999\nfault: syscall" + exit, 0, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustAssemble(t, tc.src)
			fault, faults := p.Symbols["fault"]
			if tc.word != 0 {
				p.Text[(fault-isa.TextBase)/4] = tc.word
			}
			end, err := checkRunShapes(t, p)
			switch {
			case !faults && err != nil:
				t.Fatalf("run: %v", err)
			case !faults:
				if !end.Halted {
					t.Error("did not exit")
				}
			case err == nil || tc.err != nil && !errors.Is(err, tc.err):
				t.Errorf("err %v, want %v", err, tc.err)
			case end.PC != fault:
				t.Errorf("stopped at pc %#x, want the faulting instruction at %#x", end.PC, fault)
			}
		})
	}
}

// TestEventsDrainAcrossChunks drains a collecting CPU mid-run and
// runs it on through several more event chunks: the chunks Events
// recycles must never be written again by the CPU that gave them up.
func TestEventsDrainAcrossChunks(t *testing.T) {
	p, err := progs.Program("li")
	if err != nil {
		t.Fatal(err)
	}
	const first, total = 100_000, 400_000
	want, err := vm.Trace(p, total)
	if err != nil {
		t.Fatal(err)
	}
	c := vm.New(p, true)
	if err := c.Run(first); err != vm.ErrBudget {
		t.Fatalf("first run: %v", err)
	}
	got := c.Events()
	if err := c.Run(total); err != vm.ErrBudget {
		t.Fatalf("second run: %v", err)
	}
	got = append(got, c.Events()...)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drained trace (%d events) differs from vm.Trace (%d events)", len(got), len(want))
	}
}

// TestBudgetsAroundChunkEdges runs straight-line code, where every
// instruction emits an event, to budgets around the size of the chunk
// a discarding CPU overwrites: the chunk must never overflow, however
// the budget and the chunk's room line up.
func TestBudgetsAroundChunkEdges(t *testing.T) {
	src := "main:\n" + strings.Repeat("addiu $t0, $t0, 1\n", 1100) + "li $v0, 10\nsyscall\n"
	p := mustAssemble(t, src)
	for _, collect := range []bool{false, true} {
		for _, budget := range []uint64{1, 511, 512, 513, 514, 1023, 1024, 1025} {
			c := vm.New(p, collect)
			if err := c.Run(budget); err != vm.ErrBudget {
				t.Fatalf("collect=%v budget %d: %v", collect, budget, err)
			}
			if c.Executed != budget || c.Emitted != budget || uint64(c.Regs[isa.RegT0]) != budget {
				t.Errorf("collect=%v budget %d: executed %d, emitted %d, $t0 %d",
					collect, budget, c.Executed, c.Emitted, c.Regs[isa.RegT0])
			}
			if n := uint64(len(c.Events())); collect && n != budget {
				t.Errorf("collect=%v budget %d: %d events", collect, budget, n)
			}
		}
	}
}
