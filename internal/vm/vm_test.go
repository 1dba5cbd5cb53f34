package vm

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
)

func run(t *testing.T, src string, budget uint64) *CPU {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := New(p, false)
	if err := c.Run(budget); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

const exit = "\nli $v0, 10\nsyscall\n"

func TestMemoryByteWordRoundTrip(t *testing.T) {
	m := NewMemory()
	m.StoreWord(0x1000, 0xdeadbeef)
	if m.LoadWord(0x1000) != 0xdeadbeef {
		t.Error("word round trip failed")
	}
	// Little-endian layout.
	if m.LoadByte(0x1000) != 0xef || m.LoadByte(0x1003) != 0xde {
		t.Error("not little-endian")
	}
	m.StoreHalf(0x2000, 0x1234)
	if m.LoadHalf(0x2000) != 0x1234 {
		t.Error("half round trip failed")
	}
	// Untouched memory reads zero.
	if m.LoadWord(0x999000) != 0 {
		t.Error("untouched memory not zero")
	}
}

func TestMemoryCrossPage(t *testing.T) {
	m := NewMemory()
	addr := uint32(pageSize - 2)
	m.StoreWord(addr, 0x11223344)
	if got := m.LoadWord(addr); got != 0x11223344 {
		t.Errorf("cross-page word = %#x", got)
	}
}

func TestMemoryQuickWordRoundTrip(t *testing.T) {
	m := NewMemory()
	prop := func(addr, v uint32) bool {
		addr &^= 3
		m.StoreWord(addr, v)
		return m.LoadWord(addr) == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestArithmetic(t *testing.T) {
	c := run(t, `
	main:
		li   $t0, 7
		li   $t1, -3
		addu $t2, $t0, $t1   # 4
		subu $t3, $t0, $t1   # 10
		and  $t4, $t0, $t1   # 7 & -3 = 5
		or   $t5, $t0, $t1   # -1
		xor  $t6, $t0, $t1   # -6
		nor  $t7, $zero, $zero # -1
		slt  $s0, $t1, $t0   # 1
		sltu $s1, $t1, $t0   # 0 (0xfffffffd > 7)
	`+exit, 0)
	want := map[int]uint32{
		isa.RegT2: 4, isa.RegT3: 10, isa.RegT4: 5,
		isa.RegT5: 0xffffffff, isa.RegT6: 0xfffffffa, isa.RegT7: 0xffffffff,
		isa.RegS0: 1, isa.RegS1: 0,
	}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("$%s = %#x, want %#x", isa.RegNames[r], c.Regs[r], v)
		}
	}
}

func TestShifts(t *testing.T) {
	c := run(t, `
	main:
		li   $t0, -8
		sll  $t1, $t0, 2     # -32
		srl  $t2, $t0, 28    # 0xf
		sra  $t3, $t0, 2     # -2
		li   $t4, 3
		sllv $t5, $t0, $t4   # -64
		srav $t6, $t0, $t4   # -1
	`+exit, 0)
	neg := func(v int32) uint32 { return uint32(v) }
	want := map[int]uint32{
		isa.RegT1: neg(-32), isa.RegT2: 0xf,
		isa.RegT3: neg(-2), isa.RegT5: neg(-64),
		isa.RegT6: 0xffffffff,
	}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("$%s = %#x, want %#x", isa.RegNames[r], c.Regs[r], v)
		}
	}
}

func TestMultDiv(t *testing.T) {
	c := run(t, `
	main:
		li    $t0, -6
		li    $t1, 4
		mult  $t0, $t1
		mflo  $t2            # -24
		mfhi  $t3            # -1 (sign bits)
		li    $t0, 100000
		li    $t1, 100000
		multu $t0, $t1
		mfhi  $t4            # high half of 10^10
		div   $t5, $t0, $t1  # 1
		li    $t1, 7
		rem   $t6, $t0, $t1  # 100000 % 7 = 5
	`+exit, 0)
	if int32(c.Regs[isa.RegT2]) != -24 {
		t.Errorf("mult lo = %d", int32(c.Regs[isa.RegT2]))
	}
	if c.Regs[isa.RegT3] != 0xffffffff {
		t.Errorf("mult hi = %#x", c.Regs[isa.RegT3])
	}
	if want := uint32((uint64(100000) * 100000) >> 32); c.Regs[isa.RegT4] != want {
		t.Errorf("multu hi = %#x, want %#x", c.Regs[isa.RegT4], want)
	}
	if c.Regs[isa.RegT5] != 1 {
		t.Errorf("div = %d", c.Regs[isa.RegT5])
	}
	if c.Regs[isa.RegT6] != 100000%7 {
		t.Errorf("rem = %d", c.Regs[isa.RegT6])
	}
}

func TestLoadsStores(t *testing.T) {
	c := run(t, `
	.data
	w:  .word 0x80000001
	b:  .byte 0xff
	h:  .half 0x8001
	.text
	main:
		lw  $t0, w
		lb  $t1, b        # -1
		lbu $t2, b        # 255
		lh  $t3, h        # sign-extended
		lhu $t4, h        # 0x8001
		li  $t5, 0x12345678
		sw  $t5, 0($sp)
		lw  $t6, 0($sp)
		sb  $t5, 4($sp)
		lbu $t7, 4($sp)   # 0x78
		sh  $t5, 8($sp)
		lhu $s0, 8($sp)   # 0x5678
	`+exit, 0)
	want := map[int]uint32{
		isa.RegT0: 0x80000001,
		isa.RegT1: 0xffffffff,
		isa.RegT2: 0xff,
		isa.RegT3: 0xffff8001,
		isa.RegT4: 0x8001,
		isa.RegT6: 0x12345678,
		isa.RegT7: 0x78,
		isa.RegS0: 0x5678,
	}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("$%s = %#x, want %#x", isa.RegNames[r], c.Regs[r], v)
		}
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 with a loop.
	c := run(t, `
	main:
		li $t0, 0    # i
		li $t1, 0    # sum
	loop:
		addiu $t0, $t0, 1
		addu  $t1, $t1, $t0
		blt   $t0, $t2, loop  # $t2 == 0? no...
		li    $t3, 10
		bne   $t0, $t3, cont
		b     done
	cont:
		b loop2
	loop2:
		addiu $t0, $t0, 1
		addu  $t1, $t1, $t0
		bne   $t0, $t3, loop2
	done:
	`+exit, 0)
	if c.Regs[isa.RegT1] != 55 {
		t.Errorf("sum = %d, want 55", c.Regs[isa.RegT1])
	}
}

func TestFunctionCall(t *testing.T) {
	c := run(t, `
	main:
		li  $a0, 6
		jal fact
		move $s0, $v0
	`+exit+`
	# iterative factorial
	fact:
		li   $v0, 1
	floop:
		blez $a0, fret
		mul  $v0, $v0, $a0
		addiu $a0, $a0, -1
		b    floop
	fret:
		jr   $ra
	`, 0)
	if c.Regs[isa.RegS0] != 720 {
		t.Errorf("fact(6) = %d, want 720", c.Regs[isa.RegS0])
	}
}

func TestRecursion(t *testing.T) {
	// Recursive fibonacci exercises the stack.
	c := run(t, `
	main:
		li  $a0, 10
		jal fib
		move $s0, $v0
	`+exit+`
	fib:
		li   $t0, 2
		slt  $t0, $a0, $t0
		beqz $t0, frec
		move $v0, $a0
		jr   $ra
	frec:
		addiu $sp, $sp, -12
		sw   $ra, 0($sp)
		sw   $a0, 4($sp)
		addiu $a0, $a0, -1
		jal  fib
		sw   $v0, 8($sp)
		lw   $a0, 4($sp)
		addiu $a0, $a0, -2
		jal  fib
		lw   $t1, 8($sp)
		addu $v0, $v0, $t1
		lw   $ra, 0($sp)
		addiu $sp, $sp, 12
		jr   $ra
	`, 0)
	if c.Regs[isa.RegS0] != 55 {
		t.Errorf("fib(10) = %d, want 55", c.Regs[isa.RegS0])
	}
}

func TestSyscallOutput(t *testing.T) {
	c := run(t, `
	.data
	msg: .asciiz "n="
	.text
	main:
		la $a0, msg
		li $v0, 4
		syscall
		li $a0, -42
		li $v0, 1
		syscall
		li $a0, '\n'
		li $v0, 11
		syscall
	`+exit, 0)
	if got := string(c.Stdout); got != "n=-42\n" {
		t.Errorf("stdout = %q", got)
	}
}

func TestSbrk(t *testing.T) {
	c := run(t, `
	.data
	x: .word 1
	.text
	main:
		li $a0, 64
		li $v0, 9
		syscall
		move $s0, $v0   # first break
		li $a0, 64
		li $v0, 9
		syscall
		move $s1, $v0   # second break
		sw $s0, 0($s0)  # heap is writable
		lw $s2, 0($s0)
	`+exit, 0)
	if c.Regs[isa.RegS0] == 0 || c.Regs[isa.RegS1] != c.Regs[isa.RegS0]+64 {
		t.Errorf("sbrk breaks: %#x then %#x", c.Regs[isa.RegS0], c.Regs[isa.RegS1])
	}
	if c.Regs[isa.RegS2] != c.Regs[isa.RegS0] {
		t.Error("heap write/read failed")
	}
}

func TestTraceFilter(t *testing.T) {
	// The paper's filter: register-producing instructions are traced
	// (incl. loads); branches, jumps, stores and $zero writes are not.
	p, err := asm.Assemble(`
	main:
		addiu $t0, $zero, 1   # traced
		sw    $t0, 0($sp)     # not traced
		lw    $t1, 0($sp)     # traced
		beq   $t0, $t1, skip  # not traced
		nop
	skip:
		jal   f               # not traced (jump writes $ra silently)
		addu  $zero, $t0, $t1 # not traced ($zero write)
		mult  $t0, $t1        # traced once (LO)
		mflo  $t2             # traced
	` + exit + `
	f:	jr $ra                # not traced
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, true)
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	events := c.Events()
	// traced: addiu(1), lw(1), mult(1), mflo(1), plus the two li of
	// the exit sequence (li $v0,10 → addiu, traced) — li $v0 appears
	// once. Count: addiu, lw, mult, mflo, li = 5.
	if len(events) != 5 {
		for _, e := range events {
			t.Logf("event pc=%#x v=%d", e.PC, e.Value)
		}
		t.Fatalf("got %d events, want 5", len(events))
	}
	if events[0].Value != 1 || events[1].Value != 1 {
		t.Error("wrong traced values")
	}
	if c.Emitted != uint64(len(events)) {
		t.Errorf("Emitted = %d, events = %d", c.Emitted, len(events))
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	c := run(t, "main:\naddiu $zero, $zero, 99\nmove $t0, $zero"+exit, 0)
	if c.Regs[isa.RegZero] != 0 || c.Regs[isa.RegT0] != 0 {
		t.Error("$zero was written")
	}
}

func TestBudgetExpires(t *testing.T) {
	p, err := asm.Assemble("main: b main\n")
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, false)
	if err := c.Run(100); !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
	if c.Executed != 100 {
		t.Errorf("executed %d, want 100", c.Executed)
	}
}

func TestDivZeroFaults(t *testing.T) {
	p, err := asm.Assemble("main:\nli $t0, 3\ndiv2 $t0, $zero\n" + exit)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, false)
	if err := c.Run(0); !errors.Is(err, ErrDivZero) {
		t.Errorf("err = %v, want ErrDivZero", err)
	}
}

func TestMisalignedFaults(t *testing.T) {
	p, err := asm.Assemble("main:\nli $t0, 2\nlw $t1, 0($t0)\n" + exit)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, false)
	if err := c.Run(0); !errors.Is(err, ErrMisalign) {
		t.Errorf("err = %v, want ErrMisalign", err)
	}
}

func TestIllegalInstructionFaults(t *testing.T) {
	p, err := asm.Assemble("main: nop\n")
	if err != nil {
		t.Fatal(err)
	}
	p.Text[0] = 0xffffffff // opcode 0x3f
	c := New(p, false)
	if err := c.Run(0); !errors.Is(err, ErrBadOp) {
		t.Errorf("err = %v, want ErrBadOp", err)
	}
}

func TestTraceHelper(t *testing.T) {
	p, err := asm.Assemble(`
	main:
		li $t0, 0
	loop:
		addiu $t0, $t0, 3
		li $t1, 30
		bne $t0, $t1, loop
	` + exit)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Trace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The addiu produces the stride sequence 3, 6, ..., 30.
	var strideVals []uint32
	for _, e := range tr {
		if e.PC == isa.TextBase+4 {
			strideVals = append(strideVals, e.Value)
		}
	}
	if len(strideVals) != 10 || strideVals[0] != 3 || strideVals[9] != 30 {
		t.Errorf("stride values: %v", strideVals)
	}
	// Budget truncation is not an error.
	if _, err := Trace(p, 5); err != nil {
		t.Errorf("budget-truncated trace errored: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
	main:
		li $s0, 12345
		li $t0, 0
	loop:
		# xorshift-ish scrambling
		sll $t1, $s0, 13
		xor $s0, $s0, $t1
		srl $t1, $s0, 17
		xor $s0, $s0, $t1
		sll $t1, $s0, 5
		xor $s0, $s0, $t1
		addiu $t0, $t0, 1
		li $t2, 50
		bne $t0, $t2, loop
	` + exit
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := Trace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Trace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != len(t2) {
		t.Fatal("lengths differ across runs")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	if len(t1) == 0 || !strings.Contains("", "") {
		_ = t1
	}
}
