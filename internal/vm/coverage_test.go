package vm

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

func TestJalrAndHalted(t *testing.T) {
	p, err := asm.Assemble(`
	main:
		la   $t0, target
		jalr $t0
		li   $v0, 10
		syscall
	target:
		li   $s0, 99
		jr   $ra
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, false)
	if c.Halted() {
		t.Error("halted before running")
	}
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Error("not halted after exit")
	}
	if c.Regs[isa.RegS0] != 99 {
		t.Error("jalr did not reach target")
	}
}

func TestMthiMtlo(t *testing.T) {
	c := run(t, `
	main:
		li   $t0, 77
		mthi $t0
		li   $t1, 33
		mtlo $t1
		mfhi $s0
		mflo $s1
	`+exit, 0)
	if c.Regs[isa.RegS0] != 77 || c.Regs[isa.RegS1] != 33 {
		t.Errorf("hi/lo round trip: %d %d", c.Regs[isa.RegS0], c.Regs[isa.RegS1])
	}
}

func TestRegImmBranches(t *testing.T) {
	c := run(t, `
	main:
		li   $t0, -5
		li   $s0, 0
		bltz $t0, neg
		li   $s0, 1        # skipped
	neg:
		bgez $t0, pos      # not taken
		li   $s1, 2
	pos:
		li   $t1, 3
		bgez $t1, fin      # taken
		li   $s1, 9        # skipped
	fin:
	`+exit, 0)
	if c.Regs[isa.RegS0] != 0 {
		t.Error("bltz not taken on negative")
	}
	if c.Regs[isa.RegS1] != 2 {
		t.Errorf("$s1 = %d, want 2", c.Regs[isa.RegS1])
	}
}

func TestBlezBgtzBoundaries(t *testing.T) {
	c := run(t, `
	main:
		li   $t0, 0
		li   $s0, 0
		blez $t0, a        # taken (zero)
		li   $s0, 1
	a:
		bgtz $t0, b        # not taken (zero)
		li   $s1, 5
	b:
	`+exit, 0)
	if c.Regs[isa.RegS0] != 0 || c.Regs[isa.RegS1] != 5 {
		t.Errorf("s0=%d s1=%d", c.Regs[isa.RegS0], c.Regs[isa.RegS1])
	}
}

func TestAddiSlti(t *testing.T) {
	c := run(t, `
	main:
		addi  $t0, $zero, -9
		slti  $t1, $t0, 0     # 1
		sltiu $t2, $t0, 0     # 0 (huge unsigned)
		xori  $t3, $t1, 1     # 0
	`+exit, 0)
	if int32(c.Regs[isa.RegT0]) != -9 || c.Regs[isa.RegT1] != 1 ||
		c.Regs[isa.RegT2] != 0 || c.Regs[isa.RegT3] != 0 {
		t.Errorf("regs: %d %d %d %d", int32(c.Regs[isa.RegT0]),
			c.Regs[isa.RegT1], c.Regs[isa.RegT2], c.Regs[isa.RegT3])
	}
}

func TestBadRegImmFaults(t *testing.T) {
	p, err := asm.Assemble("main: nop\n")
	if err != nil {
		t.Fatal(err)
	}
	p.Text[0] = isa.EncodeI(isa.OpRegImm, 9 /* invalid rt */, 0, 0)
	c := New(p, false)
	if err := c.Run(0); !errors.Is(err, ErrBadOp) {
		t.Errorf("err = %v", err)
	}
}

func TestBadSpecialFaults(t *testing.T) {
	p, err := asm.Assemble("main: nop\n")
	if err != nil {
		t.Fatal(err)
	}
	p.Text[0] = isa.EncodeR(0x3f /* invalid funct */, 1, 2, 3, 0)
	c := New(p, false)
	if err := c.Run(0); !errors.Is(err, ErrBadOp) {
		t.Errorf("err = %v", err)
	}
}

func TestUnknownSyscallFaults(t *testing.T) {
	p, err := asm.Assemble("main:\nli $v0, 999\nsyscall\n")
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, false)
	err = c.Run(0)
	if err == nil || !strings.Contains(err.Error(), "unknown syscall") {
		t.Errorf("err = %v", err)
	}
}

func TestDivuAndMisalignedStore(t *testing.T) {
	c := run(t, `
	main:
		li   $t0, 0xffffffff
		li   $t1, 16
		divu $t0, $t1
		mflo $s0            # 0x0fffffff
		mfhi $s1            # 15
	`+exit, 0)
	if c.Regs[isa.RegS0] != 0x0fffffff || c.Regs[isa.RegS1] != 15 {
		t.Errorf("divu: %#x rem %d", c.Regs[isa.RegS0], c.Regs[isa.RegS1])
	}
	p, err := asm.Assemble("main:\nli $t0, 2\nsw $t1, 0($t0)\n" + exit)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(p, false)
	if err := cpu.Run(0); !errors.Is(err, ErrMisalign) {
		t.Errorf("sw misalign err = %v", err)
	}
}

func TestDivuByZeroFaults(t *testing.T) {
	p, err := asm.Assemble("main:\nli $t0, 3\ndivu $t0, $zero\n" + exit)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, false)
	if err := c.Run(0); !errors.Is(err, ErrDivZero) {
		t.Errorf("err = %v", err)
	}
}

func TestLoadStringBounded(t *testing.T) {
	m := NewMemory()
	m.WriteBytes(0x1000, []byte("hello"))
	if got := m.LoadString(0x1000, 100); got != "hello" {
		t.Errorf("LoadString = %q", got)
	}
	if got := m.LoadString(0x1000, 3); got != "hel" {
		t.Errorf("bounded LoadString = %q", got)
	}
	if got := m.LoadString(0x999000, 10); got != "" {
		t.Errorf("untouched memory string = %q", got)
	}
}

func TestCrossPageStoreWord(t *testing.T) {
	m := NewMemory()
	addr := uint32(2*pageSize - 2)
	m.StoreWord(addr, 0xaabbccdd)
	if got := m.LoadWord(addr); got != 0xaabbccdd {
		t.Errorf("cross-page store/load = %#x", got)
	}
	// The bytes really straddle the boundary.
	if m.LoadByte(addr+1) != 0xcc || m.LoadByte(addr+2) != 0xbb {
		t.Error("byte layout across pages wrong")
	}
}

func TestProfileCountsExecutions(t *testing.T) {
	p, err := asm.Assemble(`
	main:
		li $t0, 0
	loop:
		addiu $t0, $t0, 1
		li $t1, 10
		bne $t0, $t1, loop
	` + exit)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p, false)
	c.EnableProfile(len(p.Text))
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	prof := c.Profile()
	// The loop body (indices 1..3) executes 10 times, the prologue once.
	if prof[0] != 1 {
		t.Errorf("prologue count = %d, want 1", prof[0])
	}
	for i := 1; i <= 3; i++ {
		if prof[i] != 10 {
			t.Errorf("loop word %d count = %d, want 10", i, prof[i])
		}
	}
	var total uint64
	for _, n := range prof {
		total += n
	}
	if total != c.Executed {
		t.Errorf("profile total %d != executed %d", total, c.Executed)
	}
}

func TestProfileDisabledByDefault(t *testing.T) {
	c := run(t, "main: nop"+exit, 0)
	if c.Profile() != nil {
		t.Error("profile allocated without EnableProfile")
	}
}
