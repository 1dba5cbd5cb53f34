package vm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/trace"
)

// fuzzBudget bounds each executor's run of a fuzzed program.
const fuzzBudget = 4096

// fuzzProgram turns fuzz bytes into a program: b[0] is the number of
// raw little-endian text words that follow (zero-padded if b runs
// out), and up to a page of the rest is the data segment. The entry
// is the first text word.
func fuzzProgram(b []byte) *asm.Program {
	p := &asm.Program{Entry: isa.TextBase}
	if len(b) == 0 {
		return p
	}
	words := int(b[0])
	b = b[1:]
	for i := 0; i < words; i++ {
		var w [4]byte
		if len(b) > 0 {
			b = b[copy(w[:], b):]
		}
		p.Text = append(p.Text, binary.LittleEndian.Uint32(w[:]))
	}
	p.Data = b[:min(len(b), pageSize)]
	return p
}

// fuzzBytes is fuzzProgram's inverse.
func fuzzBytes(text []uint32, data []byte) []byte {
	b := []byte{byte(len(text))}
	for _, w := range text {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return append(b, data...)
}

// memDigest hashes every page of m that holds a non-zero byte, with
// its address, so that two memories with equal contents digest alike
// whatever pages they happen to have allocated.
func memDigest(m *Memory) string {
	h := sha256.New()
	var zero [pageSize]byte
	for ti, t := range m.dir {
		if t == nil {
			continue
		}
		for pi, p := range t {
			if p == nil || *p == zero {
				continue
			}
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(ti<<tableBits|pi)<<pageBits))
			h.Write(p[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameEvents compares traces, nil and empty alike.
func sameEvents(a, b trace.Trace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkMatchesRef fails unless the compiled run (c, err) ended
// exactly as the reference run (r, rerr): registers, HI/LO, PC,
// counters, events, output, memory and error.
func checkMatchesRef(t *testing.T, c *CPU, err error, r *refCPU, rerr error) {
	t.Helper()
	if c.Regs != r.Regs || c.HI != r.HI || c.LO != r.LO || c.PC != r.PC {
		t.Errorf("state: compiled regs %x hi %#x lo %#x pc %#x\nreference regs %x hi %#x lo %#x pc %#x",
			c.Regs, c.HI, c.LO, c.PC, r.Regs, r.HI, r.LO, r.PC)
	}
	if c.Executed != r.Executed || c.Emitted != r.Emitted || c.Halted() != r.halted {
		t.Errorf("counters: compiled executed %d emitted %d halted %v, reference %d %d %v",
			c.Executed, c.Emitted, c.Halted(), r.Executed, r.Emitted, r.halted)
	}
	if string(c.Stdout) != string(r.Stdout) {
		t.Errorf("stdout: compiled %q, reference %q", c.Stdout, r.Stdout)
	}
	if ev := c.Events(); !sameEvents(ev, r.Events) {
		t.Errorf("events: compiled %d %v, reference %d %v", len(ev), ev, len(r.Events), r.Events)
	}
	if a, b := memDigest(c.Mem), memDigest(r.Mem); a != b {
		t.Errorf("memory digest: compiled %s, reference %s", a, b)
	}
	if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
		t.Errorf("error: compiled %v, reference %v", err, rerr)
	}
	for _, e := range []error{ErrBudget, ErrBadOp, ErrDivZero, ErrMisalign} {
		if errors.Is(err, e) != errors.Is(rerr, e) {
			t.Errorf("errors.Is(%v): compiled %v, reference %v", e, errors.Is(err, e), errors.Is(rerr, e))
		}
	}
}

// seedPrologue loads registers with values that give every operation
// something to do: signs, the most negative word, zero divisors, an
// aligned and an unaligned data address and a text address.
func seedPrologue() []uint32 {
	li := func(r int, v uint32) []uint32 {
		return []uint32{
			isa.EncodeI(isa.OpLUI, r, 0, v>>16),
			isa.EncodeI(isa.OpORI, r, r, v&0xffff),
		}
	}
	var w []uint32
	for _, rv := range []struct {
		r int
		v uint32
	}{
		{isa.RegT0, 0xfffffff9}, // -7
		{isa.RegT1, 3},
		{isa.RegT2, 0x80000000},
		{isa.RegT3, 0xffffffff},
		{isa.RegT4, isa.DataBase + 2},
		{isa.RegT5, isa.TextBase},
		{isa.RegA0, 'x'},
		{isa.RegV0, isa.SysPutChar},
	} {
		w = append(w, li(rv.r, rv.v)...)
	}
	return w
}

// seedEpilogue reads HI and LO back and exits.
var seedEpilogue = []uint32{
	isa.EncodeR(isa.FnMFHI, isa.RegS6, 0, 0, 0),
	isa.EncodeR(isa.FnMFLO, isa.RegS7, 0, 0, 0),
	isa.EncodeI(isa.OpADDIU, isa.RegV0, 0, isa.SysExit),
	isa.EncodeR(isa.FnSYSCALL, 0, 0, 0, 0),
}

// seedData is the data segment of the encoding seeds.
var seedData = []byte{0x81, 0x7f, 0x01, 0x80, 0xff, 0xfe, 0x10, 0x20, 'h', 'i', 0, 0}

// encodingSeeds returns one seed per opcode, per OpSpecial funct and
// per regimm rt, legal or not, each with its operands on the
// prologue's registers, and again writing $zero where the
// instruction has a destination.
func encodingSeeds() [][]byte {
	var insts []uint32
	for _, rd := range []int{isa.RegS0, isa.RegZero} {
		for fn := uint32(0); fn < 64; fn++ {
			insts = append(insts,
				isa.EncodeR(fn, rd, isa.RegT0, isa.RegT1, 3),
				isa.EncodeR(fn, rd, isa.RegT2, isa.RegT3, 31))
		}
		for op := uint32(2); op < 64; op++ {
			insts = append(insts,
				isa.EncodeI(op, rd, isa.RegGP, 4),
				isa.EncodeI(op, rd, isa.RegT4, 0xfffe))
		}
	}
	for rt := 0; rt < 32; rt++ {
		insts = append(insts,
			isa.EncodeI(isa.OpRegImm, rt, isa.RegT0, 2),
			isa.EncodeI(isa.OpRegImm, rt, isa.RegT1, 2))
	}
	// jalr reading and linking one register; $t5 holds TextBase.
	insts = append(insts, isa.EncodeR(isa.FnJALR, isa.RegT5, isa.RegT5, 0, 0))
	// Stores into the text: the word after the store, and its bytes.
	for _, op := range []uint32{isa.OpSW, isa.OpSH, isa.OpSB} {
		insts = append(insts, isa.EncodeI(op, isa.RegT0, isa.RegT5, 4*uint32(len(seedPrologue())+1)))
	}
	var seeds [][]byte
	for _, in := range insts {
		text := append(seedPrologue(), in)
		seeds = append(seeds, fuzzBytes(append(text, seedEpilogue...), seedData))
	}
	return seeds
}

// assembledSeeds are whole programs: loops, calls, syscalls,
// self-modifying code, an unaligned PC and a jump into data.
var assembledSeeds = []string{
	`main:	li $t0, 0
	loop:	addiu $t0, $t0, 1
		mul $t1, $t0, $t0
		sw $t1, 0($gp)
		lw $t2, 0($gp)
		li $t3, 20
		bne $t0, $t3, loop
		li $v0, 10
		syscall`,
	`main:	la $t0, patch
		li $t4, 0
	patch:	addiu $t1, $zero, 1
		bnez $t4, done
		li $t4, 1
		li $t2, 0x2409
		sh $t2, 2($t0)
		b patch
	done:	li $v0, 10
		syscall`,
	`.data
	msg: .asciiz "ok"
	.text
	main:	la $a0, msg
		li $v0, 4
		syscall
		li $a0, -42
		li $v0, 1
		syscall
		li $a0, 64
		li $v0, 9
		syscall
		sw $v0, 0($v0)
		li $v0, 10
		syscall`,
	`.data
	code: .word 0x24090007, 0x03e00008
	.text
	main:	la $t0, code
		jalr $t0
		la $t1, odd
		addiu $t1, $t1, 2
		jr $t1
	odd:	beq $s1, $s4, main
		ori $t0, $t0, 0x2409`,
}

// FuzzCompiledMatchesReference runs one program, built from the fuzz
// bytes, on the compiled interpreter and on the reference one, and
// requires identical ends.
func FuzzCompiledMatchesReference(f *testing.F) {
	for _, s := range encodingSeeds() {
		f.Add(s)
	}
	for _, src := range assembledSeeds {
		p, err := asm.Assemble(src)
		if err != nil {
			f.Fatal(err)
		}
		if p.Entry != isa.TextBase {
			f.Fatalf("seed entry %#x, want the first text word", p.Entry)
		}
		f.Add(fuzzBytes(p.Text, p.Data))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p := fuzzProgram(b)
		c, r := New(p, true), newRef(p)
		err, rerr := c.Run(fuzzBudget), r.Run(fuzzBudget)
		checkMatchesRef(t, c, err, r, rerr)
	})
}
