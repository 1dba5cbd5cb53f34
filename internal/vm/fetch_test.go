package vm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/trace"
)

// runState is everything a run can be observed by.
type runState struct {
	Regs              [isa.NumRegs]uint32
	HI, LO, PC        uint32
	Executed, Emitted uint64
	Stdout            string
	Events            trace.Trace
	Err               string
}

// runBoth runs p on a CPU as New builds it and on one stripped of its
// compiled text, which compiles every fetch from memory, and fails
// unless both end in the same state. It returns the first CPU.
func runBoth(t *testing.T, p *asm.Program, budget uint64) *CPU {
	t.Helper()
	run := func(decoded bool) (*CPU, runState) {
		var s runState
		c := New(p, true)
		if !decoded {
			c.ops = nil
		}
		if err := c.Run(budget); err != nil {
			s.Err = err.Error()
		}
		s.Events = c.Events()
		s.Regs, s.HI, s.LO, s.PC = c.Regs, c.HI, c.LO, c.PC
		s.Executed, s.Emitted, s.Stdout = c.Executed, c.Emitted, string(c.Stdout)
		return c, s
	}
	c, got := run(true)
	_, want := run(false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded-text run differs from memory-fetch run:\n got %+v\nwant %+v", got, want)
	}
	if got.Err != "" {
		t.Fatalf("run: %s", got.Err)
	}
	return c
}

func assemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestStoreIntoTextExecutes(t *testing.T) {
	// patch runs once as assembled, is overwritten by the store under
	// test, and runs again.
	const src = `
	main:
		la    $t0, patch
		li    $t4, 0
	patch:
		addiu $t1, $zero, 1
		bnez  $t4, done
		li    $t4, 1
		li    $t2, %d
		%s    $t2, %d($t0)
		b     patch
	done:
	` + exit
	for _, tc := range []struct {
		store string
		off   int
		val   uint32
		want  uint32
	}{
		{"sw", 0, isa.EncodeI(isa.OpADDIU, isa.RegT1, 0, 2), 2},
		{"sh", 0, 0x0003, 3},
		{"sb", 0, 0x04, 4},
		// The third byte holds rt: retarget the write from $t1 to $t3.
		{"sb", 2, isa.RegT3, 1},
	} {
		t.Run(fmt.Sprintf("%s+%d", tc.store, tc.off), func(t *testing.T) {
			c := runBoth(t, assemble(t, fmt.Sprintf(src, int32(tc.val), tc.store, tc.off)), 0)
			r := isa.RegT1
			if tc.off == 2 {
				r = isa.RegT3
			}
			if c.Regs[r] != tc.want {
				t.Errorf("$%s = %d, want %d", isa.RegNames[r], c.Regs[r], tc.want)
			}
		})
	}
}

func TestCrossPageStoreIntoText(t *testing.T) {
	// An sh at isa.TextBase-1 writes the last byte of the page below
	// the text and the first byte of the first instruction, the low
	// byte of its immediate.
	p := assemble(t, `
	main:
		addiu $t1, $zero, 1
		bnez  $t4, done
		li    $t4, 1
		li    $t0, 0x3fffff
		li    $t2, 0x5500
		sh    $t2, 0($t0)
		j     main
	done:
	`+exit)
	if p.Entry != isa.TextBase {
		t.Fatalf("main at %#x, want the first text word", p.Entry)
	}
	c := runBoth(t, p, 0)
	if c.Regs[isa.RegT1] != 0x55 {
		t.Errorf("$t1 = %#x, want 0x55", c.Regs[isa.RegT1])
	}
	if b := c.Mem.LoadByte(isa.TextBase - 1); b != 0 {
		t.Errorf("byte below the text = %#x, want 0", b)
	}
}

func TestJumpIntoDataPage(t *testing.T) {
	// code is a leaf routine in the data segment. It runs, is
	// rewritten in place, and runs again.
	p := assemble(t, fmt.Sprintf(`
	.data
	code: .word %d, %d
	.text
	main:
		la   $t0, code
		jalr $t0
		move $t3, $t1
		li   $t2, %d
		sw   $t2, 0($t0)
		jalr $t0
	`+exit,
		int32(isa.EncodeI(isa.OpADDIU, isa.RegT1, 0, 7)),
		int32(isa.EncodeR(isa.FnJR, 0, isa.RegRA, 0, 0)),
		int32(isa.EncodeI(isa.OpADDIU, isa.RegT1, 0, 9))))
	c := runBoth(t, p, 0)
	if c.Regs[isa.RegT3] != 7 || c.Regs[isa.RegT1] != 9 {
		t.Errorf("$t3, $t1 = %d, %d, want 7, 9", c.Regs[isa.RegT3], c.Regs[isa.RegT1])
	}
}

func TestHalfwordCrossesPage(t *testing.T) {
	m := NewMemory()
	addr := uint32(3*pageSize - 1)
	if got := m.LoadHalf(addr); got != 0 {
		t.Errorf("untouched cross-page half = %#x", got)
	}
	m.StoreHalf(addr, 0xabcd)
	if got := m.LoadHalf(addr); got != 0xabcd {
		t.Errorf("cross-page half = %#x, want 0xabcd", got)
	}
	if m.LoadByte(addr) != 0xcd || m.LoadByte(addr+1) != 0xab {
		t.Error("byte layout across pages wrong")
	}

	// The same through the interpreter, on the data segment's first
	// page boundary.
	c := runBoth(t, assemble(t, `
	main:
		li  $t0, 0x10000fff
		li  $t1, 0x8001
		sh  $t1, 0($t0)
		lh  $t2, 0($t0)
		lhu $t3, 0($t0)
		lbu $t4, 1($t0)
	`+exit), 0)
	want := map[int]uint32{isa.RegT2: 0xffff8001, isa.RegT3: 0x8001, isa.RegT4: 0x80}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("$%s = %#x, want %#x", isa.RegNames[r], c.Regs[r], v)
		}
	}
}

func TestUnalignedPCDecodesMemory(t *testing.T) {
	// Two bytes into a, the fetched word is the high half of a
	// (beq $s1, $s4: 0x1234) under the low half of b (0x2409): the
	// word 0x24091234, addiu $t1, $zero, 0x1234.
	p := assemble(t, `
	main:
	`+exit+`
	a:	beq $s1, $s4, main
	b:	ori $t0, $t0, 0x2409
	`)
	pc := p.Symbols["a"] + 2
	for _, decoded := range []bool{true, false} {
		c := New(p, true)
		if !decoded {
			c.ops = nil
		}
		c.PC = pc
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		events := c.Events()
		if c.Regs[isa.RegT1] != 0x1234 || c.PC != pc+4 || c.Executed != 1 {
			t.Errorf("decoded=%v: $t1 %#x, pc %#x, executed %d; want 0x1234, %#x, 1",
				decoded, c.Regs[isa.RegT1], c.PC, c.Executed, pc+4)
		}
		if want := (trace.Trace{{PC: pc, Value: 0x1234}}); !reflect.DeepEqual(events, want) {
			t.Errorf("decoded=%v: events %v, want %v", decoded, events, want)
		}
		// The next fetch is unaligned too: the high half of b (0x3508)
		// under the zero bytes past the text, 0x00003508, jr $zero.
		if err := c.Step(); err != nil || c.PC != 0 {
			t.Errorf("decoded=%v: second step pc %#x, err %v; want 0, nil", decoded, c.PC, err)
		}
	}
}

func TestMemoryMatchesByteMap(t *testing.T) {
	// Mixed-width accesses over four pages, many crossing a page
	// boundary, against a plain byte map: a page must never
	// serve an access to another page.
	m := NewMemory()
	ref := map[uint32]byte{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		addr := uint32(rng.Intn(3*pageSize)) + 5*pageSize - 8
		v := rng.Uint32()
		switch rng.Intn(6) {
		case 0:
			m.StoreByte(addr, byte(v))
			ref[addr] = byte(v)
		case 1:
			m.StoreHalf(addr, uint16(v))
			ref[addr], ref[addr+1] = byte(v), byte(v>>8)
		case 2:
			m.StoreWord(addr, v)
			for k := uint32(0); k < 4; k++ {
				ref[addr+k] = byte(v >> (8 * k))
			}
		case 3:
			if got := m.LoadByte(addr); got != ref[addr] {
				t.Fatalf("op %d: byte at %#x = %#x, want %#x", i, addr, got, ref[addr])
			}
		case 4:
			want := uint16(ref[addr]) | uint16(ref[addr+1])<<8
			if got := m.LoadHalf(addr); got != want {
				t.Fatalf("op %d: half at %#x = %#x, want %#x", i, addr, got, want)
			}
		case 5:
			var want uint32
			for k := uint32(0); k < 4; k++ {
				want |= uint32(ref[addr+k]) << (8 * k)
			}
			if got := m.LoadWord(addr); got != want {
				t.Fatalf("op %d: word at %#x = %#x, want %#x", i, addr, got, want)
			}
		}
	}
}

func TestConcurrentSelfModifyingCPUs(t *testing.T) {
	// Each CPU patches its own copy of the text. Run under -race (make
	// race), a decoded text shared between CPUs fails here.
	p := assemble(t, fmt.Sprintf(`
	main:
		la    $t0, patch
		li    $t4, 0
	patch:
		addiu $t1, $zero, 1
		addu  $t5, $t5, $t1
		bnez  $t4, done
		li    $t4, 1
		li    $t2, %d
		sw    $t2, 0($t0)
		b     patch
	done:
	`+exit, int32(isa.EncodeI(isa.OpADDIU, isa.RegT1, 0, 2))))
	const workers = 4
	sums := make([]uint32, workers)
	var wg sync.WaitGroup
	for w := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := New(p, false)
			if err := c.Run(0); err != nil {
				t.Error(err)
				return
			}
			sums[w] = c.Regs[isa.RegT5]
		}()
	}
	wg.Wait()
	for w, s := range sums {
		if s != 3 {
			t.Errorf("CPU %d: $t5 = %d, want 1+2", w, s)
		}
	}
}
