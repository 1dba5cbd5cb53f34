// Package vm implements a functional (sim-safe-style) simulator for
// the MR32 ISA. It executes assembled programs and emits a value trace
// with exactly the paper's filter: every instruction that writes an
// integer general-purpose register produces one trace event, including
// loads; branches and jumps (including jal/jalr, whose $ra write is a
// jump side effect) are excluded; multiply/divide produce two result
// halves but are traced once (the LO half, read first in practice).
// Writes to $zero are discarded and not traced.
package vm

import (
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Emit receives one trace event per predicted instruction.
type Emit func(pc, value uint32)

// CPU is an MR32 functional simulator instance.
type CPU struct {
	Regs [isa.NumRegs]uint32
	HI   uint32
	LO   uint32
	PC   uint32
	// Mem holds the whole address space, text included. Step
	// re-decodes the text words its own stores change; a write made
	// to Mem from outside Step after New is not seen by instructions
	// fetched from the text segment.
	Mem *Memory

	// Executed counts all executed instructions; Emitted counts those
	// that produced a trace event.
	Executed uint64
	Emitted  uint64

	// Stdout accumulates syscall output (print/putchar).
	Stdout []byte

	halted bool
	brk    uint32   // heap break for sbrk
	emit   Emit     // never nil
	prof   []uint64 // per-text-word execution counts, when enabled
	// text is the text segment decoded once: text[i] is the
	// instruction at isa.TextBase + 4*i. Each CPU owns its copy, so
	// CPUs running one program concurrently never share it.
	text []isa.Inst
}

// Common run errors.
var (
	ErrBudget   = errors.New("vm: instruction budget exhausted")
	ErrBadOp    = errors.New("vm: illegal instruction")
	ErrNoEntry  = errors.New("vm: pc outside text segment")
	ErrDivZero  = errors.New("vm: integer division by zero")
	ErrMisalign = errors.New("vm: misaligned memory access")
)

// New creates a CPU loaded with p: text at isa.TextBase, data at
// isa.DataBase, $sp at isa.StackBase, $gp at the data base, PC at the
// program entry. emit may be nil to discard trace events.
func New(p *asm.Program, emit Emit) *CPU {
	if emit == nil {
		// A no-op keeps setReg free of a nil check and small enough
		// to inline into Step.
		emit = func(uint32, uint32) {}
	}
	c := &CPU{Mem: NewMemory(), PC: p.Entry, emit: emit, text: make([]isa.Inst, len(p.Text))}
	for i, w := range p.Text {
		c.Mem.StoreWord(isa.TextBase+uint32(4*i), w)
		c.text[i] = isa.Decode(w)
	}
	c.Mem.WriteBytes(isa.DataBase, p.Data)
	c.Regs[isa.RegSP] = isa.StackBase
	c.Regs[isa.RegGP] = isa.DataBase
	c.brk = isa.DataBase + uint32(len(p.Data)+7)&^uint32(7)
	return c
}

// Halted reports whether the program has exited.
func (c *CPU) Halted() bool { return c.halted }

// ReadDataflowReg reads a register in the extended numbering used by
// dependence analyses (internal/isa.DecodeDeps): 0..31 are the
// general registers, isa.RegHI and isa.RegLO the multiply/divide unit.
func (c *CPU) ReadDataflowReg(r int) uint32 {
	switch r {
	case isa.RegHI:
		return c.HI
	case isa.RegLO:
		return c.LO
	default:
		return c.Regs[r]
	}
}

// setReg writes a general register, discarding writes to $zero, and
// emits the trace event for value-producing instructions.
func (c *CPU) setReg(r int, v uint32, tracePC uint32) {
	if r == 0 {
		return
	}
	c.Regs[r] = v
	c.emit(tracePC, v)
	c.Emitted++
}

// setRegSilent writes a register without tracing (jump linkage,
// syscall results).
func (c *CPU) setRegSilent(r int, v uint32) {
	if r != 0 {
		c.Regs[r] = v
	}
}

// Run executes until the program halts or budget instructions have
// executed. A budget of 0 means unlimited. It returns ErrBudget if the
// budget expired first, nil on a clean exit, or an execution error.
func (c *CPU) Run(budget uint64) error {
	for !c.halted {
		if budget > 0 && c.Executed >= budget {
			return ErrBudget
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// EnableProfile allocates per-instruction execution counters covering
// textWords words from isa.TextBase. Instructions executed outside
// that range are not counted.
func (c *CPU) EnableProfile(textWords int) {
	c.prof = make([]uint64, textWords)
}

// Profile returns the per-text-word execution counts (nil unless
// EnableProfile was called). Index i counts the instruction at
// isa.TextBase + 4*i.
func (c *CPU) Profile() []uint64 { return c.prof }

// Step executes one instruction. An aligned PC inside the text
// segment fetches from the decoded text; any other PC decodes the
// word memory holds there.
func (c *CPU) Step() error {
	pc := c.PC
	var in *isa.Inst
	if i := (pc - isa.TextBase) >> 2; pc&3 == 0 && i < uint32(len(c.text)) {
		in = &c.text[i]
	} else {
		dec := isa.Decode(c.Mem.LoadWord(pc))
		in = &dec
	}
	c.Executed++
	if c.prof != nil {
		if i := (pc - isa.TextBase) / 4; i < uint32(len(c.prof)) {
			c.prof[i]++
		}
	}
	next := pc + 4

	switch in.Op {
	case isa.OpSpecial:
		if err := c.special(pc, in, &next); err != nil {
			return err
		}

	case isa.OpRegImm:
		rs := c.Regs[in.Rs]
		taken := false
		switch in.Rt {
		case isa.RtBLTZ:
			taken = int32(rs) < 0
		case isa.RtBGEZ:
			taken = int32(rs) >= 0
		default:
			return fmt.Errorf("%w: regimm rt=%d at %#x", ErrBadOp, in.Rt, pc)
		}
		if taken {
			next = pc + 4 + in.SImm()<<2
		}

	case isa.OpJ:
		next = pc&0xf0000000 | in.Target<<2
	case isa.OpJAL:
		c.setRegSilent(isa.RegRA, pc+4)
		next = pc&0xf0000000 | in.Target<<2

	case isa.OpBEQ:
		if c.Regs[in.Rs] == c.Regs[in.Rt] {
			next = pc + 4 + in.SImm()<<2
		}
	case isa.OpBNE:
		if c.Regs[in.Rs] != c.Regs[in.Rt] {
			next = pc + 4 + in.SImm()<<2
		}
	case isa.OpBLEZ:
		if int32(c.Regs[in.Rs]) <= 0 {
			next = pc + 4 + in.SImm()<<2
		}
	case isa.OpBGTZ:
		if int32(c.Regs[in.Rs]) > 0 {
			next = pc + 4 + in.SImm()<<2
		}

	case isa.OpADDI, isa.OpADDIU:
		c.setReg(in.Rt, c.Regs[in.Rs]+in.SImm(), pc)
	case isa.OpSLTI:
		c.setReg(in.Rt, b2u(int32(c.Regs[in.Rs]) < int32(in.SImm())), pc)
	case isa.OpSLTIU:
		c.setReg(in.Rt, b2u(c.Regs[in.Rs] < in.SImm()), pc)
	case isa.OpANDI:
		c.setReg(in.Rt, c.Regs[in.Rs]&in.Imm, pc)
	case isa.OpORI:
		c.setReg(in.Rt, c.Regs[in.Rs]|in.Imm, pc)
	case isa.OpXORI:
		c.setReg(in.Rt, c.Regs[in.Rs]^in.Imm, pc)
	case isa.OpLUI:
		c.setReg(in.Rt, in.Imm<<16, pc)

	case isa.OpLW:
		addr := c.Regs[in.Rs] + in.SImm()
		if addr&3 != 0 {
			return fmt.Errorf("%w: lw %#x at %#x", ErrMisalign, addr, pc)
		}
		c.setReg(in.Rt, c.Mem.LoadWord(addr), pc)
	case isa.OpLH:
		addr := c.Regs[in.Rs] + in.SImm()
		c.setReg(in.Rt, uint32(int32(int16(c.Mem.LoadHalf(addr)))), pc)
	case isa.OpLHU:
		addr := c.Regs[in.Rs] + in.SImm()
		c.setReg(in.Rt, uint32(c.Mem.LoadHalf(addr)), pc)
	case isa.OpLB:
		addr := c.Regs[in.Rs] + in.SImm()
		c.setReg(in.Rt, uint32(int32(int8(c.Mem.LoadByte(addr)))), pc)
	case isa.OpLBU:
		addr := c.Regs[in.Rs] + in.SImm()
		c.setReg(in.Rt, uint32(c.Mem.LoadByte(addr)), pc)

	case isa.OpSW:
		addr := c.Regs[in.Rs] + in.SImm()
		if addr&3 != 0 {
			return fmt.Errorf("%w: sw %#x at %#x", ErrMisalign, addr, pc)
		}
		c.Mem.StoreWord(addr, c.Regs[in.Rt])
		c.storedText(addr, 4)
	case isa.OpSH:
		addr := c.Regs[in.Rs] + in.SImm()
		c.Mem.StoreHalf(addr, uint16(c.Regs[in.Rt]))
		c.storedText(addr, 2)
	case isa.OpSB:
		addr := c.Regs[in.Rs] + in.SImm()
		c.Mem.StoreByte(addr, byte(c.Regs[in.Rt]))
		c.storedText(addr, 1)

	default:
		return fmt.Errorf("%w: op=%#x at %#x", ErrBadOp, in.Op, pc)
	}

	c.PC = next
	return nil
}

// storedText re-decodes the text words a store of n bytes at addr
// touched (its first and last byte's words), so that self-modifying
// code runs what memory holds.
func (c *CPU) storedText(addr, n uint32) {
	size := uint32(len(c.text)) << 2
	for _, off := range [2]uint32{addr - isa.TextBase, addr + n - 1 - isa.TextBase} {
		if off < size {
			c.text[off>>2] = isa.Decode(c.Mem.LoadWord(isa.TextBase + off&^3))
		}
	}
}

// special executes OpSpecial (R-format) instructions.
func (c *CPU) special(pc uint32, in *isa.Inst, next *uint32) error {
	rs, rt := c.Regs[in.Rs], c.Regs[in.Rt]
	switch in.Funct {
	case isa.FnSLL:
		c.setReg(in.Rd, rt<<in.Shamt, pc)
	case isa.FnSRL:
		c.setReg(in.Rd, rt>>in.Shamt, pc)
	case isa.FnSRA:
		c.setReg(in.Rd, uint32(int32(rt)>>in.Shamt), pc)
	case isa.FnSLLV:
		c.setReg(in.Rd, rt<<(rs&31), pc)
	case isa.FnSRLV:
		c.setReg(in.Rd, rt>>(rs&31), pc)
	case isa.FnSRAV:
		c.setReg(in.Rd, uint32(int32(rt)>>(rs&31)), pc)

	case isa.FnJR:
		*next = rs
	case isa.FnJALR:
		c.setRegSilent(in.Rd, pc+4)
		*next = rs

	case isa.FnSYSCALL:
		return c.syscall()

	case isa.FnMFHI:
		c.setReg(in.Rd, c.HI, pc)
	case isa.FnMFLO:
		c.setReg(in.Rd, c.LO, pc)
	case isa.FnMTHI:
		c.HI = rs
	case isa.FnMTLO:
		c.LO = rs

	case isa.FnMULT:
		// The paper: "For instructions which produce two result
		// registers (e.g. multiply and divide) only one is predicted."
		// We trace the LO half.
		prod := int64(int32(rs)) * int64(int32(rt))
		c.HI = uint32(uint64(prod) >> 32)
		c.LO = uint32(uint64(prod))
		c.traceHiLo(pc)
	case isa.FnMULTU:
		prod := uint64(rs) * uint64(rt)
		c.HI = uint32(prod >> 32)
		c.LO = uint32(prod)
		c.traceHiLo(pc)
	case isa.FnDIV:
		if rt == 0 {
			return fmt.Errorf("%w at %#x", ErrDivZero, pc)
		}
		c.LO = uint32(int32(rs) / int32(rt))
		c.HI = uint32(int32(rs) % int32(rt))
		c.traceHiLo(pc)
	case isa.FnDIVU:
		if rt == 0 {
			return fmt.Errorf("%w at %#x", ErrDivZero, pc)
		}
		c.LO = rs / rt
		c.HI = rs % rt
		c.traceHiLo(pc)

	case isa.FnADD:
		c.setReg(in.Rd, rs+rt, pc)
	case isa.FnADDU:
		c.setReg(in.Rd, rs+rt, pc)
	case isa.FnSUB:
		c.setReg(in.Rd, rs-rt, pc)
	case isa.FnSUBU:
		c.setReg(in.Rd, rs-rt, pc)
	case isa.FnAND:
		c.setReg(in.Rd, rs&rt, pc)
	case isa.FnOR:
		c.setReg(in.Rd, rs|rt, pc)
	case isa.FnXOR:
		c.setReg(in.Rd, rs^rt, pc)
	case isa.FnNOR:
		c.setReg(in.Rd, ^(rs | rt), pc)
	case isa.FnSLT:
		c.setReg(in.Rd, b2u(int32(rs) < int32(rt)), pc)
	case isa.FnSLTU:
		c.setReg(in.Rd, b2u(rs < rt), pc)

	default:
		return fmt.Errorf("%w: funct=%#x at %#x", ErrBadOp, in.Funct, pc)
	}
	return nil
}

// traceHiLo emits the single event for a two-result instruction.
func (c *CPU) traceHiLo(pc uint32) {
	c.emit(pc, c.LO)
	c.Emitted++
}

func (c *CPU) syscall() error {
	switch c.Regs[isa.RegV0] {
	case isa.SysPrintInt:
		c.Stdout = append(c.Stdout, []byte(fmt.Sprintf("%d", int32(c.Regs[isa.RegA0])))...)
	case isa.SysPrintStr:
		c.Stdout = append(c.Stdout, []byte(c.Mem.LoadString(c.Regs[isa.RegA0], 1<<16))...)
	case isa.SysSbrk:
		old := c.brk
		c.brk = (c.brk + c.Regs[isa.RegA0] + 7) &^ 7
		c.setRegSilent(isa.RegV0, old)
	case isa.SysExit:
		c.halted = true
	case isa.SysPutChar:
		c.Stdout = append(c.Stdout, byte(c.Regs[isa.RegA0]))
	default:
		return fmt.Errorf("vm: unknown syscall %d", c.Regs[isa.RegV0])
	}
	return nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// traceChunk is the number of events Trace collects per chunk.
const traceChunk = 1 << 16

// Trace runs the assembled program p to completion (or budget
// instructions) and returns the collected value trace. It is the
// package's convenience entry point for tests and experiments.
//
// Events go into fixed-size chunks, at most budget events each, and
// one exact-size copy joins them at the end: a slice grown by append
// would copy each event several times.
func Trace(p *asm.Program, budget uint64) (trace.Trace, error) {
	size := uint64(traceChunk)
	if budget > 0 && budget < size {
		size = budget // each instruction emits at most one event
	}
	var chunks []trace.Trace
	cur := make(trace.Trace, 0, size)
	c := New(p, func(pc, v uint32) {
		if len(cur) == cap(cur) {
			chunks = append(chunks, cur)
			cur = make(trace.Trace, 0, size)
		}
		cur = append(cur, trace.Event{PC: pc, Value: v})
	})
	err := c.Run(budget)
	if err == ErrBudget {
		err = nil // a truncated trace is still a valid trace
	}
	chunks = append(chunks, cur)
	var tr trace.Trace
	if c.Emitted > 0 {
		tr = make(trace.Trace, 0, c.Emitted)
	}
	for _, ch := range chunks {
		tr = append(tr, ch...)
	}
	return tr, err
}
