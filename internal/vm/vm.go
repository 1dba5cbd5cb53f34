// Package vm implements a functional (sim-safe-style) simulator for
// the MR32 ISA. It executes assembled programs and collects a value
// trace with exactly the paper's filter: every instruction that
// writes an integer general-purpose register produces one trace
// event, including loads; branches and jumps (including jal/jalr,
// whose $ra write is a jump side effect) are excluded;
// multiply/divide produce two result halves but are traced once (the
// LO half, read first in practice). Writes to $zero are discarded and
// not traced.
//
// New compiles the text segment once into flat 8-byte ops, and one
// interpreter loop runs them with the PC, the counters and the event
// buffer held in locals (DESIGN.md §16). Run and Step both enter it.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/trace"
)

// CPU is an MR32 functional simulator instance.
type CPU struct {
	Regs [isa.NumRegs]uint32
	HI   uint32
	LO   uint32
	PC   uint32
	// Mem holds the whole address space, text included. It points at
	// the CPU's own memory, which the interpreter addresses without
	// going through Mem; it must not be reassigned. The interpreter
	// recompiles the text words its own stores change; a write made to
	// Mem from outside Run or Step after New is not seen by
	// instructions fetched from the text segment.
	Mem *Memory

	// Executed counts all executed instructions; Emitted counts those
	// that produced a trace event.
	Executed uint64
	Emitted  uint64

	// Stdout accumulates syscall output (print/putchar).
	Stdout []byte

	mem    Memory
	halted bool
	brk    uint32   // heap break for sbrk
	prof   []uint64 // per-text-word execution counts, when enabled
	// ops is the text segment compiled once: ops[i] is the
	// instruction at isa.TextBase + 4*i. Each CPU owns its copy, so
	// CPUs running one program concurrently never share it.
	ops []op

	// collect keeps events; otherwise buf is a small chunk the
	// interpreter overwrites. buf[:n] holds the latest events, and
	// chunks the full chunks before it.
	collect bool
	buf     []trace.Event
	n       int
	chunks  [][]trace.Event
}

// Common run errors.
var (
	ErrBudget   = errors.New("vm: instruction budget exhausted")
	ErrBadOp    = errors.New("vm: illegal instruction")
	ErrDivZero  = errors.New("vm: integer division by zero")
	ErrMisalign = errors.New("vm: misaligned memory access")
)

// New creates a CPU loaded with p: text at isa.TextBase, data at
// isa.DataBase, $sp at isa.StackBase, $gp at the data base, PC at the
// program entry. It compiles the text once. With collect set the CPU
// keeps its trace events for Events; otherwise it discards them.
func New(p *asm.Program, collect bool) *CPU {
	c := &CPU{PC: p.Entry, collect: collect, ops: make([]op, len(p.Text))}
	c.Mem = &c.mem
	for i, w := range p.Text {
		pc := isa.TextBase + uint32(4*i)
		c.mem.StoreWord(pc, w)
		c.ops[i] = compile(w, pc)
	}
	c.mem.WriteBytes(isa.DataBase, p.Data)
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

// Run executes until the program halts or budget instructions have
// executed. A budget of 0 means unlimited. It returns ErrBudget if the
// budget expired first, nil on a clean exit, or an execution error.
func (c *CPU) Run(budget uint64) error {
	limit := budget
	if limit == 0 {
		limit = ^uint64(0)
	}
	if c.prof != nil {
		// run counts the instruction it starts on, so profiling goes
		// step by step.
		for !c.halted {
			if c.Executed >= limit {
				return ErrBudget
			}
			if err := c.Step(); err != nil {
				return err
			}
		}
		return nil
	}
	if c.halted {
		return nil
	}
	if err := c.run(limit); err != nil || c.halted {
		return err
	}
	return ErrBudget
}

// Step executes one instruction, whether or not the program has
// halted.
func (c *CPU) Step() error { return c.run(c.Executed + 1) }

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

// run is the interpreter. It executes instructions until Executed
// reaches limit or the program halts, and then returns nil, or until
// an instruction faults; a faulting instruction counts as executed
// and leaves the PC on itself. The PC, the executed count and the
// event buffer's fill live in locals and are written back on every
// exit.
//
// With profiling on, run counts the instruction it starts on: Run
// then calls it once per instruction, through Step.
func (c *CPU) run(limit uint64) error {
	if c.prof != nil {
		if i := (c.PC - isa.TextBase) / 4; i < uint32(len(c.prof)) {
			c.prof[i]++
		}
	}
	pc, executed := c.PC, c.Executed
	regs, mem, ops := &c.Regs, &c.mem, c.ops
	// Emitted is always base plus the events in buf.
	buf, n := c.buf, c.n
	base := c.Emitted - uint64(n)
	for executed < limit {
		if n == len(buf) {
			c.flush(limit - executed)
			base += uint64(n)
			buf, n = c.buf, 0
		}
		// Each instruction emits at most one event, so the chunk
		// cannot fill before stop.
		stop := limit
		if room := uint64(len(buf) - n); limit-executed > room {
			stop = executed + room
		}
		for executed < stop {
			var o op
			if i := (pc - isa.TextBase) >> 2; pc&3 == 0 && uint64(i) < uint64(len(ops)) {
				o = ops[i]
			} else {
				o = compile(mem.LoadWord(pc), pc)
			}
			executed++

			// Register-writing ops leave the value in v for the shared
			// tail below; every other op moves the PC and continues.
			var v uint32
			switch o.code() {
			case xNop:
				pc += 4
				continue
			case xConst:
				v = o.imm()
			case xAddi:
				v = regs[o.rs()] + o.imm()
			case xSlti:
				v = b2u(int32(regs[o.rs()]) < int32(o.imm()))
			case xSltiu:
				v = b2u(regs[o.rs()] < o.imm())
			case xAndi:
				v = regs[o.rs()] & o.imm()
			case xOri:
				v = regs[o.rs()] | o.imm()
			case xXori:
				v = regs[o.rs()] ^ o.imm()

			case xSll:
				v = regs[o.rt()] << (o.imm() & 31)
			case xSrl:
				v = regs[o.rt()] >> (o.imm() & 31)
			case xSra:
				v = uint32(int32(regs[o.rt()]) >> (o.imm() & 31))
			case xSllv:
				v = regs[o.rt()] << (regs[o.rs()] & 31)
			case xSrlv:
				v = regs[o.rt()] >> (regs[o.rs()] & 31)
			case xSrav:
				v = uint32(int32(regs[o.rt()]) >> (regs[o.rs()] & 31))
			case xAdd:
				v = regs[o.rs()] + regs[o.rt()]
			case xSub:
				v = regs[o.rs()] - regs[o.rt()]
			case xAnd:
				v = regs[o.rs()] & regs[o.rt()]
			case xOr:
				v = regs[o.rs()] | regs[o.rt()]
			case xXor:
				v = regs[o.rs()] ^ regs[o.rt()]
			case xNor:
				v = ^(regs[o.rs()] | regs[o.rt()])
			case xSlt:
				v = b2u(int32(regs[o.rs()]) < int32(regs[o.rt()]))
			case xSltu:
				v = b2u(regs[o.rs()] < regs[o.rt()])
			case xMfhi:
				v = c.HI
			case xMflo:
				v = c.LO

			case xMthi:
				c.HI = regs[o.rs()]
				pc += 4
				continue
			case xMtlo:
				c.LO = regs[o.rs()]
				pc += 4
				continue
			case xMult, xMultu, xDiv, xDivu:
				// The paper: "For instructions which produce two result
				// registers (e.g. multiply and divide) only one is
				// predicted." The LO half is traced; no GPR is written.
				rs, rt := regs[o.rs()], regs[o.rt()]
				switch o.code() {
				case xMult:
					prod := uint64(int64(int32(rs)) * int64(int32(rt)))
					c.HI, c.LO = uint32(prod>>32), uint32(prod)
				case xMultu:
					prod := uint64(rs) * uint64(rt)
					c.HI, c.LO = uint32(prod>>32), uint32(prod)
				case xDiv:
					if rt == 0 {
						c.save(pc, executed, n, base)
						return fault(o, pc, 0)
					}
					c.LO, c.HI = uint32(int32(rs)/int32(rt)), uint32(int32(rs)%int32(rt))
				default:
					if rt == 0 {
						c.save(pc, executed, n, base)
						return fault(o, pc, 0)
					}
					c.LO, c.HI = rs/rt, rs%rt
				}
				buf[n] = trace.Event{PC: pc, Value: c.LO}
				n++
				pc += 4
				continue

			case xLw, xLwZero:
				addr := regs[o.rs()] + o.imm()
				if addr&3 != 0 {
					c.save(pc, executed, n, base)
					return fault(o, pc, addr)
				}
				if o.code() == xLwZero {
					pc += 4
					continue
				}
				// An aligned word never crosses a page.
				v = 0
				if p := mem.lookup(addr); p != nil {
					v = binary.LittleEndian.Uint32(p[addr&(pageSize-1):])
				}
			case xLh:
				v = uint32(int32(int16(mem.LoadHalf(regs[o.rs()] + o.imm()))))
			case xLhu:
				v = uint32(mem.LoadHalf(regs[o.rs()] + o.imm()))
			case xLb:
				v = uint32(int32(int8(mem.LoadByte(regs[o.rs()] + o.imm()))))
			case xLbu:
				v = uint32(mem.LoadByte(regs[o.rs()] + o.imm()))

			case xSw, xSh, xSb:
				addr := regs[o.rs()] + o.imm()
				var size uint32
				switch o.code() {
				case xSw:
					if addr&3 != 0 {
						c.save(pc, executed, n, base)
						return fault(o, pc, addr)
					}
					if p := mem.lookup(addr); p != nil {
						binary.LittleEndian.PutUint32(p[addr&(pageSize-1):], regs[o.rt()])
					} else {
						mem.StoreWord(addr, regs[o.rt()])
					}
					size = 4
				case xSh:
					mem.StoreHalf(addr, uint16(regs[o.rt()]))
					size = 2
				default:
					mem.StoreByte(addr, byte(regs[o.rt()]))
					size = 1
				}
				// A store whose first byte lies in
				// [TextBase-3, TextBase+text size) may touch the text.
				if addr-(isa.TextBase-3) < uint32(len(ops))<<2+3 {
					c.storedText(addr, size)
				}
				pc += 4
				continue

			case xBeq:
				pc = branch(regs[o.rs()] == regs[o.rt()], pc, o.imm())
				continue
			case xBne:
				pc = branch(regs[o.rs()] != regs[o.rt()], pc, o.imm())
				continue
			case xBlez:
				pc = branch(int32(regs[o.rs()]) <= 0, pc, o.imm())
				continue
			case xBgtz:
				pc = branch(int32(regs[o.rs()]) > 0, pc, o.imm())
				continue
			case xBltz:
				pc = branch(int32(regs[o.rs()]) < 0, pc, o.imm())
				continue
			case xBgez:
				pc = branch(int32(regs[o.rs()]) >= 0, pc, o.imm())
				continue
			case xJ:
				pc = o.imm()
				continue
			case xJal:
				regs[isa.RegRA] = pc + 4
				pc = o.imm()
				continue
			case xJr:
				pc = regs[o.rs()]
				continue
			case xJalr:
				pc, regs[o.rd()] = regs[o.rs()], pc+4
				continue

			case xSyscall:
				// The syscall runs on the written-back state.
				c.save(pc, executed, n, base)
				if err := c.syscall(); err != nil {
					return err
				}
				pc += 4
				if c.halted {
					c.PC = pc
					return nil
				}
				continue

			default: // xBadOp, xBadRegImm, xBadFunct
				c.save(pc, executed, n, base)
				return fault(o, pc, 0)
			}
			regs[o.rd()] = v
			buf[n] = trace.Event{PC: pc, Value: v}
			n++
			pc += 4
		}
	}
	c.save(pc, executed, n, base)
	return nil
}

// save writes run's locals back: the PC, the executed count and the
// buffer's fill n, with base the events emitted before the buffer.
func (c *CPU) save(pc uint32, executed uint64, n int, base uint64) {
	c.PC, c.Executed = pc, executed
	c.Emitted, c.n = base+uint64(n), n
}

// fault returns the error of op o faulting at pc; addr is the
// address of a misaligned access.
func fault(o op, pc, addr uint32) error {
	switch o.code() {
	case xDiv, xDivu:
		return fmt.Errorf("%w at %#x", ErrDivZero, pc)
	case xLw, xLwZero:
		return fmt.Errorf("%w: lw %#x at %#x", ErrMisalign, addr, pc)
	case xSw:
		return fmt.Errorf("%w: sw %#x at %#x", ErrMisalign, addr, pc)
	case xBadRegImm:
		return fmt.Errorf("%w: regimm rt=%d at %#x", ErrBadOp, o.imm(), pc)
	case xBadFunct:
		return fmt.Errorf("%w: funct=%#x at %#x", ErrBadOp, o.imm(), pc)
	}
	return fmt.Errorf("%w: op=%#x at %#x", ErrBadOp, o.imm(), pc)
}

// branch returns a conditional branch's next PC.
func branch(taken bool, pc, target uint32) uint32 {
	if taken {
		return target
	}
	return pc + 4
}

// storedText recompiles the text words a store of n bytes at addr
// touched (its first and last byte's words), so that self-modifying
// code runs what memory holds.
func (c *CPU) storedText(addr, n uint32) {
	size := uint32(len(c.ops)) << 2
	for _, off := range [2]uint32{addr - isa.TextBase, addr + n - 1 - isa.TextBase} {
		if off < size {
			pc := isa.TextBase + off&^3
			c.ops[off>>2] = compile(c.mem.LoadWord(pc), pc)
		}
	}
}

func (c *CPU) syscall() error {
	switch c.Regs[isa.RegV0] {
	case isa.SysPrintInt:
		c.Stdout = append(c.Stdout, []byte(fmt.Sprintf("%d", int32(c.Regs[isa.RegA0])))...)
	case isa.SysPrintStr:
		c.Stdout = append(c.Stdout, []byte(c.mem.LoadString(c.Regs[isa.RegA0], 1<<16))...)
	case isa.SysSbrk:
		old := c.brk
		c.brk = (c.brk + c.Regs[isa.RegA0] + 7) &^ 7
		c.Regs[isa.RegV0] = old
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

const (
	// traceChunk is the number of events a collecting CPU keeps per
	// chunk.
	traceChunk = 1 << 16
	// discardChunk is the size of the chunk a CPU that discards its
	// events overwrites.
	discardChunk = 1 << 9
)

// chunkPool recycles full-size chunks once Events has joined them.
var chunkPool sync.Pool // of *[traceChunk]trace.Event

// flush makes room in c.buf, which is full, for more events. Without
// collection the chunk is reused; with it, it is kept and the next
// one is sized for at most remaining more events.
func (c *CPU) flush(remaining uint64) {
	c.n = 0
	if !c.collect {
		if c.buf == nil {
			c.buf = make([]trace.Event, discardChunk)
		}
		return
	}
	if len(c.buf) > 0 {
		c.chunks = append(c.chunks, c.buf)
	}
	if ch, _ := chunkPool.Get().(*[traceChunk]trace.Event); ch != nil {
		c.buf = ch[:]
	} else {
		c.buf = make([]trace.Event, min(remaining, traceChunk))
	}
}

// Events returns the events collected since New or the previous
// Events call as one exact-size trace, nil if there are none or
// collection is off, and recycles the chunks that held them.
func (c *CPU) Events() trace.Trace {
	if !c.collect {
		return nil
	}
	c.chunks = append(c.chunks, c.buf[:c.n])
	total := 0
	for _, ch := range c.chunks {
		total += len(ch)
	}
	var tr trace.Trace
	if total > 0 {
		tr = make(trace.Trace, 0, total)
	}
	for i, ch := range c.chunks {
		tr = append(tr, ch...)
		if cap(ch) == traceChunk {
			chunkPool.Put((*[traceChunk]trace.Event)(ch[:traceChunk]))
		}
		c.chunks[i] = nil
	}
	c.chunks, c.buf, c.n = c.chunks[:0], nil, 0
	return tr
}

// Trace runs the assembled program p to completion (or budget
// instructions) and returns the collected value trace. It is the
// package's convenience entry point for tests and experiments.
func Trace(p *asm.Program, budget uint64) (trace.Trace, error) {
	c := New(p, true)
	err := c.Run(budget)
	if err == ErrBudget {
		err = nil // a truncated trace is still a valid trace
	}
	return c.Events(), err
}
