package vm

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/trace"
)

// refCPU is the reference interpreter the compiled one is checked
// against: a plain two-level switch over isa.Inst that decodes every
// fetch from memory, so that self-modifying code needs no special
// case. It is the interpreter the package had before its text was
// compiled, and keeps its semantics word for word.
type refCPU struct {
	Regs     [isa.NumRegs]uint32
	HI, LO   uint32
	PC       uint32
	Mem      *Memory
	Executed uint64
	Emitted  uint64
	Stdout   []byte
	Events   trace.Trace

	halted bool
	brk    uint32
}

func newRef(p *asm.Program) *refCPU {
	c := &refCPU{Mem: NewMemory(), PC: p.Entry}
	for i, w := range p.Text {
		c.Mem.StoreWord(isa.TextBase+uint32(4*i), w)
	}
	c.Mem.WriteBytes(isa.DataBase, p.Data)
	c.Regs[isa.RegSP] = isa.StackBase
	c.Regs[isa.RegGP] = isa.DataBase
	c.brk = isa.DataBase + uint32(len(p.Data)+7)&^uint32(7)
	return c
}

func (c *refCPU) setReg(r int, v uint32, tracePC uint32) {
	if r == 0 {
		return
	}
	c.Regs[r] = v
	c.Events = append(c.Events, trace.Event{PC: tracePC, Value: v})
	c.Emitted++
}

func (c *refCPU) setRegSilent(r int, v uint32) {
	if r != 0 {
		c.Regs[r] = v
	}
}

func (c *refCPU) Run(budget uint64) error {
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

func (c *refCPU) Step() error {
	pc := c.PC
	in := isa.Decode(c.Mem.LoadWord(pc))
	c.Executed++
	next := pc + 4

	switch in.Op {
	case isa.OpSpecial:
		if err := c.special(pc, &in, &next); err != nil {
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
	case isa.OpSH:
		addr := c.Regs[in.Rs] + in.SImm()
		c.Mem.StoreHalf(addr, uint16(c.Regs[in.Rt]))
	case isa.OpSB:
		addr := c.Regs[in.Rs] + in.SImm()
		c.Mem.StoreByte(addr, byte(c.Regs[in.Rt]))

	default:
		return fmt.Errorf("%w: op=%#x at %#x", ErrBadOp, in.Op, pc)
	}

	c.PC = next
	return nil
}

func (c *refCPU) special(pc uint32, in *isa.Inst, next *uint32) error {
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

	case isa.FnADD, isa.FnADDU:
		c.setReg(in.Rd, rs+rt, pc)
	case isa.FnSUB, isa.FnSUBU:
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

func (c *refCPU) traceHiLo(pc uint32) {
	c.Events = append(c.Events, trace.Event{PC: pc, Value: c.LO})
	c.Emitted++
}

func (c *refCPU) syscall() error {
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
