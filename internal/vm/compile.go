package vm

import "repro/internal/isa"

// op is one compiled instruction, 8 bytes: from the low byte up, the
// dispatch code, rd, rs and rt, then a 32-bit operand. The code folds
// the opcode, the funct field and regimm's rt into one value; rd is
// the destination register of every op that writes one (the
// encoding's rt for I-format ops). The operand is precomputed: the
// extended immediate, lui's constant, the shift amount, or the
// absolute branch or jump target. An illegal instruction keeps the
// offending field there for its error. A packed word, unlike a
// struct of five fields, stays in a register through the interpreter
// loop.
type op uint64

func newOp(code, rd, rs, rt uint8, imm uint32) op {
	return op(code) | op(rd)<<8 | op(rs)<<16 | op(rt)<<24 | op(imm)<<32
}

func (o op) code() uint8 { return uint8(o) }

// rd, rs and rt return register numbers, masked so that indexing the
// register file needs no bounds check.
func (o op) rd() uint32  { return uint32(o>>8) & 31 }
func (o op) rs() uint32  { return uint32(o>>16) & 31 }
func (o op) rt() uint32  { return uint32(o>>24) & 31 }
func (o op) imm() uint32 { return uint32(o >> 32) }

// Dispatch codes. A register write to $zero that cannot fault
// compiles to xNop, an lw into $zero to xLwZero (it still checks
// alignment) and a jalr linking $zero to xJr.
const (
	xBadOp     uint8 = iota // imm: the opcode
	xBadRegImm              // imm: regimm's rt
	xBadFunct               // imm: the funct field
	xNop
	xConst // rd = imm: lui, and addi/addiu/ori from $zero
	xAddi
	xSlti
	xSltiu
	xAndi
	xOri
	xXori
	xSll
	xSrl
	xSra
	xSllv
	xSrlv
	xSrav
	xAdd // add and addu: MR32 has no overflow trap
	xSub // sub and subu
	xAnd
	xOr
	xXor
	xNor
	xSlt
	xSltu
	xMfhi
	xMflo
	xMthi
	xMtlo
	xMult
	xMultu
	xDiv
	xDivu
	xLw
	xLwZero
	xLh
	xLhu
	xLb
	xLbu
	xSw
	xSh
	xSb
	xBeq
	xBne
	xBlez
	xBgtz
	xBltz
	xBgez
	xJ
	xJal
	xJr
	xJalr
	xSyscall
)

// functCodes maps an OpSpecial funct field to its code; 0 (xBadOp)
// marks an illegal funct.
var functCodes = [64]uint8{
	isa.FnSLL: xSll, isa.FnSRL: xSrl, isa.FnSRA: xSra,
	isa.FnSLLV: xSllv, isa.FnSRLV: xSrlv, isa.FnSRAV: xSrav,
	isa.FnJR: xJr, isa.FnJALR: xJalr, isa.FnSYSCALL: xSyscall,
	isa.FnMFHI: xMfhi, isa.FnMTHI: xMthi, isa.FnMFLO: xMflo, isa.FnMTLO: xMtlo,
	isa.FnMULT: xMult, isa.FnMULTU: xMultu, isa.FnDIV: xDiv, isa.FnDIVU: xDivu,
	isa.FnADD: xAdd, isa.FnADDU: xAdd, isa.FnSUB: xSub, isa.FnSUBU: xSub,
	isa.FnAND: xAnd, isa.FnOR: xOr, isa.FnXOR: xXor, isa.FnNOR: xNor,
	isa.FnSLT: xSlt, isa.FnSLTU: xSltu,
}

// compile translates the instruction word w fetched at pc.
func compile(w, pc uint32) op {
	in := isa.Decode(w)
	rd, rs, rt := uint8(in.Rd), uint8(in.Rs), uint8(in.Rt)
	simm := in.SImm()
	target := pc + 4 + simm<<2
	switch in.Op {
	case isa.OpSpecial:
		code := functCodes[in.Funct]
		switch {
		case code == xBadOp:
			return newOp(xBadFunct, 0, 0, 0, in.Funct)
		case code == xJalr && rd == 0:
			code = xJr
		case rd == 0 && writesRd(code):
			code = xNop
		}
		return newOp(code, rd, rs, rt, in.Shamt)
	case isa.OpRegImm:
		switch in.Rt {
		case isa.RtBLTZ:
			return newOp(xBltz, 0, rs, 0, target)
		case isa.RtBGEZ:
			return newOp(xBgez, 0, rs, 0, target)
		}
		return newOp(xBadRegImm, 0, 0, 0, uint32(in.Rt))
	case isa.OpJ:
		return newOp(xJ, 0, 0, 0, pc&0xf0000000|in.Target<<2)
	case isa.OpJAL:
		return newOp(xJal, 0, 0, 0, pc&0xf0000000|in.Target<<2)
	case isa.OpBEQ:
		if rs == rt { // b
			return newOp(xJ, 0, 0, 0, target)
		}
		return newOp(xBeq, 0, rs, rt, target)
	case isa.OpBNE:
		if rs == rt {
			return newOp(xNop, 0, 0, 0, 0)
		}
		return newOp(xBne, 0, rs, rt, target)
	case isa.OpBLEZ:
		return newOp(xBlez, 0, rs, 0, target)
	case isa.OpBGTZ:
		return newOp(xBgtz, 0, rs, 0, target)
	case isa.OpSB:
		return newOp(xSb, 0, rs, rt, simm)
	case isa.OpSH:
		return newOp(xSh, 0, rs, rt, simm)
	case isa.OpSW:
		return newOp(xSw, 0, rs, rt, simm)
	}

	// The rest write rt.
	var code uint8
	imm := simm
	switch in.Op {
	case isa.OpADDI, isa.OpADDIU:
		code = xAddi
		if rs == 0 {
			code = xConst
		}
	case isa.OpSLTI:
		code = xSlti
	case isa.OpSLTIU:
		code = xSltiu
	case isa.OpANDI:
		code, imm = xAndi, in.Imm
	case isa.OpORI:
		code, imm = xOri, in.Imm
		if rs == 0 {
			code = xConst
		}
	case isa.OpXORI:
		code, imm = xXori, in.Imm
	case isa.OpLUI:
		code, imm = xConst, in.Imm<<16
	case isa.OpLW:
		code = xLw
		if rt == 0 {
			return newOp(xLwZero, 0, rs, 0, imm)
		}
	case isa.OpLH:
		code = xLh
	case isa.OpLHU:
		code = xLhu
	case isa.OpLB:
		code = xLb
	case isa.OpLBU:
		code = xLbu
	default:
		return newOp(xBadOp, 0, 0, 0, in.Op)
	}
	if rt == 0 {
		code = xNop
	}
	return newOp(code, rt, rs, 0, imm)
}

// writesRd reports whether an OpSpecial code's only effect is a write
// to rd (with its trace event), so that rd == $zero makes it a no-op.
func writesRd(code uint8) bool {
	switch code {
	case xJr, xJalr, xSyscall, xMthi, xMtlo, xMult, xMultu, xDiv, xDivu:
		return false
	}
	return true
}
