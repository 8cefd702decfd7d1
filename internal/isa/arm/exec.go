package arm

import (
	"fmt"
	"math/bits"
)

// shifterOperand computes the data-processing operand 2 together with
// the barrel shifter's carry-out (used when the S bit is set on a
// logical operation).
func (c *CPU) shifterOperand(i *Instr) (val uint32, carry bool) {
	carry = c.C
	if i.HasImm {
		val = i.Imm
		if i.Raw != 0 && (i.Raw>>8)&0xf != 0 {
			carry = val&0x8000_0000 != 0
		}
		return val, carry
	}
	rm := c.R[i.Rm]
	if i.HasShiftReg {
		amt := c.R[i.Rs] & 0xff
		// A register-specified shift of zero leaves the value and
		// carry untouched.
		if amt == 0 {
			return rm, carry
		}
		return shiftBy(rm, i.Shift, amt, carry)
	}
	return shiftImm(rm, i.Shift, uint32(i.ShiftAmt), carry)
}

// shiftImm applies an immediate shift of Rm, the form operand 2 and
// scaled memory offsets share, with the encoding's zero-amount rules:
// LSL #0 leaves the value and carry untouched, LSR #0 and ASR #0 mean
// #32, and ROR #0 is RRX, which shifts the carry in at the top.
func shiftImm(rm uint32, kind Shift, amt uint32, carry bool) (uint32, bool) {
	if amt == 0 {
		switch kind {
		case LSL:
			return rm, carry
		case LSR, ASR:
			amt = 32
		case ROR: // RRX
			val := rm >> 1
			if carry {
				val |= 0x8000_0000
			}
			return val, rm&1 != 0
		}
	}
	return shiftBy(rm, kind, amt, carry)
}

func shiftBy(v uint32, kind Shift, amt uint32, carryIn bool) (uint32, bool) {
	switch kind {
	case LSL:
		switch {
		case amt < 32:
			return v << amt, v&(1<<(32-amt)) != 0
		case amt == 32:
			return 0, v&1 != 0
		default:
			return 0, false
		}
	case LSR:
		switch {
		case amt < 32:
			return v >> amt, v&(1<<(amt-1)) != 0
		case amt == 32:
			return 0, v&0x8000_0000 != 0
		default:
			return 0, false
		}
	case ASR:
		if amt >= 32 {
			if v&0x8000_0000 != 0 {
				return 0xffff_ffff, true
			}
			return 0, false
		}
		return uint32(int32(v) >> amt), v&(1<<(amt-1)) != 0
	case ROR:
		amt &= 31
		if amt == 0 {
			return v, v&0x8000_0000 != 0
		}
		return bits.RotateLeft32(v, -int(amt)), v&(1<<(amt-1)) != 0
	}
	return v, carryIn
}

func (c *CPU) setNZ(v uint32) {
	c.N = v&0x8000_0000 != 0
	c.Z = v == 0
}

// addWithCarry returns a+b+ci with ARM's C (carry out) and V (signed
// overflow) flags.
func addWithCarry(a, b uint32, ci bool) (sum uint32, co, ov bool) {
	var cin uint32
	if ci {
		cin = 1
	}
	s64 := uint64(a) + uint64(b) + uint64(cin)
	sum = uint32(s64)
	co = s64 > 0xffff_ffff
	ov = (a^sum)&(b^sum)&0x8000_0000 != 0
	return sum, co, ov
}

// Exec executes a decoded instruction against the CPU state. It
// reports whether the instruction redirected control flow (wrote the
// PC), in which case the caller must not advance the PC itself.
// During execution R15 reads as the instruction's address plus 8,
// matching ARM's architected PC-ahead behaviour; callers must set
// R[15] to pc+8 before calling (CPU.Step does this).
func (c *CPU) Exec(i Instr) (branched bool, err error) {
	pc := c.R[PC] // the instruction's own address
	// Expose the architected PC-ahead value to operand reads.
	c.R[PC] = pc + 8

	defer func() {
		if !branched {
			c.R[PC] = pc // Step advances by 4 itself
		}
	}()

	if !i.Cond.Passed(c.N, c.Z, c.C, c.V) {
		return false, nil
	}

	writeRd := func(v uint32) {
		c.R[i.Rd] = v
		if i.Rd == PC {
			branched = true
		}
	}

	switch i.Op {
	case B, BL:
		if i.Op == BL {
			c.R[LR] = pc + 4
		}
		c.R[PC] = uint32(int64(pc) + 8 + int64(i.Offset))
		return true, nil

	case SWI:
		if c.SWIHandler == nil {
			return false, fmt.Errorf("swi %#x with no handler", i.Imm)
		}
		return false, c.SWIHandler(c, i.Imm&0xffffff)

	case MUL, MLA:
		v := c.R[i.Rm] * c.R[i.Rs]
		if i.Op == MLA {
			v += c.R[i.Rn]
		}
		if i.Rd == PC {
			return false, fmt.Errorf("mul with PC destination")
		}
		c.R[i.Rd] = v
		if i.SetFlags {
			c.setNZ(v)
		}
		return false, nil

	case LDR, STR:
		return c.execMem(&i)

	case LDRH, STRH, LDRSB, LDRSH:
		return c.execMemHalf(&i)

	case LDM, STM:
		return c.execBlock(&i)
	}

	// Data processing.
	op2, shCarry := c.shifterOperand(&i)
	rn := c.R[i.Rn]
	var res uint32
	var co, ov bool
	logical := false
	switch i.Op {
	case AND, TST:
		res, logical = rn&op2, true
	case EOR, TEQ:
		res, logical = rn^op2, true
	case ORR:
		res, logical = rn|op2, true
	case BIC:
		res, logical = rn&^op2, true
	case MOV:
		res, logical = op2, true
	case MVN:
		res, logical = ^op2, true
	case SUB, CMP:
		res, co, ov = addWithCarry(rn, ^op2, true)
	case RSB:
		res, co, ov = addWithCarry(op2, ^rn, true)
	case ADD, CMN:
		res, co, ov = addWithCarry(rn, op2, false)
	case ADC:
		res, co, ov = addWithCarry(rn, op2, c.C)
	case SBC:
		res, co, ov = addWithCarry(rn, ^op2, c.C)
	case RSC:
		res, co, ov = addWithCarry(op2, ^rn, c.C)
	default:
		return false, fmt.Errorf("exec: unhandled op %s", i.Op)
	}

	test := i.Op == TST || i.Op == TEQ || i.Op == CMP || i.Op == CMN
	if !test {
		writeRd(res)
	}
	if i.SetFlags || test {
		if i.Rd == PC && !test {
			return branched, fmt.Errorf("S-bit data processing with PC destination unsupported (no SPSR)")
		}
		c.setNZ(res)
		if logical {
			c.C = shCarry
		} else {
			c.C, c.V = co, ov
		}
	}
	return branched, nil
}

func (c *CPU) execMem(i *Instr) (branched bool, err error) {
	off := i.Imm
	if !i.HasImm {
		off, _ = shiftImm(c.R[i.Rm], i.Shift, uint32(i.ShiftAmt), c.C)
	}
	base := c.R[i.Rn]
	indexed := base + off
	if !i.Up {
		indexed = base - off
	}
	addr := base
	if i.Pre {
		addr = indexed
	}
	if !i.Byte && addr%4 != 0 {
		return false, fmt.Errorf("%s: unaligned word access at %#x", i.Op, addr)
	}
	n := uint32(4)
	if i.Byte {
		n = 1
	}
	if !c.inMem(addr, n) {
		return false, c.errMem(i.Op, addr, n)
	}
	if i.Op == LDR {
		var v uint32
		if i.Byte {
			v = uint32(c.Mem.Read8(addr))
		} else {
			v = c.Mem.Read32(addr)
		}
		if i.Writeback || !i.Pre {
			c.R[i.Rn] = indexed
		}
		c.R[i.Rd] = v
		if i.Rd == PC {
			branched = true
		}
	} else {
		v := c.R[i.Rd]
		if i.Byte {
			c.Mem.Write8(addr, byte(v))
		} else {
			c.Mem.Write32(addr, v)
		}
		if i.Writeback || !i.Pre {
			c.R[i.Rn] = indexed
		}
	}
	return branched, nil
}

// execMemHalf handles the halfword and signed transfers.
func (c *CPU) execMemHalf(i *Instr) (branched bool, err error) {
	off := i.Imm
	if !i.HasImm {
		off = c.R[i.Rm]
	}
	base := c.R[i.Rn]
	indexed := base + off
	if !i.Up {
		indexed = base - off
	}
	addr := base
	if i.Pre {
		addr = indexed
	}
	if i.Op != LDRSB && addr%2 != 0 {
		return false, fmt.Errorf("%s: unaligned halfword access at %#x", i.Op, addr)
	}
	n := uint32(2)
	if i.Op == LDRSB {
		n = 1
	}
	if !c.inMem(addr, n) {
		return false, c.errMem(i.Op, addr, n)
	}
	switch i.Op {
	case LDRH:
		c.R[i.Rd] = uint32(c.Mem.Read16(addr))
	case LDRSB:
		c.R[i.Rd] = uint32(int32(int8(c.Mem.Read8(addr))))
	case LDRSH:
		c.R[i.Rd] = uint32(int32(int16(c.Mem.Read16(addr))))
	case STRH:
		c.Mem.Write16(addr, uint16(c.R[i.Rd]))
	}
	if i.Writeback || !i.Pre {
		c.R[i.Rn] = indexed
	}
	if i.Op != STRH && i.Rd == PC {
		branched = true
	}
	return branched, nil
}

func (c *CPU) execBlock(i *Instr) (branched bool, err error) {
	n := uint32(bits.OnesCount16(i.RegList))
	if n == 0 {
		return false, fmt.Errorf("%s: empty register list", i.Op)
	}
	base := c.R[i.Rn]
	if base%4 != 0 {
		return false, fmt.Errorf("%s: unaligned base %#x", i.Op, base)
	}
	var start, wb uint32
	switch {
	case i.Up && !i.Pre: // IA
		start, wb = base, base+4*n
	case i.Up && i.Pre: // IB
		start, wb = base+4, base+4*n
	case !i.Up && !i.Pre: // DA
		start, wb = base-4*n+4, base-4*n
	default: // DB
		start, wb = base-4*n, base-4*n
	}
	if !c.inMem(start, 4*n) {
		return false, c.errMem(i.Op, start, 4*n)
	}
	addr := start
	for r := 0; r < 16; r++ {
		if i.RegList&(1<<r) == 0 {
			continue
		}
		if i.Op == LDM {
			c.R[r] = c.Mem.Read32(addr)
			if r == PC {
				branched = true
			}
		} else {
			c.Mem.Write32(addr, c.R[r])
		}
		addr += 4
	}
	if i.Writeback {
		// A loaded base wins over writeback (LDM); a stored base was
		// stored with its original value (we stored before updating).
		if !(i.Op == LDM && i.RegList&(1<<i.Rn) != 0) {
			c.R[i.Rn] = wb
		}
	}
	return branched, nil
}
