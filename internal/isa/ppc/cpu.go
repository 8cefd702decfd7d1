package ppc

import (
	"fmt"
	"math/bits"
)

// Memory is the byte-addressed memory the CPU executes against. Word
// accesses must be 4-byte aligned.
type Memory interface {
	Read32(addr uint32) uint32
	Write32(addr uint32, v uint32)
	Read16(addr uint32) uint16
	Write16(addr uint32, v uint16)
	Read8(addr uint32) byte
	Write8(addr uint32, v byte)
}

// CPU is the architectural state of the PowerPC functional simulator.
type CPU struct {
	// R holds the 32 general-purpose registers.
	R [32]uint32
	// CR is the condition register; bit 31 is CR field 0 bit LT
	// (PowerPC numbers bits from the most significant side).
	CR uint32
	// LR and CTR are the link and count registers.
	LR, CTR uint32
	// XER is architectural state that snapshots and the register
	// view carry; no instruction of the subset reads or writes it.
	XER uint32
	// NextPC is the program counter of the next instruction.
	NextPC uint32
	// Mem is the memory image.
	Mem Memory
	// MemSize, if non-zero, is the size of Mem: a fetch, load or store
	// that reaches past it fails with an error naming the address, the
	// width and the size, and leaves the registers and Mem untouched.
	MemSize uint32
	// SCHandler, if non-nil, is invoked for SC instructions. PowerPC
	// convention: r0 holds the call number, r3.. the arguments.
	SCHandler func(c *CPU) error
	// Halted stops Step.
	Halted bool
	// ExitCode records the program's exit status once Halted.
	ExitCode uint32
	// Executed counts completed instructions.
	Executed uint64
}

// CRField returns the 4-bit condition field n (0..7) as LT<<3|GT<<2|
// EQ<<1|SO.
func (c *CPU) CRField(n int) uint32 { return c.CR >> uint(28-4*n) & 0xf }

// SetCRField stores a 4-bit value into condition field n.
func (c *CPU) SetCRField(n int, v uint32) {
	sh := uint(28 - 4*n)
	c.CR = c.CR&^(0xf<<sh) | (v&0xf)<<sh
}

// CRBit returns condition register bit i (0 = most significant).
func (c *CPU) CRBit(i int) bool { return c.CR>>(31-uint(i))&1 != 0 }

// setCR0 records a signed comparison of v against zero into CR0.
func (c *CPU) setCR0(v uint32) {
	var f uint32
	switch {
	case int32(v) < 0:
		f = 8
	case int32(v) > 0:
		f = 4
	default:
		f = 2
	}
	c.SetCRField(0, f) // SO not modeled
}

// Step fetches, decodes and executes one instruction.
func (c *CPU) Step() (Instr, error) {
	if c.Halted {
		return Instr{}, fmt.Errorf("ppc: step on halted CPU")
	}
	pc := c.NextPC
	if pc%4 != 0 {
		return Instr{}, fmt.Errorf("ppc: unaligned PC %#x", pc)
	}
	if !c.inMem(pc, 4) {
		return Instr{}, fmt.Errorf("ppc: PC %#x beyond the %#x-byte memory", pc, c.MemSize)
	}
	ins, err := Decode(c.Mem.Read32(pc))
	if err != nil {
		return ins, fmt.Errorf("ppc: at %#x: %w", pc, err)
	}
	return ins, c.StepDecoded(ins)
}

// inMem reports whether the n bytes at addr lie inside MemSize. The
// sum is taken in 64 bits, so an access near 2^32 cannot wrap around
// the check.
func (c *CPU) inMem(addr, n uint32) bool {
	return c.MemSize == 0 || uint64(addr)+uint64(n) <= uint64(c.MemSize)
}

// errMem is the error of an access inMem refused. It is kept out of
// line so that the executor's hot path does not carry the formatting.
//
//go:noinline
func (c *CPU) errMem(op Op, addr, n uint32) error {
	return fmt.Errorf("%s: access at %#x+%d beyond the %#x-byte memory", op, addr, n, c.MemSize)
}

// StepDecoded executes one already-decoded instruction as the
// instruction at NextPC. Callers (the iss package's Step and
// StepFetched) are responsible for ins being the decode of the word at
// NextPC; the halted and alignment checks of Step still apply.
func (c *CPU) StepDecoded(ins Instr) error {
	pc := c.NextPC
	c.NextPC = pc + 4
	if err := c.Exec(ins, pc); err != nil {
		return fmt.Errorf("ppc: at %#x: %w", pc, err)
	}
	c.Executed++
	return nil
}

// Run steps until the CPU halts or limit instructions have executed.
func (c *CPU) Run(limit uint64) (uint64, error) {
	start := c.Executed
	for !c.Halted && c.Executed-start < limit {
		if _, err := c.Step(); err != nil {
			return c.Executed - start, err
		}
	}
	return c.Executed - start, nil
}

// regOrZero implements the RA=0 → literal 0 rule of D-form addressing.
func (c *CPU) regOrZero(ins *Instr) uint32 {
	if ins.RA == 0 && ins.raZero() {
		return 0
	}
	return c.R[ins.RA]
}

// BranchTaken evaluates the BO/BI condition against the current CR
// and CTR without side effects (the micro-architecture models use it
// for branch resolution); decrement reports whether executing the
// branch would decrement CTR.
func (c *CPU) BranchTaken(ins *Instr) (taken, decrement bool) {
	bo := ins.BO
	ctrOK := true
	if bo&0x4 == 0 {
		decrement = true
		ctr := c.CTR - 1
		ctrOK = (ctr != 0) == (bo&0x2 == 0)
	}
	condOK := true
	if bo&0x10 == 0 {
		condOK = c.CRBit(ins.BI) == (bo&0x8 != 0)
	}
	return ctrOK && condOK, decrement
}

// Exec executes a decoded instruction located at pc. The caller must
// have set NextPC to pc+4; branches overwrite it.
func (c *CPU) Exec(ins Instr, pc uint32) error {
	switch ins.Op {
	case ADDI:
		c.R[ins.RT] = c.regOrZero(&ins) + uint32(ins.SI)
	case ADDIS:
		c.R[ins.RT] = c.regOrZero(&ins) + uint32(ins.SI)<<16
	case ADD:
		c.R[ins.RT] = c.R[ins.RA] + c.R[ins.RB]
	case SUBF:
		c.R[ins.RT] = c.R[ins.RB] - c.R[ins.RA]
	case NEG:
		c.R[ins.RT] = -c.R[ins.RA]
	case MULLW:
		c.R[ins.RT] = c.R[ins.RA] * c.R[ins.RB]
	case MULLI:
		c.R[ins.RT] = c.R[ins.RA] * uint32(ins.SI)
	case DIVW:
		den := int32(c.R[ins.RB])
		num := int32(c.R[ins.RA])
		if den == 0 || (num == -1<<31 && den == -1) {
			c.R[ins.RT] = 0 // architecturally undefined; pick 0
		} else {
			c.R[ins.RT] = uint32(num / den)
		}
	case DIVWU:
		if c.R[ins.RB] == 0 {
			c.R[ins.RT] = 0
		} else {
			c.R[ins.RT] = c.R[ins.RA] / c.R[ins.RB]
		}
	case AND:
		c.R[ins.RA] = c.R[ins.RT] & c.R[ins.RB]
	case OR:
		c.R[ins.RA] = c.R[ins.RT] | c.R[ins.RB]
	case XOR:
		c.R[ins.RA] = c.R[ins.RT] ^ c.R[ins.RB]
	case ANDI:
		c.R[ins.RA] = c.R[ins.RT] & ins.UI
	case ORI:
		c.R[ins.RA] = c.R[ins.RT] | ins.UI
	case ORIS:
		c.R[ins.RA] = c.R[ins.RT] | ins.UI<<16
	case XORI:
		c.R[ins.RA] = c.R[ins.RT] ^ ins.UI
	case RLWINM:
		mask := maskMBME(ins.MB, ins.ME)
		c.R[ins.RA] = bits.RotateLeft32(c.R[ins.RT], ins.SH) & mask
	case SLW:
		sh := c.R[ins.RB] & 0x3f
		if sh > 31 {
			c.R[ins.RA] = 0
		} else {
			c.R[ins.RA] = c.R[ins.RT] << sh
		}
	case SRW:
		sh := c.R[ins.RB] & 0x3f
		if sh > 31 {
			c.R[ins.RA] = 0
		} else {
			c.R[ins.RA] = c.R[ins.RT] >> sh
		}
	case SRAW:
		sh := c.R[ins.RB] & 0x3f
		if sh > 31 {
			sh = 31
		}
		c.R[ins.RA] = uint32(int32(c.R[ins.RT]) >> sh)
	case SRAWI:
		c.R[ins.RA] = uint32(int32(c.R[ins.RT]) >> uint(ins.SH))
	case EXTSB:
		c.R[ins.RA] = uint32(int32(int8(c.R[ins.RT])))
	case EXTSH:
		c.R[ins.RA] = uint32(int32(int16(c.R[ins.RT])))
	case CMP, CMPI:
		var a, b int32
		a = int32(c.R[ins.RA])
		if ins.Op == CMP {
			b = int32(c.R[ins.RB])
		} else {
			b = ins.SI
		}
		c.SetCRField(ins.CRF, cmpBits(a < b, a > b, a == b))
	case CMPL, CMPLI:
		a := c.R[ins.RA]
		var b uint32
		if ins.Op == CMPL {
			b = c.R[ins.RB]
		} else {
			b = ins.UI
		}
		c.SetCRField(ins.CRF, cmpBits(a < b, a > b, a == b))
	case LWZ, LWZU, LBZ, LHZ, LHA, LWZX, LBZX, LHZX, LHAX:
		addr := c.regOrZero(&ins)
		switch ins.Op {
		case LWZ, LWZU, LBZ, LHZ, LHA:
			if ins.Op == LWZU {
				addr = c.R[ins.RA]
			}
			addr += uint32(ins.SI)
		default:
			addr += c.R[ins.RB]
		}
		switch ins.Op {
		case LBZ, LBZX:
			if !c.inMem(addr, 1) {
				return c.errMem(ins.Op, addr, 1)
			}
			c.R[ins.RT] = uint32(c.Mem.Read8(addr))
		case LHZ, LHZX, LHA, LHAX:
			if addr%2 != 0 {
				return fmt.Errorf("%s: unaligned halfword access at %#x", ins.Op, addr)
			}
			if !c.inMem(addr, 2) {
				return c.errMem(ins.Op, addr, 2)
			}
			v := uint32(c.Mem.Read16(addr))
			if ins.Op == LHA || ins.Op == LHAX {
				v = uint32(int32(int16(v)))
			}
			c.R[ins.RT] = v
		default:
			if addr%4 != 0 {
				return fmt.Errorf("%s: unaligned word access at %#x", ins.Op, addr)
			}
			if !c.inMem(addr, 4) {
				return c.errMem(ins.Op, addr, 4)
			}
			c.R[ins.RT] = c.Mem.Read32(addr)
		}
		if ins.Op == LWZU {
			c.R[ins.RA] = addr
		}
	case STW, STWU, STB, STH, STWX, STBX, STHX:
		addr := c.regOrZero(&ins)
		switch ins.Op {
		case STW, STWU, STB, STH:
			if ins.Op == STWU {
				addr = c.R[ins.RA]
			}
			addr += uint32(ins.SI)
		default:
			addr += c.R[ins.RB]
		}
		switch ins.Op {
		case STB, STBX:
			if !c.inMem(addr, 1) {
				return c.errMem(ins.Op, addr, 1)
			}
			c.Mem.Write8(addr, byte(c.R[ins.RT]))
		case STH, STHX:
			if addr%2 != 0 {
				return fmt.Errorf("%s: unaligned halfword access at %#x", ins.Op, addr)
			}
			if !c.inMem(addr, 2) {
				return c.errMem(ins.Op, addr, 2)
			}
			c.Mem.Write16(addr, uint16(c.R[ins.RT]))
		default:
			if addr%4 != 0 {
				return fmt.Errorf("%s: unaligned word access at %#x", ins.Op, addr)
			}
			if !c.inMem(addr, 4) {
				return c.errMem(ins.Op, addr, 4)
			}
			c.Mem.Write32(addr, c.R[ins.RT])
		}
		if ins.Op == STWU {
			c.R[ins.RA] = addr
		}
	case B:
		if ins.LK {
			c.LR = pc + 4
		}
		if ins.AA {
			c.NextPC = uint32(ins.LI)
		} else {
			c.NextPC = uint32(int64(pc) + int64(ins.LI))
		}
	case BC, BCLR, BCCTR:
		taken, dec := c.BranchTaken(&ins)
		if dec {
			c.CTR--
		}
		target := c.NextPC
		if taken {
			switch ins.Op {
			case BC:
				if ins.AA {
					target = uint32(ins.BD)
				} else {
					target = uint32(int64(pc) + int64(ins.BD))
				}
			case BCLR:
				target = c.LR &^ 3
			case BCCTR:
				target = c.CTR &^ 3
			}
		}
		if ins.LK {
			c.LR = pc + 4
		}
		c.NextPC = target
	case MFSPR:
		switch ins.SPR {
		case SPRLR:
			c.R[ins.RT] = c.LR
		case SPRCTR:
			c.R[ins.RT] = c.CTR
		}
	case MTSPR:
		switch ins.SPR {
		case SPRLR:
			c.LR = c.R[ins.RT]
		case SPRCTR:
			c.CTR = c.R[ins.RT]
		}
	case SC:
		if c.SCHandler == nil {
			return fmt.Errorf("sc with no handler")
		}
		if err := c.SCHandler(c); err != nil {
			return err
		}
	default:
		return fmt.Errorf("exec: unhandled op %s", ins.Op)
	}

	if ins.Rc || ins.Op == ANDI {
		var v uint32
		switch ins.Op {
		case AND, OR, XOR, ANDI, ORI, ORIS, XORI, RLWINM, SLW, SRW, SRAW, SRAWI, EXTSB, EXTSH:
			v = c.R[ins.RA]
		default:
			v = c.R[ins.RT]
		}
		c.setCR0(v)
	}
	return nil
}

// maskMBME builds the rlwinm mask with bits MB..ME set (PowerPC
// big-endian bit numbering: bit 0 is the MSB). A wrapped mask
// (MB > ME) sets the complement range.
func maskMBME(mb, me int) uint32 {
	start := uint32(0xffffffff) >> uint(mb)
	end := uint32(0xffffffff) << uint(31-me)
	if mb <= me {
		return start & end
	}
	return start | end
}

func cmpBits(lt, gt, eq bool) uint32 {
	switch {
	case lt:
		return 8
	case gt:
		return 4
	case eq:
		return 2
	}
	return 0
}
