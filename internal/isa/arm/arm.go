// Package arm implements a faithful subset of the ARM (ARMv4,
// user-mode, 32-bit) instruction set: the substrate the paper's
// StrongARM case study simulates. It provides binary encodings, a
// decoder, an executor, a two-pass assembler and a disassembler.
//
// The subset covers the instruction classes that drive pipeline
// behaviour — data processing with the barrel shifter and condition
// codes, multiply/multiply-accumulate, single and block data
// transfers, branches with link, and SWI for system calls — which is
// what the operation state machines of the micro-architecture models
// consume: operation classes, source/destination registers and
// memory-access behaviour.
package arm

import "fmt"

// Register aliases. R15 is the program counter, R14 the link
// register, R13 the stack pointer by convention.
const (
	SP = 13
	LR = 14
	PC = 15
)

// Cond is the 4-bit condition field present on every ARM instruction.
type Cond uint8

// Condition codes.
const (
	EQ Cond = iota // Z set
	NE             // Z clear
	CS             // C set
	CC             // C clear
	MI             // N set
	PL             // N clear
	VS             // V set
	VC             // V clear
	HI             // C set and Z clear
	LS             // C clear or Z set
	GE             // N == V
	LT             // N != V
	GT             // Z clear and N == V
	LE             // Z set or N != V
	AL             // always
	NV             // never (reserved)
)

var condNames = [...]string{"eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc",
	"hi", "ls", "ge", "lt", "gt", "le", "", "nv"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond%d", uint8(c))
}

// Passed evaluates the condition against the current flags.
func (c Cond) Passed(n, z, cf, v bool) bool {
	switch c {
	case EQ:
		return z
	case NE:
		return !z
	case CS:
		return cf
	case CC:
		return !cf
	case MI:
		return n
	case PL:
		return !n
	case VS:
		return v
	case VC:
		return !v
	case HI:
		return cf && !z
	case LS:
		return !cf || z
	case GE:
		return n == v
	case LT:
		return n != v
	case GT:
		return !z && n == v
	case LE:
		return z || n != v
	case AL:
		return true
	}
	return false
}

// Op enumerates the decoded operations of the subset.
type Op uint8

// Data-processing opcodes keep their 4-bit ARM encodings (0-15);
// the remaining operations follow.
const (
	AND Op = iota
	EOR
	SUB
	RSB
	ADD
	ADC
	SBC
	RSC
	TST
	TEQ
	CMP
	CMN
	ORR
	MOV
	BIC
	MVN
	MUL
	MLA
	LDR
	STR
	LDRH
	STRH
	LDRSB
	LDRSH
	LDM
	STM
	B
	BL
	SWI
)

var opNames = [...]string{"and", "eor", "sub", "rsb", "add", "adc", "sbc", "rsc",
	"tst", "teq", "cmp", "cmn", "orr", "mov", "bic", "mvn",
	"mul", "mla", "ldr", "str", "ldrh", "strh", "ldrsb", "ldrsh",
	"ldm", "stm", "b", "bl", "swi"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Shift enumerates the barrel-shifter operations.
type Shift uint8

// Barrel shifter kinds, in their 2-bit encodings.
const (
	LSL Shift = iota
	LSR
	ASR
	ROR
)

var shiftNames = [...]string{"lsl", "lsr", "asr", "ror"}

func (s Shift) String() string { return shiftNames[s&3] }

// Class partitions operations by the pipeline resources they use; the
// micro-architecture models route operations by class.
type Class uint8

// Operation classes.
const (
	ClassALU Class = iota
	ClassMul
	ClassLoad
	ClassStore
	ClassBranch
	ClassSWI
)

var classNames = [...]string{"alu", "mul", "load", "store", "branch", "swi"}

func (c Class) String() string { return classNames[c] }

// Instr is a decoded instruction.
type Instr struct {
	// Raw is the 32-bit encoding the instruction was decoded from
	// (zero for hand-built instructions that were never encoded).
	Raw uint32
	// Cond gates execution on the CPSR flags.
	Cond Cond
	// Op is the operation.
	Op Op
	// Rd, Rn, Rm, Rs are register operands; unused ones are zero.
	// For MUL/MLA, Rd = destination, Rm and Rs are the factors and Rn
	// the accumulator.
	Rd, Rn, Rm, Rs int
	// HasImm selects the immediate form of operand 2 (data
	// processing) or the immediate offset (memory). Imm holds the
	// already-decoded value.
	HasImm bool
	Imm    uint32
	// Shift applies to Rm when HasImm is false. HasShiftReg selects a
	// register-specified shift amount in Rs.
	Shift       Shift
	ShiftAmt    int
	HasShiftReg bool
	// SetFlags is the S bit.
	SetFlags bool
	// Memory-access bits: Pre selects pre-indexing, Up addition of
	// the offset, Writeback updates Rn, Byte selects byte width.
	Pre, Up, Writeback, Byte bool
	// RegList is the LDM/STM register mask.
	RegList uint16
	// Offset is the sign-extended branch offset in bytes (already
	// shifted left 2).
	Offset int32
}

// Class reports the operation's pipeline class.
func (i *Instr) Class() Class {
	switch i.Op {
	case MUL, MLA:
		return ClassMul
	case LDR, LDRH, LDRSB, LDRSH, LDM:
		return ClassLoad
	case STR, STRH, STM:
		return ClassStore
	case B, BL:
		return ClassBranch
	case SWI:
		return ClassSWI
	default:
		return ClassALU
	}
}

// IsBranch reports whether the instruction may redirect the PC: an
// explicit branch or any operation with Rd == PC.
func (i *Instr) IsBranch() bool {
	if i.Op == B || i.Op == BL {
		return true
	}
	switch i.Op {
	case TST, TEQ, CMP, CMN, STR, STRH, STM, SWI:
		return false
	case LDM:
		return i.RegList&(1<<PC) != 0
	case LDR:
		return i.Rd == PC
	default:
		return i.Rd == PC
	}
}

// SrcRegs returns the architectural source registers, in a fixed
// order without duplicates. The micro-architecture models use it to
// build operand-inquiry token identifiers.
func (i *Instr) SrcRegs() []int {
	var out []int
	add := func(r int) {
		for _, x := range out {
			if x == r {
				return
			}
		}
		out = append(out, r)
	}
	switch i.Op {
	case MOV, MVN:
		if !i.HasImm {
			add(i.Rm)
		}
	case MUL:
		add(i.Rm)
		add(i.Rs)
	case MLA:
		add(i.Rm)
		add(i.Rs)
		add(i.Rn)
	case LDR, LDRH, LDRSB, LDRSH:
		add(i.Rn)
		if !i.HasImm {
			add(i.Rm)
		}
	case STR, STRH:
		add(i.Rn)
		add(i.Rd)
		if !i.HasImm {
			add(i.Rm)
		}
	case LDM:
		add(i.Rn)
	case STM:
		add(i.Rn)
		for r := 0; r < 16; r++ {
			if i.RegList&(1<<r) != 0 {
				add(r)
			}
		}
	case B, BL, SWI:
		// none
	default: // data processing
		add(i.Rn)
		if !i.HasImm {
			add(i.Rm)
		}
	}
	if !i.HasImm && i.HasShiftReg {
		switch i.Op {
		case MUL, MLA, LDR, STR, LDM, STM, B, BL, SWI:
		default:
			add(i.Rs)
		}
	}
	return out
}

// DstRegs returns the architectural destination registers.
func (i *Instr) DstRegs() []int {
	var out []int
	switch i.Op {
	case TST, TEQ, CMP, CMN, B, SWI:
		return nil
	case BL:
		return []int{LR}
	case MUL, MLA:
		return []int{i.Rd}
	case LDR, LDRH, LDRSB, LDRSH:
		out = append(out, i.Rd)
		if i.Writeback || !i.Pre {
			out = append(out, i.Rn)
		}
	case STR, STRH:
		if i.Writeback || !i.Pre {
			out = append(out, i.Rn)
		}
	case LDM:
		for r := 0; r < 16; r++ {
			if i.RegList&(1<<r) != 0 {
				out = append(out, r)
			}
		}
		if i.Writeback {
			out = append(out, i.Rn)
		}
	case STM:
		if i.Writeback {
			out = append(out, i.Rn)
		}
	default:
		out = append(out, i.Rd)
	}
	return out
}

// WritesFlags reports whether the instruction updates the CPSR flags.
func (i *Instr) WritesFlags() bool {
	switch i.Op {
	case TST, TEQ, CMP, CMN:
		return true
	default:
		return i.SetFlags
	}
}

// ReadsFlags reports whether execution depends on the CPSR flags
// beyond the condition field: the carry-in of ADC, SBC and RSC, and
// an RRX operand (ROR #0 of Rm), which shifts C into the value.
func (i *Instr) ReadsFlags() bool {
	switch i.Op {
	case ADC, SBC, RSC:
		return true
	}
	return i.Cond != AL || i.rrx()
}

// rrx reports whether operand 2 or the memory offset is an RRX of Rm.
func (i *Instr) rrx() bool {
	switch i.Op {
	case MUL, MLA, LDRH, STRH, LDRSB, LDRSH, LDM, STM, B, BL, SWI:
		return false
	}
	return !i.HasImm && !i.HasShiftReg && i.Shift == ROR && i.ShiftAmt == 0
}
