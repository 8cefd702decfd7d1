package arm

import "fmt"

// Memory is the byte-addressed memory the CPU executes against. Word
// accesses must be 4-byte aligned; the executor reports unaligned
// accesses as errors rather than emulating ARM's rotation behaviour.
type Memory interface {
	Read32(addr uint32) uint32
	Write32(addr uint32, v uint32)
	Read16(addr uint32) uint16
	Write16(addr uint32, v uint16)
	Read8(addr uint32) byte
	Write8(addr uint32, v byte)
}

// CPU is the architectural state of the functional (instruction-set)
// simulator: the "existing ISS" both micro-architecture case studies
// are based on. Micro-architecture models own the timing; they invoke
// the CPU's decode/execute machinery from their OSM edge actions.
type CPU struct {
	// R holds the sixteen general registers; R[15] is the PC.
	R [16]uint32
	// N, Z, C, V are the CPSR condition flags.
	N, Z, C, V bool
	// Mem is the memory image the CPU runs against.
	Mem Memory
	// MemSize, if non-zero, is the size of Mem: a fetch, load or store
	// that reaches past it fails with an error naming the address, the
	// width and the size, and leaves the CPU and Mem untouched.
	MemSize uint32
	// SWIHandler, if non-nil, is invoked for SWI instructions with
	// the 24-bit comment field; a nil handler makes SWI an error.
	SWIHandler func(c *CPU, num uint32) error
	// Halted stops Step; the standard syscall emulation sets it on
	// exit.
	Halted bool
	// ExitCode records the program's exit status once Halted.
	ExitCode uint32
	// Executed counts completed (condition-passed or failed)
	// instructions.
	Executed uint64
}

// PC returns the current program counter.
func (c *CPU) PC() uint32 { return c.R[PC] }

// SetPC sets the program counter.
func (c *CPU) SetPC(v uint32) { c.R[PC] = v }

// Flags packs the CPSR condition flags into NZCV bit order (bit 3 =
// N ... bit 0 = V), convenient for the micro-architecture models'
// flag-register token.
func (c *CPU) Flags() uint32 {
	var f uint32
	if c.N {
		f |= 8
	}
	if c.Z {
		f |= 4
	}
	if c.C {
		f |= 2
	}
	if c.V {
		f |= 1
	}
	return f
}

// SetFlagsWord unpacks Flags().
func (c *CPU) SetFlagsWord(f uint32) {
	c.N = f&8 != 0
	c.Z = f&4 != 0
	c.C = f&2 != 0
	c.V = f&1 != 0
}

// Step fetches, decodes and executes one instruction, advancing the
// PC. It reports the decoded instruction for tracing.
func (c *CPU) Step() (Instr, error) {
	if c.Halted {
		return Instr{}, fmt.Errorf("arm: step on halted CPU")
	}
	pc := c.R[PC]
	if pc%4 != 0 {
		return Instr{}, fmt.Errorf("arm: unaligned PC %#x", pc)
	}
	if !c.inMem(pc, 4) {
		return Instr{}, fmt.Errorf("arm: PC %#x beyond the %#x-byte memory", pc, c.MemSize)
	}
	ins, err := Decode(c.Mem.Read32(pc))
	if err != nil {
		return ins, fmt.Errorf("arm: at %#x: %w", pc, err)
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
// instruction at the current PC. Callers (the iss package's Step and
// StepFetched) are responsible for ins being the decode of the word at
// the PC; the halted and alignment checks of Step still apply.
func (c *CPU) StepDecoded(ins Instr) error {
	pc := c.R[PC]
	branched, err := c.Exec(ins)
	if err != nil {
		return fmt.Errorf("arm: at %#x: %w", pc, err)
	}
	if !branched {
		c.R[PC] = pc + 4
	}
	c.Executed++
	return nil
}

// Run steps until the CPU halts or limit instructions have executed;
// it reports the number of instructions executed.
func (c *CPU) Run(limit uint64) (uint64, error) {
	start := c.Executed
	for !c.Halted && c.Executed-start < limit {
		if _, err := c.Step(); err != nil {
			return c.Executed - start, err
		}
	}
	return c.Executed - start, nil
}
