// Package iss provides the instruction-set simulators that the
// micro-architecture case studies are built on, mirroring the paper's
// "we based both models on existing ISSs, which are capable of
// simulating user-level ELF binaries". An ISS owns the architectural
// state, the RAM image and the system-call emulation; it can run
// standalone (functional simulation) or be driven instruction-by-
// instruction by a timing model.
package iss

import (
	"fmt"
	"io"

	"repro/internal/isa/arm"
	"repro/internal/isa/ppc"
	"repro/internal/loader"
	"repro/internal/mem"
)

// Stats counts functional-simulation events.
type Stats struct {
	Instrs   uint64
	Loads    uint64
	Stores   uint64
	Branches uint64
	Mults    uint64
	Syscalls uint64
}

// System-call numbers shared by both targets' emulation (the ARM
// target passes them in the SWI comment field, the PowerPC target in
// r0).
const (
	SysExit     = 0 // ARM swi #0: exit(r0)
	SysPutc     = 1 // ARM swi #1: write byte r0
	SysPutUint  = 2 // ARM swi #2: write decimal r0 + newline
	SysReport   = 3 // ARM swi #3: record r0 in Reported
	SysExitPPC  = 1 // PPC sc r0=1: exit(r3)
	SysPutcPPC  = 4 // PPC sc r0=4: write byte r3
	SysPrintPPC = 5 // PPC sc r0=5: write decimal r3 + newline
	SysRepPPC   = 6 // PPC sc r0=6: record r3 in Reported
)

// ARM is an ARM instruction-set simulator instance.
type ARM struct {
	// CPU is the architectural state.
	CPU *arm.CPU
	// RAM is the memory image.
	RAM *mem.RAM
	// Out receives console bytes from the putc/putuint system calls.
	Out io.Writer
	// Reported collects values the program reported via swi #3, the
	// workloads' self-check channel.
	Reported []uint32
	// Trace, if non-nil, observes every executed instruction with its
	// address (before the PC advanced).
	Trace func(pc uint32, ins arm.Instr)
	// Stats counts events.
	Stats Stats

	// dcache serves Step's decodes. It is sized to the program's
	// words but allocated on the first Step: a timing model that
	// decodes at fetch and executes through StepFetched never needs
	// it.
	dcache decodeCache[arm.Instr]
	words  int
}

// NewARM builds an ARM ISS for the program with ramKB kibibytes of
// memory and the stack pointer at the top.
func NewARM(p *arm.Program, ramKB int) (*ARM, error) {
	ram := mem.NewRAM(uint32(ramKB)<<10, mem.LittleEndian)
	if !ram.InBounds(p.Org, p.Size()) {
		return nil, fmt.Errorf("iss: program (%d bytes at %#x) exceeds %d KiB RAM", p.Size(), p.Org, ramKB)
	}
	ram.LoadWords(p.Org, p.Words)
	s := &ARM{RAM: ram, Out: io.Discard, words: len(p.Words)}
	s.CPU = &arm.CPU{Mem: ram, MemSize: ram.Size()}
	s.CPU.R[arm.SP] = ram.Size() - 16
	s.CPU.SetPC(p.Entry)
	s.CPU.SWIHandler = s.swi
	return s, nil
}

// NewARMFromImage builds an ARM ISS from a loader image.
func NewARMFromImage(im *loader.Image, ramKB int) (*ARM, error) {
	if im.Arch != loader.ArchARM {
		return nil, fmt.Errorf("iss: image architecture is %s, want arm", im.Arch)
	}
	return NewARM(&arm.Program{Org: im.Org, Words: im.Words, Entry: im.Entry}, ramKB)
}

func (s *ARM) swi(c *arm.CPU, num uint32) error {
	s.Stats.Syscalls++
	switch num {
	case SysExit:
		c.Halted = true
		c.ExitCode = c.R[0]
	case SysPutc:
		fmt.Fprintf(s.Out, "%c", byte(c.R[0]))
	case SysPutUint:
		fmt.Fprintf(s.Out, "%d\n", c.R[0])
	case SysReport:
		s.Reported = append(s.Reported, c.R[0])
	default:
		return fmt.Errorf("iss: unknown ARM syscall %d", num)
	}
	return nil
}

// Step executes one instruction, updating statistics. Decodes are
// served from a direct-mapped cache validated against the raw
// instruction word (see decodeCache).
func (s *ARM) Step() (arm.Instr, error) {
	pc, word, err := s.fetch()
	if err != nil {
		return arm.Instr{}, err
	}
	if s.dcache.lines == nil {
		s.dcache = newDecodeCache[arm.Instr](s.words)
	}
	ins, hit := s.dcache.lookup(pc, word)
	if !hit {
		if ins, err = arm.Decode(word); err != nil {
			return ins, fmt.Errorf("arm: at %#x: %w", pc, err)
		}
		s.dcache.insert(pc, word, ins)
	}
	return ins, s.exec(pc, &ins)
}

// StepFetched executes one instruction like Step, given the decoding a
// timing model made of the word when it fetched it from the PC. That
// decoding runs when RAM still holds ins.Raw at the PC; otherwise the
// current word is decoded afresh, exactly as Step would. The decode
// cache is neither read nor filled.
func (s *ARM) StepFetched(ins *arm.Instr) error {
	pc, word, err := s.fetch()
	if err != nil {
		return err
	}
	if word != ins.Raw {
		cur, err := arm.Decode(word)
		if err != nil {
			return fmt.Errorf("arm: at %#x: %w", pc, err)
		}
		ins = &cur
	}
	return s.exec(pc, ins)
}

// fetch reads the instruction word at the PC of a running CPU.
func (s *ARM) fetch() (pc, word uint32, err error) {
	c := s.CPU
	if c.Halted {
		return 0, 0, fmt.Errorf("arm: step on halted CPU")
	}
	pc = c.PC()
	if pc%4 != 0 {
		return 0, 0, fmt.Errorf("arm: unaligned PC %#x", pc)
	}
	if !s.RAM.InBounds(pc, 4) {
		return 0, 0, errFetch("arm", pc, s.RAM)
	}
	return pc, c.Mem.Read32(pc), nil
}

// errFetch is the error of a fetch from beyond the RAM image. It is
// kept out of line so that fetch, on every instruction's path, does not
// carry the formatting.
//
//go:noinline
func errFetch(isa string, pc uint32, ram *mem.RAM) error {
	return fmt.Errorf("%s: PC %#x beyond the %#x-byte RAM image", isa, pc, ram.Size())
}

// exec runs the instruction fetched from pc and counts it.
func (s *ARM) exec(pc uint32, ins *arm.Instr) error {
	if err := s.CPU.StepDecoded(*ins); err != nil {
		return err
	}
	if s.Trace != nil {
		s.Trace(pc, *ins)
	}
	s.count(ins.Class())
	return nil
}

// Run executes until halt or the instruction limit.
func (s *ARM) Run(limit uint64) error {
	for !s.CPU.Halted && s.Stats.Instrs < limit {
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	if !s.CPU.Halted {
		return fmt.Errorf("iss: ARM program exceeded %d instructions", limit)
	}
	return nil
}

func (s *ARM) count(class arm.Class) {
	s.Stats.Instrs++
	switch class {
	case arm.ClassLoad:
		s.Stats.Loads++
	case arm.ClassStore:
		s.Stats.Stores++
	case arm.ClassBranch:
		s.Stats.Branches++
	case arm.ClassMul:
		s.Stats.Mults++
	}
}

// PPC is a PowerPC instruction-set simulator instance.
type PPC struct {
	// CPU is the architectural state.
	CPU *ppc.CPU
	// RAM is the memory image.
	RAM *mem.RAM
	// Out receives console bytes.
	Out io.Writer
	// Reported collects values the program reported via sc r0=6.
	Reported []uint32
	// Trace, if non-nil, observes every executed instruction with its
	// address.
	Trace func(pc uint32, ins ppc.Instr)
	// Stats counts events.
	Stats Stats

	// dcache serves Step's decodes, allocated on the first Step (see
	// ARM).
	dcache decodeCache[ppc.Instr]
	words  int
}

// NewPPC builds a PowerPC ISS for the program with ramKB kibibytes of
// memory, r1 (the stack pointer) at the top.
func NewPPC(p *ppc.Program, ramKB int) (*PPC, error) {
	ram := mem.NewRAM(uint32(ramKB)<<10, mem.BigEndian)
	if !ram.InBounds(p.Org, p.Size()) {
		return nil, fmt.Errorf("iss: program (%d bytes at %#x) exceeds %d KiB RAM", p.Size(), p.Org, ramKB)
	}
	ram.LoadWords(p.Org, p.Words)
	s := &PPC{RAM: ram, Out: io.Discard, words: len(p.Words)}
	s.CPU = &ppc.CPU{Mem: ram, MemSize: ram.Size()}
	s.CPU.R[1] = ram.Size() - 16
	s.CPU.NextPC = p.Entry
	s.CPU.SCHandler = s.sc
	return s, nil
}

// NewPPCFromImage builds a PowerPC ISS from a loader image.
func NewPPCFromImage(im *loader.Image, ramKB int) (*PPC, error) {
	if im.Arch != loader.ArchPPC {
		return nil, fmt.Errorf("iss: image architecture is %s, want ppc", im.Arch)
	}
	return NewPPC(&ppc.Program{Org: im.Org, Words: im.Words, Entry: im.Entry}, ramKB)
}

func (s *PPC) sc(c *ppc.CPU) error {
	s.Stats.Syscalls++
	switch c.R[0] {
	case SysExitPPC:
		c.Halted = true
		c.ExitCode = c.R[3]
	case SysPutcPPC:
		fmt.Fprintf(s.Out, "%c", byte(c.R[3]))
	case SysPrintPPC:
		fmt.Fprintf(s.Out, "%d\n", c.R[3])
	case SysRepPPC:
		s.Reported = append(s.Reported, c.R[3])
	default:
		return fmt.Errorf("iss: unknown PPC syscall %d", c.R[0])
	}
	return nil
}

// Step executes one instruction, updating statistics. Decodes are
// served from a direct-mapped cache validated against the raw
// instruction word (see decodeCache).
func (s *PPC) Step() (ppc.Instr, error) {
	pc, word, err := s.fetch()
	if err != nil {
		return ppc.Instr{}, err
	}
	if s.dcache.lines == nil {
		s.dcache = newDecodeCache[ppc.Instr](s.words)
	}
	ins, hit := s.dcache.lookup(pc, word)
	if !hit {
		if ins, err = ppc.Decode(word); err != nil {
			return ins, fmt.Errorf("ppc: at %#x: %w", pc, err)
		}
		s.dcache.insert(pc, word, ins)
	}
	return ins, s.exec(pc, &ins)
}

// StepFetched executes one instruction like Step, given the decoding a
// timing model made of the word when it fetched it from the PC (see
// ARM.StepFetched).
func (s *PPC) StepFetched(ins *ppc.Instr) error {
	pc, word, err := s.fetch()
	if err != nil {
		return err
	}
	if word != ins.Raw {
		cur, err := ppc.Decode(word)
		if err != nil {
			return fmt.Errorf("ppc: at %#x: %w", pc, err)
		}
		ins = &cur
	}
	return s.exec(pc, ins)
}

// fetch reads the instruction word at the PC of a running CPU.
func (s *PPC) fetch() (pc, word uint32, err error) {
	c := s.CPU
	if c.Halted {
		return 0, 0, fmt.Errorf("ppc: step on halted CPU")
	}
	pc = c.NextPC
	if pc%4 != 0 {
		return 0, 0, fmt.Errorf("ppc: unaligned PC %#x", pc)
	}
	if !s.RAM.InBounds(pc, 4) {
		return 0, 0, errFetch("ppc", pc, s.RAM)
	}
	return pc, c.Mem.Read32(pc), nil
}

// exec runs the instruction fetched from pc and counts it.
func (s *PPC) exec(pc uint32, ins *ppc.Instr) error {
	if err := s.CPU.StepDecoded(*ins); err != nil {
		return err
	}
	if s.Trace != nil {
		s.Trace(pc, *ins)
	}
	s.count(ins.Class())
	return nil
}

// Run executes until halt or the instruction limit.
func (s *PPC) Run(limit uint64) error {
	for !s.CPU.Halted && s.Stats.Instrs < limit {
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	if !s.CPU.Halted {
		return fmt.Errorf("iss: PPC program exceeded %d instructions", limit)
	}
	return nil
}

func (s *PPC) count(class ppc.Class) {
	s.Stats.Instrs++
	switch class {
	case ppc.ClassLoad:
		s.Stats.Loads++
	case ppc.ClassStore:
		s.Stats.Stores++
	case ppc.ClassBranch:
		s.Stats.Branches++
	case ppc.ClassMul:
		s.Stats.Mults++
	}
}
