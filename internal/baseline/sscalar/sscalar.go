// Package sscalar is the SimpleScalar-style baseline simulator of the
// evaluation: a hand-coded, cycle-driven ARM pipeline model in which
// the concurrency of the hardware is sequentialized by hand — pipeline
// latches processed in reverse stage order with ad-hoc hazard logic —
// exactly the modeling style the paper contrasts the OSM approach
// against.
//
// It implements the same StrongARM-like timing rules as the OSM model
// in package sim/strongarm (single issue, forwarding, one load-use
// stall cycle, 2-cycle taken-branch penalty, multiplier early
// termination, cache/TLB stalls), but as an independent
// implementation. The benchmark harness uses it in two roles: as the
// speed baseline ("SimpleScalar-ARM runs at 550k cycles/sec") and as
// the external timing oracle that stands in for the paper's iPAQ
// hardware in the Table 1 validation.
package sscalar

import (
	"fmt"

	"repro/internal/isa/arm"
	"repro/internal/iss"
	"repro/internal/mem"
)

// Config parameterizes the baseline.
type Config struct {
	// Hier sizes the memory subsystem; the zero value selects the
	// SA-1100-like defaults.
	Hier mem.HierarchyConfig
	// RAMKB sizes the memory image; the zero value selects 1024.
	RAMKB int
	// FixedMul charges the worst-case multiplier latency always.
	FixedMul bool
}

// Stats reports a finished simulation.
type Stats struct {
	Cycles    uint64
	Instrs    uint64
	ICache    mem.CacheStats
	DCache    mem.CacheStats
	Redirects uint64
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instrs)
}

// Pipeline stage indices.
const (
	stIF = iota
	stID
	stEX
	stBF
	stWB
	numStages
)

type slot struct {
	valid    bool
	pc       uint32
	ins      arm.Instr
	decodeOK bool
	busy     uint64 // remaining stall cycles in the current stage
	memLat   uint64
}

// Sim is a baseline simulator instance.
type Sim struct {
	ISS  *iss.ARM
	Hier *mem.Hierarchy

	cfg       Config
	lat       [numStages]slot
	fetchPC   uint32
	stopFetch bool
	readyAt   [16]uint64 // 15 GPRs (PC excluded) + flags
	cycles    uint64
	redirects uint64
	execErr   error
}

const flagsIdx = 15

// New builds a baseline simulator for the program.
func New(p *arm.Program, cfg Config) (*Sim, error) {
	if cfg.RAMKB == 0 {
		cfg.RAMKB = 1024
	}
	if cfg.Hier == (mem.HierarchyConfig{}) {
		cfg.Hier = mem.DefaultHierarchyConfig()
	}
	is, err := iss.NewARM(p, cfg.RAMKB)
	if err != nil {
		return nil, err
	}
	return &Sim{ISS: is, Hier: mem.NewHierarchy(cfg.Hier), cfg: cfg, fetchPC: p.Entry}, nil
}

func (s *Sim) srcsReady() bool {
	sl := &s.lat[stID]
	if !sl.decodeOK {
		return true
	}
	for _, r := range sl.ins.SrcRegs() {
		if r != arm.PC && s.cycles < s.readyAt[r] {
			return false
		}
	}
	if sl.ins.ReadsFlags() && s.cycles < s.readyAt[flagsIdx] {
		return false
	}
	return true
}

// step advances the pipeline one cycle, processing stages in reverse
// order so that results written this cycle are visible to younger
// stages — the hand-sequentialization the OSM director replaces.
func (s *Sim) step() {
	// WB: retire.
	s.lat[stWB].valid = false

	// BF -> WB.
	if b := &s.lat[stBF]; b.valid {
		if b.busy > 0 {
			b.busy--
		} else if !s.lat[stWB].valid {
			s.lat[stWB] = *b
			b.valid = false
		}
	}

	// EX -> BF.
	if e := &s.lat[stEX]; e.valid {
		if e.busy > 0 {
			e.busy--
		} else if !s.lat[stBF].valid {
			s.lat[stBF] = *e
			s.lat[stBF].busy = e.memLat
			e.valid = false
		}
	}

	redirected := false

	// ID -> EX: the issue point. Operands must be ready; execution
	// happens on entry (semantics from the shared functional core).
	if d := &s.lat[stID]; d.valid && !s.lat[stEX].valid && s.srcsReady() {
		s.lat[stEX] = *d
		d.valid = false
		redirected = s.issue(&s.lat[stEX])
	}

	// IF -> ID.
	if f := &s.lat[stIF]; f.valid {
		if f.busy > 0 {
			f.busy--
		} else if redirected {
			f.valid = false // squashed wrong-path fetch
		} else if !s.lat[stID].valid {
			s.lat[stID] = *f
			f.valid = false
		}
	}

	// Fetch.
	if !s.stopFetch && !redirected && !s.lat[stIF].valid {
		f := &s.lat[stIF]
		f.valid = true
		f.pc = s.fetchPC
		f.busy = s.Hier.FetchLatency(s.fetchPC)
		f.decodeOK = false
		if s.ISS.RAM.InBounds(s.fetchPC, 4) {
			if ins, err := arm.Decode(s.ISS.RAM.Read32(s.fetchPC)); err == nil {
				f.ins, f.decodeOK = ins, true
			}
		}
		s.fetchPC += 4
	}

	s.cycles++
}

// issue executes the operation entering EX and applies its timing
// side effects. It reports whether fetch was redirected.
func (s *Sim) issue(e *slot) bool {
	if !e.decodeOK || s.ISS.CPU.Halted {
		s.execErr = fmt.Errorf("sscalar: wrong-path operation issued at %#x", e.pc)
		s.stopFetch = true
		return true
	}
	cpu := s.ISS.CPU
	condPassed := e.ins.Cond.Passed(cpu.N, cpu.Z, cpu.C, cpu.V)
	if condPassed {
		s.deriveMemTiming(e)
	}
	expected := e.pc + 4
	s.ISS.CPU.SetPC(e.pc)
	if _, err := s.ISS.Step(); err != nil {
		s.execErr = fmt.Errorf("at %#x: %w", e.pc, err)
		s.stopFetch = true
		return true
	}

	var extra uint64
	if condPassed && e.ins.Class() == arm.ClassMul {
		extra = s.mulExtra(e)
		e.busy = extra
	}

	ready := s.cycles + 1 + extra
	if e.ins.Class() == arm.ClassLoad {
		ready = s.cycles + 2 + e.memLat
	}
	for _, dst := range e.ins.DstRegs() {
		if dst != arm.PC {
			s.readyAt[dst] = ready
		}
	}
	if e.ins.WritesFlags() {
		s.readyAt[flagsIdx] = ready
	}

	if s.ISS.CPU.Halted {
		s.stopFetch = true
		s.lat[stID].valid = false
		s.lat[stIF].valid = false
		return true
	}
	if actual := s.ISS.CPU.PC(); actual != expected {
		s.redirects++
		s.fetchPC = actual
		s.lat[stIF].valid = false
		return true
	}
	return false
}

func (s *Sim) mulExtra(e *slot) uint64 {
	if s.cfg.FixedMul {
		return 2
	}
	// Rs was possibly overwritten by execution when Rd == Rs; the
	// pre-execution value is what the hardware sees, so mulExtra is
	// computed by issue before stepping the ISS when exact. Here the
	// baseline keeps the simpler post-read, an accepted source of
	// tiny timing divergence between independent implementations.
	v := s.ISS.CPU.R[e.ins.Rs&0xf]
	switch {
	case v < 1<<8:
		return 0
	case v < 1<<24:
		return 1
	default:
		return 2
	}
}

func (s *Sim) deriveMemTiming(e *slot) {
	ins := &e.ins
	c := s.ISS.CPU
	switch ins.Op {
	case arm.LDR, arm.STR:
		var off uint32
		if ins.HasImm {
			off = ins.Imm
		} else {
			off = c.R[ins.Rm]
			if ins.ShiftAmt > 0 {
				switch ins.Shift {
				case arm.LSL:
					off <<= uint(ins.ShiftAmt)
				case arm.LSR:
					off >>= uint(ins.ShiftAmt)
				case arm.ASR:
					off = uint32(int32(off) >> uint(ins.ShiftAmt))
				case arm.ROR:
					off = off>>uint(ins.ShiftAmt) | off<<(32-uint(ins.ShiftAmt))
				}
			}
		}
		addr := c.R[ins.Rn]
		if ins.Pre {
			if ins.Up {
				addr += off
			} else {
				addr -= off
			}
		}
		e.memLat = s.Hier.DataLatency(addr, ins.Op == arm.STR)
	case arm.LDRH, arm.STRH, arm.LDRSB, arm.LDRSH:
		off := ins.Imm
		if !ins.HasImm {
			off = c.R[ins.Rm]
		}
		addr := c.R[ins.Rn]
		if ins.Pre {
			if ins.Up {
				addr += off
			} else {
				addr -= off
			}
		}
		e.memLat = s.Hier.DataLatency(addr, ins.Op == arm.STRH)
	case arm.LDM, arm.STM:
		n := uint64(0)
		for r := 0; r < 16; r++ {
			if ins.RegList&(1<<r) != 0 {
				n++
			}
		}
		e.memLat = s.Hier.DataLatency(c.R[ins.Rn], ins.Op == arm.STM) + n - 1
	}
}

func (s *Sim) drained() bool {
	for i := range s.lat {
		if s.lat[i].valid {
			return false
		}
	}
	return true
}

// Run simulates until the program exits or maxCycles elapse.
func (s *Sim) Run(maxCycles uint64) (Stats, error) {
	for s.cycles < maxCycles {
		s.step()
		if s.execErr != nil {
			return s.stats(), s.execErr
		}
		if s.ISS.CPU.Halted && s.drained() {
			return s.stats(), nil
		}
	}
	return s.stats(), fmt.Errorf("sscalar: program did not finish within %d cycles", maxCycles)
}

func (s *Sim) stats() Stats {
	st := Stats{Cycles: s.cycles, Instrs: s.ISS.Stats.Instrs, Redirects: s.redirects}
	if s.Hier.ICache != nil {
		st.ICache = s.Hier.ICache.Stats
	}
	if s.Hier.DCache != nil {
		st.DCache = s.Hier.DCache.Stats
	}
	return st
}
