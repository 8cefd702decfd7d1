package strongarm

import (
	"fmt"

	"repro/internal/de"
	"repro/internal/isa/arm"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/osm"
)

// Config parameterizes the model.
type Config struct {
	// Hier sizes the memory subsystem; the zero value selects the
	// SA-1100-like defaults.
	Hier mem.HierarchyConfig
	// Machines is the OSM population; the zero value selects 6 (five
	// stages plus one filling). More machines never help a
	// single-issue pipeline.
	Machines int
	// RAMKB sizes the memory image; the zero value selects 1024.
	RAMKB int
	// Restart re-enables the director's outer-loop restart. The
	// paper's case studies run without it ("the director does not
	// need to restart the outer-loop" — age-based ranking never
	// blocks a senior on a junior), which is also faster; the flag
	// exists for the ablation benchmark.
	Restart bool
	// FixedMul charges every multiply the worst-case latency instead
	// of SA-110-style early termination (an ablation knob).
	FixedMul bool
	// Engine selects the director's execution engine. The zero value
	// runs the generated edge functions of edges_gen.go; the others
	// are the event-driven interpreter, the reference scan and
	// compiled guard programs. All four are trace-equivalent; see
	// DESIGN.md §12-13.
	Engine osm.Engine
}

// Stats reports a finished simulation.
type Stats struct {
	Cycles    uint64
	Instrs    uint64
	ICache    mem.CacheStats
	DCache    mem.CacheStats
	Branches  uint64
	Redirects uint64 // taken branches/redirects that squashed fetch
	Stalls    uint64 // cycles in which no operation entered E
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instrs)
}

// decoded holds the static facts of one instruction word that the
// timing model needs: the instruction the ISS will execute and its
// scoreboard operands. Each fetched word is decoded once, at fetch,
// and the ISS executes that decoding (iss.ARM.StepFetched). An entry
// is keyed to the PC and the RAM word it was decoded from, so a fetch
// that finds a different word at its PC (a store into code) decodes
// afresh.
type decoded struct {
	pc   uint32
	word uint32
	ins  arm.Instr
	ok   bool
	srcs []int
	dsts []int
}

// opCtx is the per-operation payload flowing with each machine.
type opCtx struct {
	pc       uint32
	word     uint32 // the instruction word fetched at pc
	ins      arm.Instr
	decodeOK bool
	// srcs and dsts point into the decode table's entry (never mutated).
	srcs, dsts []int
	// memory timing computed at E
	memAddr  uint32
	memWords uint32
	memLat   uint64
	isStore  bool
	isMem    bool
}

func ctxOf(m *osm.Machine) *opCtx { return m.Ctx.(*opCtx) }

// bind records the decoding of the operation's word: the word itself,
// which a snapshot keeps, and the decode-derived facts.
func (op *opCtx) bind(d *decoded) {
	op.word = d.word
	if d.ok {
		op.ins, op.decodeOK = d.ins, true
		op.srcs, op.dsts = d.srcs, d.dsts
	}
}

// Sim is a StrongARM micro-architecture simulator instance.
type Sim struct {
	ISS    *iss.ARM
	Hier   *mem.Hierarchy
	Kernel *de.Kernel

	director           *osm.Director
	regs               *regFile
	reset              *osm.ResetManager
	mf, md, me, mb, mw *osm.UnitManager

	decodeTable   []*decoded // direct-mapped by word address; see decodeWord
	fetchPC       uint32
	redirectUntil int64 // fetch blocked through this control step (-1: never)
	fetchStop     bool
	retired       uint64
	redirects     uint64
	brCount       uint64
	stallCycles   uint64
	enteredE      bool
	execErr       error
}

// New builds a simulator for the program.
func New(p *arm.Program, cfg Config) (*Sim, error) {
	if cfg.Machines == 0 {
		cfg.Machines = 6
	}
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
	s := &Sim{
		ISS:     is,
		Hier:    mem.NewHierarchy(cfg.Hier),
		regs:    newRegFile(),
		reset:   osm.NewResetManager("reset"),
		mf:      osm.NewUnitManager("IF", 1),
		md:      osm.NewUnitManager("ID", 1),
		me:      osm.NewUnitManager("EX", 1),
		mb:      osm.NewUnitManager("BF", 1),
		mw:      osm.NewUnitManager("WB", 1),
		fetchPC: p.Entry,
	}
	s.decodeTable = make([]*decoded, iss.DecodeLines(len(p.Words)))
	s.redirectUntil = -1
	if err := s.buildModel(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// whenFetch gates the fetch edge (I -> F): fetch stops for good once
// the program halts and is suppressed through a redirect's shadow.
// It is a named method, not a closure, so the generated state function
// (edges_gen.go) can call the very same predicate.
func (s *Sim) whenFetch(m *osm.Machine) bool {
	return !s.fetchStop && int64(s.director.StepCount()) > s.redirectUntil
}

func (s *Sim) buildModel(cfg Config) error {
	d := osm.NewDirector()
	d.NoRestart = !cfg.Restart
	d.Engine = cfg.Engine
	s.director = d

	iSt := osm.NewState("I")
	fSt := osm.NewState("F")
	dSt := osm.NewState("D")
	eSt := osm.NewState("E")
	bSt := osm.NewState("B")
	wSt := osm.NewState("W")

	fetch := iSt.Connect("e0", fSt, osm.Alloc(s.mf, 0))
	fetch.When = s.whenFetch
	fetch.Action = func(m *osm.Machine) {
		op, _ := m.Ctx.(*opCtx)
		if op == nil {
			op = &opCtx{}
			m.Ctx = op
		}
		*op = opCtx{pc: s.fetchPC}
		if lat := s.Hier.FetchLatency(s.fetchPC); lat > 0 {
			s.mf.SetBusy(0, lat)
		}
		op.bind(s.decode(s.fetchPC))
		s.fetchPC += 4
	}

	fSt.Connect("e1", dSt, osm.Release(s.mf, 0), osm.Alloc(s.md, 0))

	// The decode stage initializes the operation's allocation and
	// inquiry identifiers (done implicitly: our identifier functions
	// read the decoded context). D -> E carries the whole issue
	// condition: EX occupancy, operand availability, update rights.
	toE := dSt.Connect("e2", eSt,
		osm.Release(s.md, 0),
		osm.Inquire(s.regs, SrcsToken),
		osm.Alloc(s.me, 0),
		osm.Alloc(s.regs, WriterToken))
	toE.Action = func(m *osm.Machine) { s.execute(m, cfg) }

	toB := eSt.Connect("e3", bSt, osm.Release(s.me, 0), osm.Alloc(s.mb, 0))
	toB.Action = func(m *osm.Machine) {
		if op := ctxOf(m); op.memLat > 0 {
			s.mb.SetBusy(0, op.memLat)
		}
	}

	bSt.Connect("e4", wSt, osm.Release(s.mb, 0), osm.Alloc(s.mw, 0))

	retire := wSt.Connect("e5", iSt,
		osm.Release(s.mw, 0), osm.Release(s.regs, WriterToken))
	retire.Action = func(m *osm.Machine) { s.retired++ }

	// Control hazards: speculative operations in F and D are killed
	// through high-priority reset edges (paper Section 4).
	osm.ResetEdge(fSt, iSt, s.reset)
	osm.ResetEdge(dSt, iSt, s.reset)

	d.AddManager(s.mf, s.md, s.me, s.mb, s.mw, s.regs, s.reset)
	for k := 0; k < cfg.Machines; k++ {
		d.AddMachine(osm.NewMachine(fmt.Sprintf("op%d", k), iSt))
	}

	s.Kernel = de.NewKernel()
	s.Kernel.OnEdge = func(cycle uint64) error {
		s.enteredE = false
		err := d.Step()
		if !s.enteredE {
			s.stallCycles++
		}
		return err
	}

	// The generated edge functions (edges_gen.go, emitted by
	// cmd/osmgen) attach under every engine and make the generated
	// engine the default. A resolution error means the file drifted
	// from the model: it fails construction whenever the generated
	// engine would serve, and only an explicitly named other engine
	// (cmd/osmgen's) builds without it.
	if err := d.AttachGenerated(stateFns(s)); err != nil &&
		(cfg.Engine == osm.EngineDefault || cfg.Engine == osm.EngineGenerated) {
		return fmt.Errorf("strongarm: edges_gen.go is stale, run go generate ./internal/sim/strongarm: %w", err)
	}
	return nil
}

// outsideImage is the decoding of a PC beyond the RAM image: none.
var outsideImage decoded

// decode returns the static decoding of the word at pc, reusing the
// table's entry while RAM still holds the word it was decoded from.
func (s *Sim) decode(pc uint32) *decoded {
	if !s.ISS.RAM.InBounds(pc, 4) {
		return &outsideImage
	}
	return s.decodeWord(pc, s.ISS.RAM.Read32(pc))
}

// decodeWord returns the static decoding of word as fetched from pc,
// reusing the table's entry when it holds that word at that pc. The
// table is direct-mapped by word address and sized to the program
// (iss.DecodeLines), so the program's own words never share a line; a
// PC that shares one (beyond the text, or in a program too large for
// the table) evicts the line and decodes afresh.
func (s *Sim) decodeWord(pc, word uint32) *decoded {
	ln := &s.decodeTable[(pc>>2)&uint32(len(s.decodeTable)-1)]
	if d := *ln; d != nil && d.pc == pc && d.word == word {
		return d
	}
	d := &decoded{pc: pc, word: word}
	if ins, err := arm.Decode(word); err == nil {
		d.ins, d.ok = ins, true
		d.srcs = trackedSrcs(&ins)
		d.dsts = trackedDsts(&ins)
	}
	*ln = d
	return d
}

// execute runs the operation's semantics on the ISS and derives its
// timing: multiplier early termination, memory access addresses and
// result-forwarding availability.
func (s *Sim) execute(m *osm.Machine, cfg Config) {
	op := ctxOf(m)
	s.enteredE = true
	cycle := s.director.StepCount()
	if !op.decodeOK || s.ISS.CPU.Halted {
		// A wrong-path operation can never reach E: redirects resolve
		// in E and squash everything younger before it issues.
		s.execErr = fmt.Errorf("strongarm: wrong-path operation reached E at %#x", op.pc)
		s.haltFetch(m)
		return
	}
	// Memory timing uses the pre-execution register state; the access
	// is priced here (program order is preserved: only one operation
	// occupies E at a time) and applied as busy time on the E->B edge.
	// A condition-failed memory operation never issues its access.
	cpu := s.ISS.CPU
	condPassed := op.ins.Cond.Passed(cpu.N, cpu.Z, cpu.C, cpu.V)
	if condPassed {
		s.deriveMemTiming(op)
	}
	if op.isMem {
		op.memLat = s.Hier.DataLatency(op.memAddr, op.isStore) + uint64(op.memWords-1)
	}

	expected := op.pc + 4
	s.ISS.CPU.SetPC(op.pc)
	if err := s.ISS.StepFetched(&op.ins); err != nil {
		// Surface the error by halting; Run reports it.
		s.execErr = fmt.Errorf("at %#x: %w", op.pc, err)
		s.haltFetch(m)
		return
	}

	// Multiplier early termination (SA-110 style): the EX stage stays
	// busy 0-2 extra cycles depending on the magnitude of Rs. A
	// condition-failed multiply never engages the multiplier.
	var extraE uint64
	if condPassed && op.ins.Class() == arm.ClassMul {
		extraE = s.mulExtra(op, cfg)
		if extraE > 0 {
			s.me.SetBusy(0, extraE)
		}
	}

	// Publish forwarding times.
	ready := cycle + 1 + extraE
	if op.ins.Class() == arm.ClassLoad {
		ready = cycle + 2 + op.memLat // value leaves the buffer stage
	}
	for _, dst := range op.dsts {
		s.regs.SetReady(dst, ready)
	}

	// Control flow: compare the ISS's actual next PC against the
	// sequential fetch trajectory.
	if op.ins.Class() == arm.ClassBranch || op.ins.IsBranch() {
		s.brCount++
	}
	actual := s.ISS.CPU.PC()
	if s.ISS.CPU.Halted {
		s.haltFetch(m)
		return
	}
	if actual != expected {
		s.redirect(m, actual)
	}
}

func (s *Sim) mulExtra(op *opCtx, cfg Config) uint64 {
	if cfg.FixedMul {
		return 2
	}
	v := s.ISS.CPU.R[op.ins.Rs&0xf]
	switch {
	case v < 1<<8:
		return 0
	case v < 1<<24:
		return 1
	default:
		return 2
	}
}

// deriveMemTiming computes the effective address before the ISS
// mutates the registers.
func (s *Sim) deriveMemTiming(op *opCtx) {
	ins := &op.ins
	c := s.ISS.CPU
	switch ins.Op {
	case arm.LDR, arm.STR:
		op.isMem = true
		op.isStore = ins.Op == arm.STR
		op.memWords = 1
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
		base := c.R[ins.Rn]
		addr := base
		if ins.Pre {
			if ins.Up {
				addr = base + off
			} else {
				addr = base - off
			}
		}
		op.memAddr = addr
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
		op.isMem = true
		op.isStore = ins.Op == arm.STRH
		op.memWords = 1
		op.memAddr = addr
	case arm.LDM, arm.STM:
		op.isMem = true
		op.isStore = ins.Op == arm.STM
		n := uint32(0)
		for r := 0; r < 16; r++ {
			if ins.RegList&(1<<r) != 0 {
				n++
			}
		}
		op.memWords = n
		op.memAddr = c.R[ins.Rn]
	}
}

func (s *Sim) haltFetch(cause *osm.Machine) {
	s.fetchStop = true
	s.squashYounger(cause)
}

func (s *Sim) redirect(cause *osm.Machine, target uint32) {
	s.redirects++
	s.fetchPC = target
	s.redirectUntil = int64(s.director.StepCount())
	s.squashYounger(cause)
}

func (s *Sim) squashYounger(cause *osm.Machine) {
	for _, m := range s.director.Machines() {
		if m != cause && !m.InInitial() && m.Age > cause.Age {
			s.reset.Mark(m)
		}
	}
}

// StepCycle advances the simulation by one clock cycle.
func (s *Sim) StepCycle() error { return s.Kernel.StepCycle() }

// Cycle returns the number of completed clock cycles.
func (s *Sim) Cycle() uint64 { return s.Kernel.Cycle() }

// Done reports whether the program has exited (or died) and the
// pipeline has fully drained.
func (s *Sim) Done() bool {
	if !s.ISS.CPU.Halted && s.execErr == nil {
		return false
	}
	for _, m := range s.director.Machines() {
		if !m.InInitial() {
			return false
		}
	}
	return true
}

// Finalize checks the end-of-run invariants of a completed simulation
// and returns its statistics.
func (s *Sim) Finalize() (Stats, error) {
	if s.execErr != nil {
		return s.stats(), s.execErr
	}
	if s.retired != s.ISS.Stats.Instrs {
		return s.stats(), fmt.Errorf("strongarm: model invariant violated: %d retired vs %d executed",
			s.retired, s.ISS.Stats.Instrs)
	}
	return s.stats(), nil
}

// Run simulates until the program exits or maxCycles elapse.
func (s *Sim) Run(maxCycles uint64) (Stats, error) {
	_, finished, err := s.Kernel.RunUntil(s.Done, maxCycles)
	if err != nil {
		return s.stats(), err
	}
	if s.execErr != nil {
		return s.stats(), s.execErr
	}
	if !finished {
		return s.stats(), fmt.Errorf("strongarm: program did not finish within %d cycles", maxCycles)
	}
	return s.Finalize()
}

func (s *Sim) stats() Stats {
	st := Stats{
		Cycles:    s.Kernel.Cycle(),
		Instrs:    s.ISS.Stats.Instrs,
		Branches:  s.brCount,
		Redirects: s.redirects,
		Stalls:    s.stallCycles,
	}
	if s.Hier.ICache != nil {
		st.ICache = s.Hier.ICache.Stats
	}
	if s.Hier.DCache != nil {
		st.DCache = s.Hier.DCache.Stats
	}
	return st
}

// Director exposes the model's director for tracing and analysis.
func (s *Sim) Director() *osm.Director { return s.director }
