package hwcentric

import (
	"fmt"
	"math"

	"repro/internal/isa/ppc"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/sim/ppc750"
)

// Config parameterizes the baseline; zero values select the PowerPC
// 750 organization used by the OSM model so the two are comparable.
type Config struct {
	Hier                                       mem.HierarchyConfig
	RAMKB                                      int
	FetchQueue, CompletionQueue, RenameBuffers int
	FetchWidth, DispatchWidth, CompleteWidth   int
	BHTEntries, BTICEntries                    int
}

func (c *Config) fill() {
	if c.RAMKB == 0 {
		c.RAMKB = 1024
	}
	if c.FetchQueue == 0 {
		c.FetchQueue = 6
	}
	if c.CompletionQueue == 0 {
		c.CompletionQueue = 6
	}
	if c.RenameBuffers == 0 {
		c.RenameBuffers = 6
	}
	if c.FetchWidth == 0 {
		c.FetchWidth = 4
	}
	if c.DispatchWidth == 0 {
		c.DispatchWidth = 2
	}
	if c.CompleteWidth == 0 {
		c.CompleteWidth = 2
	}
	if c.BHTEntries == 0 {
		c.BHTEntries = 512
	}
	if c.BTICEntries == 0 {
		c.BTICEntries = 64
	}
	if c.Hier == (mem.HierarchyConfig{}) {
		c.Hier = mem.HierarchyConfig{
			ICacheKB: 32, DCacheKB: 32, Ways: 8, LineBytes: 32,
			HitLatency: 0, MemLatency: 25,
			TLBEntries: 64, TLBMissPenalty: 25,
			WriteBack: true,
		}
	}
}

// Stats reports a finished simulation.
type Stats struct {
	Cycles      uint64
	Instrs      uint64
	Mispredicts uint64
	SignalOps   uint64
	ModuleEvals uint64
	Wires       int
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instrs)
}

const notDone = math.MaxUint64

// hwDecoded caches the static per-instruction facts.
type hwDecoded struct {
	ins   ppc.Instr
	ok    bool
	class ppc.Class
	srcs  []int
	dsts  []int
	gprs  int
}

// hwOp is an in-flight operation's payload, passed between modules
// the way the SystemC model passes instruction objects through
// channels.
type hwOp struct {
	pc            uint32
	ins           ppc.Instr
	decodeOK      bool
	class         ppc.Class
	predictedNext uint32
	actualNext    uint32
	indirect      bool
	redirect      bool
	deps          []*hwOp
	srcs, dsts    []int
	gprs          int
	execDoneAt    uint64
	renameBufs    int
	execLat       uint64
	memAddr       uint32
	isMem         bool
	isStore       bool
}

// Sim is the hardware-centric PowerPC 750 baseline.
type Sim struct {
	ISS  *iss.PPC
	Hier *mem.Hierarchy
	K    *Kernel

	cfg         Config
	decodeCache map[uint32]*hwDecoded
	bht         *ppc750.BHT
	btic        *ppc750.BTIC

	// Shared channels (payload queues).
	iq []*hwOp
	cq []*hwOp

	// Register file state: newest in-flight writer per index.
	lastWriter [35]*hwOp
	renameUsed int

	// Wires.
	sigFuFree, sigRsFree []*Signal
	sigIQFree            *Signal
	sigCQFree            *Signal
	sigRenameFree        *Signal
	sigHold              *Signal
	sigHalt              *Signal

	units    []*hwUnit
	fetch    *fetchUnit
	dispatch *dispatchUnit
	complete *completionUnit

	retired     uint64
	mispredicts uint64
	execErr     error
}

// New builds the baseline for the program.
func New(p *ppc.Program, cfg Config) (*Sim, error) {
	cfg.fill()
	is, err := iss.NewPPC(p, cfg.RAMKB)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		ISS:  is,
		Hier: mem.NewHierarchy(cfg.Hier),
		K:    NewKernel(),
		cfg:  cfg,
		bht:  ppc750.NewBHT(cfg.BHTEntries),
		btic: ppc750.NewBTIC(cfg.BTICEntries),
	}
	s.decodeCache = make(map[uint32]*hwDecoded)
	s.sigIQFree = s.K.NewSignal("iq_free")
	s.sigCQFree = s.K.NewSignal("cq_free")
	s.sigRenameFree = s.K.NewSignal("rename_free")
	s.sigHold = s.K.NewSignal("fetch_hold")
	s.sigHalt = s.K.NewSignal("halt")

	names := []string{"iu2", "iu1", "lsu", "bpu", "sru"}
	takes := []func(ppc.Class) bool{
		func(c ppc.Class) bool { return c == ppc.ClassALU },
		func(c ppc.Class) bool { return c == ppc.ClassALU || c == ppc.ClassMul },
		func(c ppc.Class) bool { return c == ppc.ClassLoad || c == ppc.ClassStore },
		func(c ppc.Class) bool { return c == ppc.ClassBranch },
		func(c ppc.Class) bool { return c == ppc.ClassSys },
	}
	for i, n := range names {
		u := &hwUnit{sim: s, name: n, takes: takes[i],
			fuFree: s.K.NewSignal(n + "_fu_free"),
			rsFree: s.K.NewSignal(n + "_rs_free"),
		}
		s.units = append(s.units, u)
		s.sigFuFree = append(s.sigFuFree, u.fuFree)
		s.sigRsFree = append(s.sigRsFree, u.rsFree)
	}
	s.fetch = &fetchUnit{sim: s, pc: p.Entry}
	s.dispatch = &dispatchUnit{sim: s}
	s.complete = &completionUnit{sim: s}

	// Module registration order fixes the intra-edge order: units
	// drain and issue, completion retires (freeing rename buffers the
	// same cycle, like the OSM director's seniors-first rank order),
	// dispatch fills, fetch refills.
	for _, u := range s.units {
		s.K.Add(u)
	}
	s.K.Add(s.complete, s.dispatch, s.fetch)
	return s, nil
}

// ---- register-file helpers (the regfile "module" is a channel all
// others call into, like an sc_interface) ----

func srcIdx(ins *ppc.Instr) []int {
	out := ins.SrcRegs()
	if ins.ReadsCR() {
		out = append(out, 32)
	}
	if ins.ReadsLR() {
		out = append(out, 33)
	}
	if ins.ReadsCTR() {
		out = append(out, 34)
	}
	return out
}

func dstIdx(ins *ppc.Instr) (out []int, gprs int) {
	out = ins.DstRegs()
	gprs = len(out)
	if ins.WritesCR() {
		out = append(out, 32)
	}
	if ins.WritesLR() {
		out = append(out, 33)
	}
	if ins.WritesCTR() {
		out = append(out, 34)
	}
	return out, gprs
}

// decode returns the cached static decoding of the word at pc.
func (s *Sim) decode(pc uint32) *hwDecoded {
	if d, ok := s.decodeCache[pc]; ok {
		return d
	}
	d := &hwDecoded{}
	if s.ISS.RAM.InBounds(pc, 4) {
		if ins, err := ppc.Decode(s.ISS.RAM.Read32(pc)); err == nil {
			d.ins, d.ok = ins, true
			d.class = ins.Class()
			d.srcs = srcIdx(&ins)
			d.dsts, d.gprs = dstIdx(&ins)
		}
	}
	s.decodeCache[pc] = d
	return d
}

func (s *Sim) srcsReady(o *hwOp, cycle uint64) bool {
	for _, r := range o.srcs {
		if w := s.lastWriter[r]; w != nil && w != o && w.execDoneAt > cycle {
			return false
		}
	}
	return true
}

func (s *Sim) depsDone(o *hwOp, cycle uint64) bool {
	for _, d := range o.deps {
		if d.execDoneAt > cycle {
			return false
		}
	}
	return true
}

// Run simulates until the program exits or maxCycles elapse.
func (s *Sim) Run(maxCycles uint64) (Stats, error) {
	for s.K.Cycle() < maxCycles {
		s.K.Step()
		if s.execErr != nil {
			return s.stats(), s.execErr
		}
		if s.ISS.CPU.Halted && s.drained() {
			if s.retired != s.ISS.Stats.Instrs {
				return s.stats(), fmt.Errorf("hwcentric: %d retired vs %d executed",
					s.retired, s.ISS.Stats.Instrs)
			}
			return s.stats(), nil
		}
	}
	return s.stats(), fmt.Errorf("hwcentric: program did not finish within %d cycles", maxCycles)
}

func (s *Sim) drained() bool {
	if len(s.iq) != 0 || len(s.cq) != 0 {
		return false
	}
	for _, u := range s.units {
		if u.exec.valid || u.rs.valid {
			return false
		}
	}
	return true
}

func (s *Sim) stats() Stats {
	sig, evals := s.K.Activity()
	return Stats{
		Cycles:      s.K.Cycle(),
		Instrs:      s.ISS.Stats.Instrs,
		Mispredicts: s.mispredicts,
		SignalOps:   sig,
		ModuleEvals: evals,
		Wires:       s.K.SignalCount(),
	}
}
