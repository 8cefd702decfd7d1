package ppc750

import (
	"fmt"

	"repro/internal/de"
	"repro/internal/isa/ppc"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/osm"
)

// Config parameterizes the model.
type Config struct {
	// Hier sizes the memory subsystem; the zero value selects a
	// 750-like organization (32 KiB 8-way split caches).
	Hier mem.HierarchyConfig
	// RAMKB sizes the memory image; the zero value selects 1024.
	RAMKB int
	// Machines is the OSM population; the zero value selects 16.
	Machines int
	// FetchQueue, CompletionQueue and RenameBuffers size the front
	// end; zero values select the 750's 6/6/6.
	FetchQueue, CompletionQueue, RenameBuffers int
	// FetchWidth, DispatchWidth and CompleteWidth are the per-cycle
	// bandwidths; zero values select the 750's 4/2/2.
	FetchWidth, DispatchWidth, CompleteWidth int
	// BHTEntries and BTICEntries size the predictors (defaults
	// 512/64).
	BHTEntries, BTICEntries int
	// NoRestart disables the director's outer-loop restart as an
	// ablation. Unlike the in-order StrongARM, this model genuinely
	// needs the restart: out-of-order issue lets a junior operation
	// occupy a function unit a senior reservation-station waiter
	// wants, so the senior can depend on a junior for a resource.
	NoRestart bool
	// NoReservationStations removes the per-unit reservation
	// stations: operations dispatch only when the unit and operands
	// are ready (an ablation knob showing what the Fig. 2 multi-path
	// OSM buys).
	NoReservationStations bool
	// Engine selects the director's execution engine. The zero value
	// runs the generated edge functions of edges_gen.go; the others
	// are the event-driven interpreter, the reference scan and
	// compiled guard programs. All four are trace-equivalent; see
	// DESIGN.md §12-13.
	Engine osm.Engine
}

func (c *Config) fill() {
	if c.RAMKB == 0 {
		c.RAMKB = 1024
	}
	if c.Machines == 0 {
		c.Machines = 16
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
	Dispatched  uint64
	Mispredicts uint64
	BHTAccuracy float64
	ICache      mem.CacheStats
	DCache      mem.CacheStats
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instrs)
}

// decoded holds the static facts of one instruction word, decoded
// once at fetch; the ISS executes that decoding at dispatch
// (iss.PPC.StepFetched). An entry is keyed to the PC and the RAM word
// it was decoded from, so a fetch that finds a different word at its
// PC (a store into code) decodes afresh.
type decoded struct {
	pc    uint32
	word  uint32
	ins   ppc.Instr
	ok    bool
	class ppc.Class
	srcs  []int
	dsts  []int
	gprs  int
}

// Per-operation operand bounds over the whole modelled ISA: at most
// three scoreboard sources (stwx reads three GPRs, bclr reads CR, LR
// and CTR) and two destinations (lwzu's RT and RA, a record form's GPR
// and CR, a linking CTR-decrement branch's LR and CTR). decode
// enforces them, so the producer set and the rename undo log fit in
// fixed arrays.
const (
	maxSrcs = 3
	maxDsts = 2
)

// ref names a dynamic operation by the machine slot it occupies and
// the machine's Age when it was fetched. Ages are unique and
// monotonic, so once the slot is refetched its Age differs and every
// older ref to it reads as a retired producer. The zero ref names no
// operation (ages start at 1).
type ref struct {
	slot int
	age  uint64
}

// op is the per-operation payload. The OSM population bounds the
// in-flight operations, so each machine owns exactly one op value for
// the whole run, reset in place at every fetch; producers are named
// by ref, never by pointer, so a retired operation keeps nothing
// alive and the op table is the same size at every cycle.
type op struct {
	m    *osm.Machine // the owning machine, fixed at build time
	slot int          // m's registration index

	pc            uint32
	word          uint32 // the instruction word fetched at pc
	ins           ppc.Instr
	decodeOK      bool
	class         ppc.Class
	predictedNext uint32
	actualNext    uint32
	indirect      bool
	redirect      bool
	deps          [maxSrcs]ref
	nDeps         int
	srcs, dsts    []int
	gprDsts       int
	resultAt      uint64
	renameBufs    int
	execLat       uint64 // fixed at dispatch (multiplier width etc.)
	memAddr       uint32
	isMem         bool
	isStore       bool

	// undoPrev holds the newest-writer entries the pending rename
	// registration replaced, parallel to dsts; undoPending marks a
	// registration not yet committed or cancelled.
	undoPrev    [maxDsts]ref
	undoPending bool
}

func opOf(m *osm.Machine) *op { return m.Ctx.(*op) }

// bind records the decoding of the op's word: the word itself, which
// a snapshot keeps, the decode-derived facts and the machine's route.
func (o *op) bind(d *decoded) {
	o.word = d.word
	o.m.Route = routeUndecodable
	if d.ok {
		o.ins, o.decodeOK = d.ins, true
		o.class = d.class
		o.srcs, o.dsts, o.gprDsts = d.srcs, d.dsts, d.gprs
		o.m.Route = classRoute(d.class)
	}
}

// ref returns the name of the operation currently bound to o's slot.
func (o *op) ref() ref { return ref{slot: o.slot, age: o.m.Age} }

// ratedQueue is an in-order queue whose releases are limited to a
// per-cycle bandwidth: the dispatch and completion limits of the 750.
type ratedQueue struct {
	*osm.QueueManager
	max int
	n   int
}

func newRatedQueue(name string, depth, perCycle int) *ratedQueue {
	return &ratedQueue{QueueManager: osm.NewQueueManager(name, depth), max: perCycle}
}

// BeginStep resets the per-cycle release budget (osm.Stepper). When
// the budget was exhausted, refused releases can now succeed, so the
// manager wakes its waiters.
func (q *ratedQueue) BeginStep(cycle uint64) {
	if q.n >= q.max {
		q.Wake()
	}
	q.n = 0
}

// Allocate re-tags the grant so the token routes back through the
// rate-limiting wrapper rather than the embedded queue.
func (q *ratedQueue) Allocate(m *osm.Machine, id osm.TokenID) (osm.Token, bool) {
	t, ok := q.QueueManager.Allocate(m, id)
	if ok {
		t.Mgr = q
	}
	return t, ok
}

// Release additionally enforces the per-cycle bandwidth.
func (q *ratedQueue) Release(m *osm.Machine, t osm.Token) bool {
	if q.n >= q.max {
		return false
	}
	if !q.QueueManager.Release(m, t) {
		return false
	}
	q.n++
	return true
}

// CancelRelease refunds the budget.
func (q *ratedQueue) CancelRelease(m *osm.Machine, t osm.Token) {
	q.n--
	q.QueueManager.CancelRelease(m, t)
}

// The manager opts in to the compiled engine's check-then-commit fast
// path: grants depend only on queue occupancy, releases on head order
// and the per-cycle budget, and the embedded queue's cancels are
// exact.
var _ osm.CheckableManager = (*ratedQueue)(nil)

// CanAllocate predicts Allocate: the embedded queue grants whenever it
// has a free entry (the identifier is ignored).
func (q *ratedQueue) CanAllocate(m *osm.Machine, id osm.TokenID) bool {
	return q.Len() < q.Cap()
}

// CanRelease predicts Release: budget left this cycle and t at the
// head of the queue.
func (q *ratedQueue) CanRelease(m *osm.Machine, t osm.Token) bool {
	return q.n < q.max && q.QueueManager.Inquire(m, t.ID)
}

// unit is one function unit with its reservation station.
type unit struct {
	name string
	fu   *osm.UnitManager
	rs   *osm.UnitManager
	w    *osm.State
	e    *osm.State
	// classes holds the route bits of the classes the unit executes;
	// its dispatch edges carry them as their osm.Edge.Routes mask.
	classes uint64
}

// An operation's route (osm.Machine.Route) is one bit: its class's,
// or routeUndecodable for a word that does not decode. Decode fixes
// it, so the director never tries a dispatch edge whose unit cannot
// execute the operation.
func classRoute(c ppc.Class) uint64 { return 1 << c }

// routeUndecodable routes an undecodable operation to the system
// unit's fast path only: at the head of the queue it is a model error,
// and dispatch there surfaces it instead of wedging.
const routeUndecodable = 1 << 63

// Sim is a PowerPC 750 micro-architecture simulator instance.
type Sim struct {
	ISS    *iss.PPC
	Hier   *mem.Hierarchy
	Kernel *de.Kernel
	BHT    *BHT
	BTIC   *BTIC

	cfg         Config
	decodeTable []*decoded // direct-mapped by word address; see decodeWord
	director    *osm.Director
	fq, cq      *ratedQueue
	ren         *renamer
	reset       *osm.ResetManager
	units       []*unit
	ops         []op // one per machine, in registration order

	fetchPC       uint32
	fetchStop     bool
	fetchHeld     bool
	fetchResumeAt uint64
	fetchCount    int
	retired       uint64
	dispatched    uint64
	mispredicts   uint64
	execErr       error
}

// New builds a simulator for the program.
func New(p *ppc.Program, cfg Config) (*Sim, error) {
	cfg.fill()
	is, err := iss.NewPPC(p, cfg.RAMKB)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		ISS:     is,
		Hier:    mem.NewHierarchy(cfg.Hier),
		BHT:     NewBHT(cfg.BHTEntries),
		BTIC:    NewBTIC(cfg.BTICEntries),
		cfg:     cfg,
		fq:      newRatedQueue("fetch-queue", cfg.FetchQueue, cfg.DispatchWidth),
		cq:      newRatedQueue("completion-queue", cfg.CompletionQueue, cfg.CompleteWidth),
		ren:     newRenamer(cfg.RenameBuffers),
		reset:   osm.NewResetManager("reset"),
		fetchPC: p.Entry,
	}
	s.decodeTable = make([]*decoded, iss.DecodeLines(len(p.Words)))
	if err := s.buildModel(); err != nil {
		return nil, err
	}
	return s, nil
}

// The When predicates below are named methods, not builder-local
// closures, so the generated edge functions (edges_gen.go) can call
// exactly the predicates the interpreted model evaluates.

// whenFetch gates the fetch edge (I -> Q).
func (s *Sim) whenFetch(m *osm.Machine) bool { return s.fetchOK() }

// whenHead gates every dispatch edge (Q -> Eu and Q -> Wu): dispatch
// is in order, so only the fetch-queue head may leave Q. Which units
// may take the operation is its route, not a predicate.
func (s *Sim) whenHead(m *osm.Machine) bool { return s.fq.Head() == m }

func (s *Sim) buildModel() error {
	d := osm.NewDirector()
	d.NoRestart = s.cfg.NoRestart
	d.Engine = s.cfg.Engine
	s.director = d

	mkUnit := func(name string, classes ...ppc.Class) *unit {
		u := &unit{
			name: name,
			fu:   osm.NewUnitManager(name, 1),
			rs:   osm.NewUnitManager(name+"-rs", 1),
			w:    osm.NewState("W" + name),
			e:    osm.NewState("E" + name),
		}
		for _, c := range classes {
			u.classes |= classRoute(c)
		}
		return u
	}
	// Unit priority order: simple integer work prefers IU2, keeping
	// IU1 free for multiplies and divides.
	s.units = []*unit{
		mkUnit("iu2", ppc.ClassALU),
		mkUnit("iu1", ppc.ClassALU, ppc.ClassMul),
		mkUnit("lsu", ppc.ClassLoad, ppc.ClassStore),
		mkUnit("bpu", ppc.ClassBranch),
		mkUnit("sru", ppc.ClassSys),
	}

	iSt := osm.NewState("I")
	qSt := osm.NewState("Q")
	cSt := osm.NewState("C")

	fetch := iSt.Connect("fetch", qSt, osm.Alloc(s.fq, osm.AnyUnit))
	fetch.When = s.whenFetch
	fetch.Action = func(m *osm.Machine) { s.fetchOne(m) }

	for _, u := range s.units {
		u := u
		// Fast dispatch: operands and unit available — straight into
		// the execute stage (paper Fig. 2's high-priority path).
		fast := qSt.Connect("disp-"+u.name, u.e,
			osm.Release(s.fq, osm.AnyUnit),
			osm.Alloc(s.cq, osm.AnyUnit),
			osm.Inquire(s.ren, SrcsToken),
			osm.Alloc(s.ren, WriterToken),
			osm.Alloc(u.fu, 0))
		fast.When = s.whenHead
		fast.Routes = u.classes
		if u.name == "sru" {
			fast.Routes |= routeUndecodable
		}
		fast.Action = func(m *osm.Machine) {
			s.dispatchExec(m)
			s.enterExec(m, u)
		}
	}
	if !s.cfg.NoReservationStations {
		for _, u := range s.units {
			u := u
			// Slow dispatch: into the unit's reservation station.
			slow := qSt.Connect("rs-"+u.name, u.w,
				osm.Release(s.fq, osm.AnyUnit),
				osm.Alloc(s.cq, osm.AnyUnit),
				osm.Alloc(s.ren, WriterToken),
				osm.Alloc(u.rs, 0))
			slow.When = s.whenHead
			slow.Routes = u.classes
			slow.Action = func(m *osm.Machine) { s.dispatchExec(m) }
		}
	}
	for _, u := range s.units {
		u := u
		issue := u.w.Connect("issue-"+u.name, u.e,
			osm.Release(u.rs, 0),
			osm.Inquire(s.ren, DepsToken),
			osm.Alloc(u.fu, 0))
		issue.Action = func(m *osm.Machine) { s.enterExec(m, u) }

		u.e.Connect("fin-"+u.name, cSt, osm.Release(u.fu, 0))
	}
	// Only the execute-stage releases can free a resource a senior
	// machine waits on (a junior that issued ahead of a senior
	// reservation-station waiter vacating the function unit), so only
	// those transitions trigger the director's rescan. They are
	// exactly the edges into C.
	d.RestartPolicy = func(m *osm.Machine, e *osm.Edge) bool { return e.To == cSt }

	complete := cSt.Connect("complete", iSt,
		osm.Release(s.cq, osm.AnyUnit),
		osm.Release(s.ren, WriterToken))
	complete.Action = func(m *osm.Machine) { s.retired++ }

	// Wrong-path operations live only in the fetch queue; the reset
	// edge kills them there.
	osm.ResetEdge(qSt, iSt, s.reset)

	d.AddManager(s.fq, s.cq, s.ren, s.reset)
	for _, u := range s.units {
		d.AddManager(u.fu, u.rs)
	}
	s.ops = make([]op, s.cfg.Machines)
	for k := range s.ops {
		m := osm.NewMachine(fmt.Sprintf("op%d", k), iSt)
		s.ops[k] = op{m: m, slot: k}
		m.Ctx = &s.ops[k]
		d.AddMachine(m)
	}
	s.ren.ops = s.ops

	s.Kernel = de.NewKernel()
	s.Kernel.OnEdge = func(cycle uint64) error {
		s.fetchCount = 0
		return d.Step()
	}

	// The generated edge functions (edges_gen.go, emitted by
	// cmd/osmgen) attach under every engine and make the generated
	// engine the default; the NoReservationStations variant leaves the
	// rs-* entries unused, which resolution permits. A resolution
	// error means the file drifted from the model: it fails
	// construction whenever the generated engine would serve, and only
	// an explicitly named other engine (cmd/osmgen's) builds without it.
	if err := d.AttachGenerated(stateFns(s)); err != nil &&
		(s.cfg.Engine == osm.EngineDefault || s.cfg.Engine == osm.EngineGenerated) {
		return fmt.Errorf("ppc750: edges_gen.go is stale, run go generate ./internal/sim/ppc750: %w", err)
	}
	return nil
}

func (s *Sim) fetchOK() bool {
	return !s.fetchStop && !s.fetchHeld &&
		s.director.StepCount() >= s.fetchResumeAt &&
		s.fetchCount < s.cfg.FetchWidth
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// fetchOne fetches along the predicted path: direct branches are
// predicted by the BHT (with the BTIC hiding the taken-redirect
// bubble); indirect branches stop fetch until they resolve. The
// machine's op is reset in place: the director assigns the new Age
// only after this action, and nothing reads the slot in between.
func (s *Sim) fetchOne(m *osm.Machine) {
	step := s.director.StepCount()
	o := opOf(m)
	*o = op{m: o.m, slot: o.slot, pc: s.fetchPC}
	if lat := s.Hier.FetchLatency(s.fetchPC); lat > 0 {
		s.fetchResumeAt = max64(s.fetchResumeAt, step+lat)
	}
	o.bind(s.decode(s.fetchPC))
	o.predictedNext = o.pc + 4
	if o.decodeOK {
		switch o.ins.Op {
		case ppc.B:
			o.predictedNext = s.directTarget(o, int64(o.ins.LI), o.ins.AA)
			s.takenRedirect(o, step)
		case ppc.BC:
			if s.BHT.Predict(o.pc) {
				o.predictedNext = s.directTarget(o, int64(o.ins.BD), o.ins.AA)
				s.takenRedirect(o, step)
			}
		case ppc.BCLR, ppc.BCCTR:
			// Target unknown until the branch reads LR/CTR: fetch
			// holds until resolution.
			o.indirect = true
			s.fetchHeld = true
		}
	}
	s.fetchPC = o.predictedNext
	s.fetchCount++
}

func (s *Sim) directTarget(o *op, disp int64, abs bool) uint32 {
	if abs {
		return uint32(disp)
	}
	return uint32(int64(o.pc) + disp)
}

// takenRedirect charges the one-cycle fetch bubble of a predicted-
// taken branch unless the BTIC supplies the target instruction.
func (s *Sim) takenRedirect(o *op, step uint64) {
	if _, hit := s.BTIC.Lookup(o.pc); !hit {
		s.fetchResumeAt = max64(s.fetchResumeAt, step+1)
	}
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
	if ins, err := ppc.Decode(word); err == nil {
		d.ins, d.ok = ins, true
		d.class = ins.Class()
		d.srcs = trackedSrcs(&ins)
		d.dsts, d.gprs = trackedDsts(&ins)
		if len(d.srcs) > maxSrcs || len(d.dsts) > maxDsts {
			panic(fmt.Sprintf("ppc750: %v at %#x exceeds the operand bounds (%d sources, %d destinations)",
				ins.Op, pc, len(d.srcs), len(d.dsts)))
		}
	}
	*ln = d
	return d
}

// dispatchExec performs the in-order functional execution at dispatch
// time: architectural state stays exact while timing plays out in the
// machine layer. It also fixes dispatch-time timing facts (memory
// address, multiplier width) and detects mispredictions.
func (s *Sim) dispatchExec(m *osm.Machine) {
	o := opOf(m)
	if !o.decodeOK || s.ISS.CPU.Halted {
		s.execErr = fmt.Errorf("ppc750: wrong-path operation dispatched at %#x", o.pc)
		s.fetchStop = true
		return
	}
	s.dispatched++
	s.deriveTiming(o)
	s.ISS.CPU.NextPC = o.pc
	if err := s.ISS.StepFetched(&o.ins); err != nil {
		s.execErr = fmt.Errorf("at %#x: %w", o.pc, err)
		s.fetchStop = true
		s.squashYounger(m)
		return
	}
	if s.ISS.CPU.Halted {
		s.fetchStop = true
		s.squashYounger(m)
		return
	}
	actual := s.ISS.CPU.NextPC
	o.actualNext = actual
	if o.indirect || actual != o.predictedNext {
		if !o.indirect {
			s.mispredicts++
		}
		o.redirect = true
		s.fetchPC = actual
		s.fetchHeld = true
		// Cancel pending wrong-path fetch stalls (an in-flight wrong-
		// path icache miss must not delay the correct path).
		s.fetchResumeAt = 0
		s.squashYounger(m)
	}
}

// deriveTiming fixes the operation's execute latency and memory
// address from the pre-execution register state.
func (s *Sim) deriveTiming(o *op) {
	c := s.ISS.CPU
	ins := &o.ins
	switch o.class {
	case ppc.ClassMul:
		switch ins.Op {
		case ppc.DIVW, ppc.DIVWU:
			o.execLat = 19
		case ppc.MULLI:
			o.execLat = 3
		default: // mullw: early termination on the second operand
			v := c.R[ins.RB]
			switch {
			case v < 1<<16:
				o.execLat = 2
			case v < 1<<24:
				o.execLat = 3
			default:
				o.execLat = 4
			}
		}
	case ppc.ClassLoad, ppc.ClassStore:
		o.isMem = true
		o.isStore = o.class == ppc.ClassStore
		o.execLat = 2
		base := uint32(0)
		if ins.RA != 0 || !memRAZero(ins.Op) {
			base = c.R[ins.RA]
		}
		switch ins.Op {
		case ppc.LWZU, ppc.STWU:
			base = c.R[ins.RA]
		}
		if isIndexed(ins.Op) {
			o.memAddr = base + c.R[ins.RB]
		} else {
			o.memAddr = base + uint32(ins.SI)
		}
	default:
		o.execLat = 1
	}
	o.resultAt = notReady
}

func memRAZero(op ppc.Op) bool {
	switch op {
	case ppc.LWZ, ppc.LBZ, ppc.LHZ, ppc.LHA, ppc.STW, ppc.STB, ppc.STH,
		ppc.LWZX, ppc.STWX, ppc.LBZX, ppc.STBX, ppc.LHZX, ppc.LHAX, ppc.STHX:
		return true
	}
	return false
}

func isIndexed(op ppc.Op) bool {
	switch op {
	case ppc.LWZX, ppc.STWX, ppc.LBZX, ppc.STBX, ppc.LHZX, ppc.LHAX, ppc.STHX:
		return true
	}
	return false
}

// enterExec starts the operation in its function unit: the unit stays
// busy for the latency, the result appears on the buses when it
// finishes, and branches resolve (training the predictors and
// releasing a held fetch).
func (s *Sim) enterExec(m *osm.Machine, u *unit) {
	o := opOf(m)
	cycle := s.director.StepCount()
	lat := o.execLat
	if o.isMem {
		lat += s.Hier.DataLatency(o.memAddr, o.isStore)
	}
	if lat == 0 {
		lat = 1
	}
	if lat > 1 {
		u.fu.SetBusy(0, lat-1)
	}
	o.resultAt = cycle + lat
	s.ren.noteResult(o.resultAt)
	if o.class == ppc.ClassBranch {
		s.resolveBranch(o, cycle)
	}
}

func (s *Sim) resolveBranch(o *op, cycle uint64) {
	actualTaken := o.actualNext != o.pc+4
	if o.ins.Op == ppc.BC {
		s.BHT.Update(o.pc, actualTaken)
	}
	if actualTaken && !o.indirect {
		s.BTIC.Insert(o.pc, o.actualNext)
	}
	if o.redirect {
		s.fetchHeld = false
		s.fetchResumeAt = max64(s.fetchResumeAt, cycle+1)
	}
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
		return s.stats(), fmt.Errorf("ppc750: model invariant violated: %d retired vs %d executed",
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
		return s.stats(), fmt.Errorf("ppc750: program did not finish within %d cycles", maxCycles)
	}
	return s.Finalize()
}

func (s *Sim) stats() Stats {
	st := Stats{
		Cycles:      s.Kernel.Cycle(),
		Instrs:      s.ISS.Stats.Instrs,
		Dispatched:  s.dispatched,
		Mispredicts: s.mispredicts,
	}
	if s.BHT.Lookups > 0 {
		st.BHTAccuracy = float64(s.BHT.Hits) / float64(s.BHT.Lookups)
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
