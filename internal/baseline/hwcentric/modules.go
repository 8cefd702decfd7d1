package hwcentric

import (
	"fmt"

	"repro/internal/isa/ppc"
)

// latch is a one-entry pipeline register.
type latch struct {
	valid bool
	op    *hwOp
}

// hwUnit is one function unit module with its reservation station.
type hwUnit struct {
	sim   *Sim
	name  string
	takes func(ppc.Class) bool

	rs, exec latch

	// Output wires.
	fuFree *Signal
	rsFree *Signal
}

// Name identifies the module.
func (u *hwUnit) Name() string { return u.name }

// Eval drives the availability wires the dispatch unit listens to,
// anticipating this edge's own reservation-station issue: a unit
// whose RS operation will issue advertises the RS as free (same-cycle
// refill) and the FU as taken — the "grant" wires of the dispatch
// handshake.
func (u *hwUnit) Eval() {
	cycle := u.sim.K.Cycle()
	execFree := !u.exec.valid || u.exec.op.execDoneAt <= cycle
	rsWillIssue := u.rs.valid && execFree && u.sim.depsDone(u.rs.op, cycle)
	u.fuFree.WriteBool(execFree && !rsWillIssue)
	u.rsFree.WriteBool(!u.rs.valid || rsWillIssue)
}

// Edge drains the execute latch and issues from the reservation
// station.
func (u *hwUnit) Edge(cycle uint64) {
	if u.exec.valid && u.exec.op.execDoneAt <= cycle {
		u.exec.valid = false
	}
	if !u.exec.valid && u.rs.valid && u.sim.depsDone(u.rs.op, cycle) {
		u.start(u.rs.op, cycle)
		u.rs.valid = false
	}
}

// start places an operation in the execute latch with its scheduled
// completion time, pricing the data cache for memory operations.
// Branches resolve as execution begins (training the predictors and
// releasing a held fetch), matching the OSM model.
func (u *hwUnit) start(o *hwOp, cycle uint64) {
	lat := o.execLat
	if o.isMem {
		lat += u.sim.Hier.DataLatency(o.memAddr, o.isStore)
	}
	if lat == 0 {
		lat = 1
	}
	o.execDoneAt = cycle + lat
	u.exec = latch{valid: true, op: o}
	if o.class == ppc.ClassBranch {
		u.sim.resolveBranch(o, cycle)
	}
}

// fetchUnit follows the predicted instruction stream into the fetch
// queue.
type fetchUnit struct {
	sim      *Sim
	pc       uint32
	held     bool
	stop     bool
	resumeAt uint64
}

// Name identifies the module.
func (f *fetchUnit) Name() string { return "fetch" }

// Eval mirrors the hold state onto the fetch_hold wire.
func (f *fetchUnit) Eval() {
	f.sim.sigHold.WriteBool(f.held || f.stop)
	f.sim.sigIQFree.Write(uint64(f.sim.cfg.FetchQueue - len(f.sim.iq)))
}

// Edge fetches up to FetchWidth instructions along the predicted
// path.
func (f *fetchUnit) Edge(cycle uint64) {
	s := f.sim
	if f.stop || f.held || cycle < f.resumeAt {
		return
	}
	for n := 0; n < s.cfg.FetchWidth && len(s.iq) < s.cfg.FetchQueue; n++ {
		if f.held || cycle < f.resumeAt {
			break
		}
		o := &hwOp{pc: f.pc, execDoneAt: notDone}
		if lat := s.Hier.FetchLatency(f.pc); lat > 0 {
			f.resumeAt = maxu(f.resumeAt, cycle+lat)
		}
		if d := s.decode(f.pc); d.ok {
			o.ins, o.decodeOK = d.ins, true
			o.class = d.class
			o.srcs, o.dsts, o.gprs = d.srcs, d.dsts, d.gprs
		}
		o.predictedNext = o.pc + 4
		if o.decodeOK {
			switch o.ins.Op {
			case ppc.B:
				o.predictedNext = target(o.pc, int64(o.ins.LI), o.ins.AA)
				f.takenBubble(o, cycle)
			case ppc.BC:
				if s.bht.Predict(o.pc) {
					o.predictedNext = target(o.pc, int64(o.ins.BD), o.ins.AA)
					f.takenBubble(o, cycle)
				}
			case ppc.BCLR, ppc.BCCTR:
				o.indirect = true
				f.held = true
			}
		}
		s.iq = append(s.iq, o)
		f.pc = o.predictedNext
	}
}

func (f *fetchUnit) takenBubble(o *hwOp, cycle uint64) {
	if _, hit := f.sim.btic.Lookup(o.pc); !hit {
		f.resumeAt = maxu(f.resumeAt, cycle+1)
	}
}

func target(pc uint32, disp int64, abs bool) uint32 {
	if abs {
		return uint32(disp)
	}
	return uint32(int64(pc) + disp)
}

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// dispatchUnit dispatches up to DispatchWidth queue heads in order,
// routing each to a free function unit (when its operands are ready)
// or to the unit's reservation station.
type dispatchUnit struct {
	sim *Sim
	// plan is rebuilt every delta from the wires; Edge applies the
	// settled plan.
	plan []dispatchPlan
}

type dispatchPlan struct {
	unit int
	fast bool
}

// Name identifies the module.
func (d *dispatchUnit) Name() string { return "dispatch" }

// Eval builds the dispatch plan from the availability wires.
func (d *dispatchUnit) Eval() {
	s := d.sim
	d.plan = d.plan[:0]
	cycle := s.K.Cycle()
	cqFree := s.cfg.CompletionQueue - len(s.cq)
	renFree := s.cfg.RenameBuffers - s.renameUsed
	// Account for this cycle's in-order retirements (the completion
	// unit runs before dispatch at the edge, so its freed entries are
	// usable in the same cycle — the "same control step handoff" the
	// OSM director gets from rank-ordered scheduling).
	for n := 0; n < s.cfg.CompleteWidth && n < len(s.cq); n++ {
		if s.cq[n].execDoneAt >= cycle {
			break
		}
		cqFree++
		renFree += s.cq[n].renameBufs
	}
	var fuTaken, rsTaken [8]bool
	for i := 0; i < len(s.iq) && len(d.plan) < s.cfg.DispatchWidth; i++ {
		o := s.iq[i]
		if !o.decodeOK {
			// Surface the model error through execute() rather than
			// wedging the queue.
			d.plan = append(d.plan, dispatchPlan{unit: 4, fast: true})
			break
		}
		gprs := o.gprs
		if cqFree <= 0 || renFree < gprs {
			break
		}
		route := -1
		fast := false
		for ui, u := range s.units {
			if !u.takes(o.class) {
				continue
			}
			if !fuTaken[ui] && u.fuFree.Bool() && s.srcsReady(o, cycle) {
				route, fast = ui, true
				break
			}
			if !rsTaken[ui] && u.rsFree.Bool() {
				route, fast = ui, false
				break
			}
		}
		if route < 0 {
			break // in-order dispatch: a stalled head blocks the rest
		}
		if fast {
			fuTaken[route] = true
		} else {
			rsTaken[route] = true
		}
		d.plan = append(d.plan, dispatchPlan{unit: route, fast: fast})
		cqFree--
		renFree -= gprs
	}
	s.sigCQFree.Write(uint64(cqFree))
	s.sigRenameFree.Write(uint64(renFree))
}

// Edge applies the plan: functional execution (in order), rename
// registration, queue movements and misprediction detection.
func (d *dispatchUnit) Edge(cycle uint64) {
	s := d.sim
	for _, pl := range d.plan {
		if len(s.iq) == 0 {
			break
		}
		o := s.iq[0]
		u := s.units[pl.unit]
		// Recheck queue capacities post-completion: the plan was
		// built before this edge's retirements freed entries, and the
		// completion unit runs first so same-cycle reuse is legal.
		if len(s.cq) >= s.cfg.CompletionQueue ||
			s.renameUsed+o.gprs > s.cfg.RenameBuffers {
			break
		}
		// Re-validate against post-units-edge latch state: the wires
		// were sampled before this edge's reservation-station issues,
		// and an earlier dispatch in this same edge may have put a
		// producer of this operation in flight (stale srcs check).
		if pl.fast && (u.exec.valid || !s.srcsReady(o, cycle)) {
			if !u.rs.valid {
				pl.fast = false
			} else {
				break
			}
		}
		if !pl.fast && u.rs.valid {
			break
		}
		if !d.execute(o, cycle) {
			return
		}
		s.iq = s.iq[1:]
		// Register renames and capture dependences (including
		// producers already executing: readiness is judged by time).
		o.deps = o.deps[:0]
		for _, r := range o.srcs {
			if w := s.lastWriter[r]; w != nil && w != o {
				o.deps = append(o.deps, w)
			}
		}
		for _, r := range o.dsts {
			s.lastWriter[r] = o
		}
		o.renameBufs = o.gprs
		s.renameUsed += o.gprs
		s.cq = append(s.cq, o)
		if pl.fast {
			u.start(o, cycle)
		} else {
			u.rs = latch{valid: true, op: o}
		}
		if o.redirect || s.ISS.CPU.Halted {
			break
		}
	}
}

// execute runs the operation on the functional core and handles
// control-flow outcomes. It reports false on a model error.
func (d *dispatchUnit) execute(o *hwOp, cycle uint64) bool {
	s := d.sim
	if !o.decodeOK || s.ISS.CPU.Halted {
		s.execErr = fmt.Errorf("hwcentric: wrong-path operation dispatched at %#x", o.pc)
		s.fetch.stop = true
		return false
	}
	s.deriveTiming(o)
	s.ISS.CPU.NextPC = o.pc
	if err := s.ISS.StepFetched(&o.ins); err != nil {
		s.execErr = fmt.Errorf("at %#x: %w", o.pc, err)
		s.fetch.stop = true
		return false
	}
	if s.ISS.CPU.Halted {
		s.fetch.stop = true
		s.iq = s.iq[:1] // flush everything younger
		return true
	}
	actual := s.ISS.CPU.NextPC
	o.actualNext = actual
	if o.indirect || actual != o.predictedNext {
		if !o.indirect {
			s.mispredicts++
		}
		o.redirect = true
		s.fetch.pc = actual
		s.fetch.held = true
		// Cancel pending wrong-path fetch stalls.
		s.fetch.resumeAt = 0
		s.iq = s.iq[:1] // flush the wrong path (everything younger)
	}
	return true
}

// deriveTiming fixes execute latency and memory address from the
// pre-execution register state (identical rules to the OSM model).
func (s *Sim) deriveTiming(o *hwOp) {
	c := s.ISS.CPU
	ins := &o.ins
	switch o.class {
	case ppc.ClassMul:
		switch ins.Op {
		case ppc.DIVW, ppc.DIVWU:
			o.execLat = 19
		case ppc.MULLI:
			o.execLat = 3
		default:
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
		switch ins.Op {
		case ppc.LWZU, ppc.STWU:
			base = c.R[ins.RA]
		default:
			if ins.RA != 0 {
				base = c.R[ins.RA]
			}
		}
		switch ins.Op {
		case ppc.LWZX, ppc.STWX, ppc.LBZX, ppc.STBX, ppc.LHZX, ppc.LHAX, ppc.STHX:
			o.memAddr = base + c.R[ins.RB]
		default:
			o.memAddr = base + uint32(ins.SI)
		}
	default:
		o.execLat = 1
	}
}

func (s *Sim) resolveBranch(o *hwOp, cycle uint64) {
	actualTaken := o.actualNext != o.pc+4
	if o.ins.Op == ppc.BC {
		s.bht.Update(o.pc, actualTaken)
	}
	if actualTaken && !o.indirect {
		s.btic.Insert(o.pc, o.actualNext)
	}
	if o.redirect {
		s.fetch.held = false
		s.fetch.resumeAt = maxu(s.fetch.resumeAt, cycle+1)
	}
}

// completionUnit retires executed operations from the completion
// queue in order, up to CompleteWidth per cycle.
type completionUnit struct {
	sim *Sim
}

// Name identifies the module.
func (c *completionUnit) Name() string { return "completion" }

// Eval publishes the halt wire (end-of-program handshake).
func (c *completionUnit) Eval() {
	c.sim.sigHalt.WriteBool(c.sim.ISS.CPU.Halted)
}

// Edge retires in order; an operation completes no earlier than the
// cycle after it finished executing.
func (c *completionUnit) Edge(cycle uint64) {
	s := c.sim
	for n := 0; n < s.cfg.CompleteWidth && len(s.cq) > 0; n++ {
		o := s.cq[0]
		if o.execDoneAt >= cycle {
			break
		}
		s.cq = s.cq[1:]
		s.renameUsed -= o.renameBufs
		for i, w := range s.lastWriter {
			if w == o {
				s.lastWriter[i] = nil
			}
		}
		s.retired++
	}
}
