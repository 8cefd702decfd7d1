package osm

// This file implements the director's event-driven scheduler. It
// produces the exact transition schedule of the Figure 3 scan
// scheduler (stepScan in director.go) while only evaluating machines
// whose guards may have become satisfiable — idle machines resting in
// their initial state, and machines stalled on unchanged resources,
// cost nothing per control step.
//
// The mechanism:
//
//   - The director keeps a ready set of machines to evaluate at the
//     next control step. A step snapshots the ready set into a serve
//     list sorted in scan order (the AgeRank order, computed from
//     per-machine keys instead of a full ranking sort).
//
//   - When a served machine fails every outgoing edge at token-
//     protocol primitives whose managers are all sleep-safe (see
//     SleepSafe in manager.go), it is suspended on the wait list of
//     each refusing manager. It is re-queued when one of them wakes:
//     either the director observes a committed transaction naming the
//     manager, or the manager announces a state change through the
//     hook installed with SetWake (WakeNotifier).
//
//   - A machine whose failure the protocol cannot track — a When
//     predicate returned false, or a refusing manager is not
//     sleep-safe — stays in the ready set and is re-evaluated every
//     step, exactly like the scan. Correctness therefore never
//     depends on a model opting in to the wake contract.
//
// Scan equivalence. The scan serves machines in rank order and, on a
// transition, either continues past the transitioned machine
// (NoRestart, or RestartPolicy refused) or restarts from the top.
// The event scheduler reproduces the schedule by classifying every
// machine woken by a transition of machine t, served at key Kt:
//
//   - restart-qualified transition: the woken machine joins the
//     current serve list (the scan would re-reach it), and every
//     machine that failed this step for an untracked reason is
//     re-queued too, since the transition's action may have changed
//     what its When predicate observes.
//   - otherwise, a woken machine joins the current serve list only
//     if it was not yet evaluated this step and its key orders after
//     Kt — the position the continuing scan has not passed yet. A
//     machine whose turn already passed (it was evaluated and failed,
//     or orders before Kt) waits for the next step, exactly like the
//     scan.
//
// Machines that transition are always re-queued for the next step:
// Figure 3 serves each machine's new state at the following step (at
// most one transition per machine per step).

// machineSched is per-machine scheduling state. idx and key serve
// both schedulers and moved the scan; the rest is the event-driven
// scheduler's own, reset by initEvent. Stamps hold step+1 so the zero
// value means "never".
type machineSched struct {
	idx int // registration index, set by AddMachine; orders idle machines
	// key is the machine's serve-order position (see keyOf), computed
	// when the machine enters a serve list and valid for one step.
	key uint64
	// moved marks a machine that transitioned in the current scan step.
	moved     bool
	inReady   bool  // queued for the next step
	inPend    bool  // queued in the current step's serve list
	asleep    bool  // suspended on wait lists (or permanently, if none)
	untracked bool  // last failure had a cause the protocol cannot track
	waits     []int // manager indices whose wait lists hold the machine
	evalStamp uint64
	moveStamp uint64
	utStamp   uint64
}

// eventSched is the director's event-driven scheduler state.
type eventSched struct {
	init bool
	// epoch invalidates caches hung off model structures (edges,
	// primitives) whenever the scheduler is rebuilt and manager
	// indices may have changed.
	epoch uint64
	mgrOf map[TokenManager]int
	safe  []bool // per manager: sleep-safe and wake-capable
	waits [][]*Machine
	ready []*Machine // machines to evaluate at the next step
	pend  []*Machine // the current step's serve list, sorted by key
	woken []*Machine // wakes buffered during one machine evaluation
	// untracked lists machines that failed this step for a reason the
	// protocol cannot track; a restart-qualified transition re-queues
	// them.
	untracked []*Machine
	serving   bool
	servIdx   int    // next unserved position in pend
	servKey   uint64 // key of the machine being served
	stamp     uint64 // d.step + 1 during the current step
}

// initEvent (re)builds the scheduler state: manager indexing, wake
// hooks, and a ready set holding every machine. It runs before the
// first event-driven step and again after any AddMachine/AddManager
// or Reset, so resuming in either scheduler at a step boundary is
// always sound.
func (d *Director) initEvent() {
	ev := &d.ev
	ev.epoch++
	ev.mgrOf = make(map[TokenManager]int, len(d.managers))
	ev.safe = make([]bool, len(d.managers))
	ev.waits = make([][]*Machine, len(d.managers))
	for i, mgr := range d.managers {
		ev.mgrOf[mgr] = i
		wn, canWake := mgr.(WakeNotifier)
		if ss, ok := mgr.(SleepSafe); ok && canWake && ss.SleepSafeManager() {
			ev.safe[i] = true
		}
		if canWake {
			k := i
			wn.SetWake(func() { d.wakeMgr(k) })
		}
	}
	ev.ready = ev.ready[:0]
	for _, m := range d.machines {
		m.sched = machineSched{idx: m.sched.idx, inReady: true}
		ev.ready = append(ev.ready, m)
	}
	ev.pend = ev.pend[:0]
	ev.woken = ev.woken[:0]
	ev.untracked = ev.untracked[:0]
	ev.serving = false
	ev.init = true
}

// stepEvent runs one control step under the event-driven scheduler.
// It serves the event and compiled engines, which differ only in how
// serveMachine tries an edge; Step has lowered the model for the
// compiled engine.
func (d *Director) stepEvent(eng Engine) error {
	ev := &d.ev
	if !ev.init {
		d.initEvent()
	}
	ev.stamp = d.step + 1
	// BeginStep wakes (time-based state crossings) land in the ready
	// set before the snapshot, so they are served this very step —
	// the scan re-evaluates everyone after BeginStep too.
	for _, s := range d.steppers {
		s.BeginStep(d.step)
	}
	// Snapshot by swapping the slices: the ready set becomes the serve
	// list without copying the elements.
	ev.pend, ev.ready = ev.ready, ev.pend[:0]
	pend := ev.pend
	for _, m := range pend {
		m.sched.inReady = false
		m.sched.inPend = true
		m.sched.key = keyOf(m)
	}
	// Sort the serve list in scan order. Machines re-enter the ready
	// set in serve order, so the list is nearly sorted and this
	// insertion sort runs in linear time in steady state.
	for i := 1; i < len(pend); i++ {
		for j := i; j > 0 && pend[j].sched.key < pend[j-1].sched.key; j-- {
			pend[j], pend[j-1] = pend[j-1], pend[j]
		}
	}
	ev.untracked = ev.untracked[:0]

	progressed := false
	ev.servIdx = 0
	for ev.servIdx < len(ev.pend) {
		m := ev.pend[ev.servIdx]
		ev.servIdx++
		m.sched.inPend = false

		ev.servKey = m.sched.key
		ev.serving = true
		moved, moveEdge, err := d.serveMachine(m, eng)
		if err != nil {
			ev.serving = false
			ev.woken = ev.woken[:0]
			ev.pend = ev.pend[:0]
			return err
		}
		if moved {
			progressed = true
			m.sched.moveStamp = ev.stamp
			d.toReady(m) // the new state is served next step
			// Wake the waiters of every manager the commit mutated;
			// classification happens below, so keep buffering.
			d.wakeEdge(moveEdge)
			ev.serving = false
			restart := !d.NoRestart &&
				(d.RestartPolicy == nil || d.RestartPolicy(m, moveEdge))
			for _, w := range ev.woken {
				d.admit(w, restart)
			}
			ev.woken = ev.woken[:0]
			if restart {
				// The scan restarts from the top and re-tries every
				// remaining machine, including ones whose failure the
				// protocol cannot track: the transition's action may
				// have changed what their predicates observe.
				for _, v := range ev.untracked {
					v.sched.utStamp = 0
					if v.sched.moveStamp != ev.stamp {
						d.toPend(v)
					}
				}
				ev.untracked = ev.untracked[:0]
			}
			continue
		}
		ev.serving = false
		m.sched.evalStamp = ev.stamp
		switch {
		case m.sched.untracked:
			d.noteUntracked(m)
			d.toReady(m)
		case len(m.blocked) > 0:
			if !d.suspend(m) {
				// A refusing manager cannot support suspension;
				// behave like the scan and re-evaluate every step.
				d.noteUntracked(m)
				d.toReady(m)
			}
		default:
			// No outgoing edge exists, or the machine's route
			// excludes every one; nothing can ever fire.
			m.sched.asleep = true
		}
		// Wakes observed during a failed evaluation are side-effect
		// free (the tentative grants were cancelled); schedule them
		// conservatively for the next step.
		if len(ev.woken) > 0 {
			for _, w := range ev.woken {
				if w.sched.moveStamp != ev.stamp {
					d.toReady(w)
				}
			}
			ev.woken = ev.woken[:0]
		}
	}
	ev.pend = ev.pend[:0]

	if !progressed && d.CheckDeadlock {
		// Suspended machines keep the blocked list of their last
		// evaluation; the wake contract guarantees those primitives
		// still fail, so the wait-for graph matches the scan's.
		if err := d.deadlockCheck(); err != nil {
			return err
		}
	}
	if d.Check != nil {
		if err := d.Check(d); err != nil {
			return err
		}
	}
	d.step++
	return nil
}

// admit classifies a machine woken by a committed transition: into
// the current serve list when the scan would still reach it this
// step, otherwise into the next step's ready set. See the scan
// equivalence comment at the top of the file.
func (d *Director) admit(w *Machine, restart bool) {
	s := &w.sched
	if s.moveStamp == d.ev.stamp || s.inPend {
		return
	}
	if restart || (s.evalStamp != d.ev.stamp && d.ev.servKey < keyOf(w)) {
		d.toPend(w)
		return
	}
	d.toReady(w)
}

// toReady queues m for evaluation at the next control step.
func (d *Director) toReady(m *Machine) {
	s := &m.sched
	if s.inReady || s.inPend {
		return
	}
	s.inReady = true
	d.ev.ready = append(d.ev.ready, m)
}

// toPend queues m in the current step's serve list, pulling it out of
// the next-step ready set if it was there. The machine is inserted at
// its key's position in the unserved tail, keeping the list sorted.
func (d *Director) toPend(m *Machine) {
	s := &m.sched
	if s.inPend {
		return
	}
	if s.inReady {
		for i, x := range d.ev.ready {
			if x == m {
				d.ev.ready = append(d.ev.ready[:i], d.ev.ready[i+1:]...)
				break
			}
		}
		s.inReady = false
	}
	s.inPend = true
	s.key = keyOf(m)
	p := d.ev.pend
	lo, hi := d.ev.servIdx, len(p)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p[mid].sched.key < s.key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	p = append(p, nil)
	copy(p[lo+1:], p[lo:])
	p[lo] = m
	d.ev.pend = p
}

// noteUntracked records that m failed this step for a reason the
// token protocol cannot track, so restart-qualified transitions must
// re-try it.
func (d *Director) noteUntracked(m *Machine) {
	if m.sched.utStamp == d.ev.stamp {
		return
	}
	m.sched.utStamp = d.ev.stamp
	d.ev.untracked = append(d.ev.untracked, m)
}

// mgrIdx resolves the scheduler's registration index for a blocked
// primitive's manager, caching it on the primitive (primitives are
// interned per edge, so the cache is hit for the model's life).
func (d *Director) mgrIdx(p *Primitive) (int, bool) {
	if p.schedDir == d && p.schedEpoch == d.ev.epoch {
		return p.schedIdx, p.schedIdx >= 0
	}
	k, ok := d.ev.mgrOf[p.Mgr]
	if !ok {
		k = -1
	}
	p.schedDir, p.schedEpoch, p.schedIdx = d, d.ev.epoch, k
	return k, ok
}

// suspend registers m on the wait list of every manager that refused
// one of its primitives. It reports false — leaving no registrations
// behind — when any refusing manager is unregistered or not
// sleep-safe, in which case the caller keeps m always-ready.
func (d *Director) suspend(m *Machine) bool {
	for _, p := range m.blocked {
		k, ok := d.mgrIdx(p)
		if !ok || !d.ev.safe[k] {
			for _, r := range m.sched.waits {
				d.ev.waits[r] = removeMachine(d.ev.waits[r], m)
			}
			m.sched.waits = m.sched.waits[:0]
			return false
		}
		dup := false
		for _, r := range m.sched.waits {
			if r == k {
				dup = true
				break
			}
		}
		if !dup {
			m.sched.waits = append(m.sched.waits, k)
			d.ev.waits[k] = append(d.ev.waits[k], m)
		}
	}
	m.sched.asleep = true
	return true
}

// wakeMgr re-queues every machine suspended on manager index k. It is
// the hook installed into managers via SetWake and is also called by
// the director itself when a committed edge mutates the manager.
func (d *Director) wakeMgr(k int) {
	if !d.ev.init || k >= len(d.ev.waits) {
		return
	}
	for len(d.ev.waits[k]) > 0 {
		d.noteWake(d.ev.waits[k][0])
	}
}

func (d *Director) wakeAllMgrs() {
	for k := range d.ev.waits {
		d.wakeMgr(k)
	}
}

// noteWake returns a suspended machine to scheduling. During a
// machine evaluation, wakes are buffered and classified once the
// outcome (and restart qualification) is known; outside one, the
// machine joins the ready set — before the snapshot for BeginStep
// wakes, i.e. the current step, and the next step for wakes between
// steps.
func (d *Director) noteWake(m *Machine) {
	s := &m.sched
	if s.asleep {
		for _, k := range s.waits {
			d.ev.waits[k] = removeMachine(d.ev.waits[k], m)
		}
		s.waits = s.waits[:0]
		s.asleep = false
	}
	if d.ev.serving {
		d.ev.woken = append(d.ev.woken, m)
		return
	}
	d.toReady(m)
}

// Wake re-queues a machine for evaluation. Models that change
// guard-relevant state outside both the token protocol and any
// manager's wake contract can call it to keep the event-driven
// scheduler exact; it is never needed for the built-in managers. A
// no-op under the scan scheduler.
func (d *Director) Wake(m *Machine) {
	if d.ev.init {
		d.noteWake(m)
	}
}

// wakeEdge wakes the waiters of every manager mutated by a commit of
// e. The manager set is derived from the edge's primitives once and
// cached on the edge: Allocate, Release and Discard mutate their
// manager; a Discard with a nil manager empties the whole token
// buffer, so it wakes everything.
func (d *Director) wakeEdge(e *Edge) {
	if e.wakeDir != d || e.wakeEpoch != d.ev.epoch {
		d.buildEdgeWake(e)
	}
	if e.wakeAll {
		d.wakeAllMgrs()
		return
	}
	for _, k := range e.wakeMgrs {
		d.wakeMgr(k)
	}
}

// buildEdgeWake computes and caches e's wake set under the current
// scheduler epoch.
func (d *Director) buildEdgeWake(e *Edge) {
	e.wakeAll = false
	e.wakeMgrs = e.wakeMgrs[:0]
	for pi := range e.Prims {
		p := &e.Prims[pi]
		switch p.Op {
		case OpAllocate, OpRelease, OpDiscard:
			if p.Mgr == nil {
				e.wakeAll = true
				continue
			}
			if k, reg := d.ev.mgrOf[p.Mgr]; reg {
				dup := false
				for _, x := range e.wakeMgrs {
					if x == k {
						dup = true
						break
					}
				}
				if !dup {
					e.wakeMgrs = append(e.wakeMgrs, k)
				}
			}
		}
	}
	e.wakeDir, e.wakeEpoch = d, d.ev.epoch
}

func removeMachine(list []*Machine, m *Machine) []*Machine {
	for i, x := range list {
		if x == m {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}
