package osm

import "fmt"

// RankFunc orders machines for a control step. It reports whether a
// should be scheduled before b (a has the higher rank). Rankings may
// be based on the status and identity of the operations the machines
// represent.
type RankFunc func(a, b *Machine) bool

// AgeRank is the default ranking used by the paper's case studies:
// machines are ranked by their ages, i.e. the order in which they last
// left the initial state. Seniors (smaller Age) rank higher; machines
// resting in their initial state rank below all active machines and
// among themselves keep their registration order, which keeps the
// model deterministic.
func AgeRank(a, b *Machine) bool {
	ai, bi := a.InInitial(), b.InInitial()
	if ai != bi {
		return bi // active machine outranks idle machine
	}
	if ai { // both idle: registration order (Age holds index 0 here,
		// so fall through to stable sort order — see Director.Step)
		return false
	}
	return a.Age < b.Age
}

// Tracer observes director activity. Implementations must be cheap;
// the director invokes them on every transition when installed.
type Tracer interface {
	// Transition is called after machine m commits edge e at the
	// given control step.
	Transition(step uint64, m *Machine, e *Edge)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(step uint64, m *Machine, e *Edge)

// Transition calls f.
func (f TracerFunc) Transition(step uint64, m *Machine, e *Edge) { f(step, m, e) }

// Director coordinates the state transitions of a population of
// operation state machines, one control step per clock edge, using the
// deterministic scheduling algorithm of the paper's Figure 3:
//
//   - state transition occurs at most once per machine per step;
//   - a transition occurs as soon as an outgoing edge's condition is
//     satisfied;
//   - higher-priority edges are preferred;
//   - machines are served in rank order, and (unless NoRestart is set)
//     the scan restarts from the highest-ranked remaining machine
//     whenever some machine transitions, because that transition may
//     have freed resources a higher-ranked machine was blocked on.
type Director struct {
	// Rank orders the machines at the beginning of each control step.
	// Nil means AgeRank.
	Rank RankFunc
	// NoRestart disables the outer-loop restart. The paper's case
	// studies enable this optimization because with age-based ranking
	// no senior operation depends on a junior operation for
	// resources. An ablation benchmark measures its effect.
	NoRestart bool
	// RestartPolicy, when non-nil and NoRestart is false, limits the
	// outer-loop restart to transitions for which it returns true. A
	// model that knows which edges can free resources senior machines
	// wait on (in the 750 model, only the execute-stage releases)
	// uses this to avoid pointless rescans while keeping Figure 3's
	// semantics for the transitions that matter.
	RestartPolicy func(m *Machine, e *Edge) bool
	// Tracer, if non-nil, observes every committed transition.
	Tracer Tracer
	// CheckDeadlock enables wait-for-cycle detection on steps where
	// no machine could move. Deadlocks are pathological (a cyclic
	// pipeline); the director aborts with ErrDeadlock when one is
	// found.
	CheckDeadlock bool
	// Engine selects the execution engine (see the Engine type). The
	// zero value, EngineDefault, serves through the generated state
	// functions when they are attached (AttachGenerated) and through
	// the event-driven interpreter otherwise. EngineScan and
	// EngineGenerated run the paper's Figure 3 scan, which ranks and
	// serves every machine each control step; EngineScan tries edges
	// through the interpreter and is the reference, EngineGenerated
	// calls the states' own functions and lowers nothing. EngineEvent
	// and EngineCompiled run the event-driven scheduler
	// (director_event.go), which produces the identical transition
	// schedule — the differential tests in internal/experiments check
	// this trace-for-trace — while skipping machines whose blocking
	// resources did not change. The compiled engine lowers the model
	// on the first step (Lower does so earlier); a lowering error
	// aborts that Step. The event-driven scheduler requires the
	// default age-based ranking, so installing a custom Rank forces
	// EngineScan. Choose the engine before the first Step.
	Engine Engine
	// Check, if non-nil, runs at the end of every control step,
	// before the step counter advances — the hook the invariant
	// checker (internal/osm/invariant) installs. A non-nil error
	// aborts Step. A nil Check costs one predictable branch per step.
	Check func(d *Director) error

	machines []*Machine
	managers []TokenManager
	steppers []Stepper
	step     uint64
	nextAge  uint64
	// order holds the machines in the scan's serve order under the
	// default ranking, kept across steps (see scanOrder).
	order []*Machine
	// list is the scan's serve order under a custom Rank, reused
	// across steps to avoid per-step allocation.
	list []*Machine
	// ev is the event-driven scheduler's state (director_event.go).
	ev eventSched
	// comp is the model's lowered form (compiled.go), built by
	// Compile for the compiled engine and cmd/osmgen; invalidated by
	// AddMachine and AddManager. It is derived from the model and is
	// never serialized: Snapshot ignores it and Restore keeps it.
	comp *GuardProgram
	// attached records that AttachGenerated wrote generated functions
	// onto the model's states (generated.go), which makes the generated
	// engine the default.
	attached bool
}

// NewDirector returns an empty director with default (age-based)
// ranking.
func NewDirector() *Director { return &Director{} }

// AddMachine registers a machine with the director. Registration
// order breaks ranking ties, so it must be deterministic.
func (d *Director) AddMachine(ms ...*Machine) {
	for _, m := range ms {
		m.sched.idx = len(d.machines)
		d.machines = append(d.machines, m)
	}
	d.order = append(d.order, ms...)
	d.ev.init = false
	d.comp = nil
}

// AddManager registers a token manager. Managers implementing Stepper
// receive BeginStep at the start of every control step in registration
// order.
func (d *Director) AddManager(ms ...TokenManager) {
	for _, m := range ms {
		d.managers = append(d.managers, m)
		if s, ok := m.(Stepper); ok {
			d.steppers = append(d.steppers, s)
		}
	}
	d.ev.init = false
	d.comp = nil
}

// Machines returns the registered machines in registration order.
func (d *Director) Machines() []*Machine { return d.machines }

// Managers returns the registered managers in registration order.
func (d *Director) Managers() []TokenManager { return d.managers }

// StepCount returns the number of completed control steps.
func (d *Director) StepCount() uint64 { return d.step }

// Step runs one control step: it notifies Stepper managers, ranks the
// machines, and serves token-transaction requests until no machine can
// transition, per the paper's Figure 3. It returns ErrDeadlock (via
// errors.Is) if deadlock checking is enabled and a cyclic resource
// wait is detected.
//
// Two scheduler implementations produce this schedule: the Figure 3
// scan (stepScan), which the scan and generated engines run, and the
// event-driven scheduler (stepEvent) of the event and compiled
// engines, which skips machines whose blocking resources did not
// change. See EventDriven and the Engine field. Under the generated
// engine a director with no state functions attached fails here, before
// anything is served.
func (d *Director) Step() error {
	eng := d.ActiveEngine()
	if err := d.lower(eng); err != nil {
		return err
	}
	if eng == EngineEvent || eng == EngineCompiled {
		return d.stepEvent(eng)
	}
	return d.stepScan(eng)
}

// reachable returns the states reachable from initial in depth-first
// preorder, each state's successors in edge priority order. It is the
// one walk of a state graph: the compile stage (and so the emitted
// edges_gen.go order), AttachGenerated and Restore's state-name lookup
// all see states in this order.
func reachable(initial *State) []*State {
	var states []*State
	seen := make(map[*State]bool)
	var walk func(s *State)
	walk = func(s *State) {
		if s == nil || seen[s] {
			return
		}
		seen[s] = true
		states = append(states, s)
		for _, e := range s.Out {
			walk(e.To)
		}
	}
	walk(initial)
	return states
}

// serveMachine is the director's one serve of a machine: it commits
// the first satisfied of m's outgoing edges in priority order and
// maintains ages and the tracer. Every engine serves machines through
// it and differs only in how the edges are tried: under the generated
// engine one call of the state's own generated function (StateFn)
// tries them all, and otherwise tryEdges walks them. A state without
// a function (one of a graph registered after the attachment) is
// walked by the interpreter. The second result is the committed edge.
// The caller passes the active engine, which it resolves once per
// step. On failure it leaves the failed primitives of the final pass
// in m.blocked.
func (d *Director) serveMachine(m *Machine, eng Engine) (bool, *Edge, error) {
	wasInitial := m.InInitial()
	m.blocked = m.blocked[:0] // keep only this pass's failures
	var e *Edge
	var err error
	if st := m.cur; eng == EngineGenerated && st.gen != nil {
		e, err = st.gen(m, st.Out)
	} else {
		e, err = d.tryEdges(m, eng)
	}
	if err != nil {
		return false, nil, fmt.Errorf("osm: step %d: %w", d.step, err)
	}
	if e == nil {
		return false, nil, nil
	}
	if wasInitial && !m.InInitial() {
		d.nextAge++
		m.Age = d.nextAge
	}
	if d.Tracer != nil {
		d.Tracer.Transition(d.step, m, e)
	}
	return true, e, nil
}

// tryEdges tries m's outgoing edges in priority order and commits the
// first satisfied one, returning it: through tryEdgeCompiled under
// the compiled engine and Machine.tryEdge otherwise. The compiled
// engine looks the state's lowering up once per serve; a state the
// program does not know (the graph was mutated after lowering) is
// tried by the interpreter. It records in m.sched.untracked, which
// the event loop reads, whether any edge failed outside the token
// protocol (a When predicate).
//
// An edge m's Route excludes (Edge.Routes) is skipped before it is
// tried: it is neither a try nor an untracked failure, because the
// route cannot change until m transitions. A machine that fails only
// by route and at token-protocol primitives therefore sleeps on the
// refusing managers.
func (d *Director) tryEdges(m *Machine, eng Engine) (*Edge, error) {
	m.sched.untracked = false
	var cs *compState
	if eng == EngineCompiled {
		cs = d.comp.stateOf(m.cur)
	}
	route := m.Route
	for i, e := range m.cur.Out {
		if e.excludes(route) {
			continue
		}
		before := len(m.blocked)
		var ok bool
		var err error
		if cs != nil {
			ok, err = m.tryEdgeCompiled(&cs.edges[i])
		} else {
			ok, err = m.tryEdge(e)
		}
		if err != nil {
			return nil, err
		}
		if ok {
			return e, nil
		}
		if len(m.blocked) == before {
			m.sched.untracked = true
		}
	}
	return nil, nil
}

// stepScan is the paper's Figure 3, executed over the full machine
// population every control step under engine eng.
func (d *Director) stepScan(eng Engine) error {
	for _, s := range d.steppers {
		s.BeginStep(d.step)
	}
	list := d.scanOrder()
	progressed := false
	i := 0
	for i < len(list) {
		m := list[i]
		if m.sched.moved { // already transitioned this step
			i++
			continue
		}
		moved, moveEdge, err := d.serveMachine(m, eng)
		if err != nil {
			return err
		}
		if moved {
			progressed = true
			// Mark m served so it is not scheduled again this step;
			// the mark leaves the order itself untouched.
			m.sched.moved = true
			if d.NoRestart || (d.RestartPolicy != nil && !d.RestartPolicy(m, moveEdge)) {
				i++
				continue
			}
			// Restart from the remaining machine with the highest
			// rank: m's transition may have freed resources that a
			// higher-ranked machine was blocked on.
			i = 0
			continue
		}
		i++
	}

	if !progressed && d.CheckDeadlock {
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

// scanOrder returns the machines in this control step's serve order,
// updateOSMList in the paper's Figure 3, and clears their served
// marks. Under the default ranking the order is the director's own,
// kept across steps and sorted by serve key (keyOf), which equals the
// stable AgeRank order: active machines by age, then idle machines by
// registration index. Between two steps only the machines that left
// or re-entered their initial state change key, so the stable
// insertion sort runs in near-linear time. A custom Rank sorts a copy
// of the registration order through its callback every step; the
// stable sort keeps registration order for ties, making the schedule
// deterministic.
func (d *Director) scanOrder() []*Machine {
	if d.Rank == nil {
		o := d.order
		for _, m := range o {
			m.sched.key = keyOf(m)
			m.sched.moved = false
		}
		for i := 1; i < len(o); i++ {
			for j := i; j > 0 && keyLess(o[j], o[j-1]); j-- {
				o[j], o[j-1] = o[j-1], o[j]
			}
		}
		return o
	}
	l := append(d.list[:0], d.machines...)
	for _, m := range l {
		m.sched.moved = false
	}
	for i := 1; i < len(l); i++ {
		for j := i; j > 0 && d.Rank(l[j], l[j-1]); j-- {
			l[j], l[j-1] = l[j-1], l[j]
		}
	}
	d.list = l
	return l
}

// idleKeyBase separates the serve-order keys of idle machines from
// active ones: active machines order first by ascending age, then
// idle machines by registration index. Ages count operations and
// cannot reach 2^63; keys are unique because ages are.
const idleKeyBase = uint64(1) << 63

// keyOf computes m's position in the AgeRank serve order as a single
// comparable integer.
func keyOf(m *Machine) uint64 {
	if m.InInitial() {
		return idleKeyBase + uint64(m.sched.idx)
	}
	return m.Age
}

// keyLess orders two machines by their computed serve keys. Keys are
// unique on any run the director drives; a tie (ages set by hand or
// restored from a snapshot that repeats one) falls back to
// registration order, as AgeRank's stable sort does.
func keyLess(a, b *Machine) bool {
	if a.sched.key != b.sched.key {
		return a.sched.key < b.sched.key
	}
	return a.sched.idx < b.sched.idx
}

// EventDriven reports whether the event-driven scheduler serves the
// director's steps: under EngineEvent and EngineCompiled, and under
// EngineDefault when no generated functions are attached. The scan
// and generated engines, and so the case studies' default, serve
// every machine every step (see Engine; a custom Rank forces the
// scan).
func (d *Director) EventDriven() bool {
	e := d.ActiveEngine()
	return e == EngineEvent || e == EngineCompiled
}

// WillEvaluate reports whether machine m is queued for evaluation at
// the next control step. Under the scan every machine is re-evaluated
// each step, so the answer is always true; under the event-driven
// scheduler a machine is evaluated only while it sits in the ready
// set — suspended machines wait for a manager wake. The invariant
// checker uses this to verify that the event scheduler never leaves a
// machine with a satisfiable edge asleep.
func (d *Director) WillEvaluate(m *Machine) bool {
	if !d.EventDriven() || !d.ev.init {
		return true
	}
	return m.sched.inReady || m.sched.inPend
}

// deadlockCheck runs wait-for-cycle detection after a step in which no
// machine could move.
func (d *Director) deadlockCheck() error {
	cyc := d.findWaitCycle()
	if cyc == nil {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrDeadlock, cycleString(cyc))
}

// Run executes control steps until done returns true or an error
// occurs, and returns the number of steps executed.
func (d *Director) Run(done func() bool) (uint64, error) {
	start := d.step
	for !done() {
		if err := d.Step(); err != nil {
			return d.step - start, err
		}
	}
	return d.step - start, nil
}

// Reset returns every machine to its initial state and restarts the
// step and age counters. Manager state is not touched; callers
// normally rebuild or reset managers alongside.
func (d *Director) Reset() {
	for _, m := range d.machines {
		m.Reset()
	}
	d.step = 0
	d.nextAge = 0
	d.ev.init = false
}
