package osm

import "fmt"

// State is a vertex of an operation state machine. Its outgoing edges
// are ordered by static priority: Out[0] is the highest-priority edge,
// matching the paper's rule that when more than one outgoing edge is
// simultaneously satisfied, execution proceeds along the edge with the
// highest priority.
type State struct {
	// Name identifies the state in traces and analyses.
	Name string
	// Out lists the outgoing edges in decreasing static priority.
	Out []*Edge

	// comp caches the state's lowered form in the most recently
	// installed guard program (compiled.go); stateOf validates the
	// owning program before trusting it.
	comp *compState
	// gen is the state's generated function, written by
	// Director.AttachGenerated; the generated engine calls it with Out
	// in place of the interpreter's walk over Out.
	gen StateFn
}

// NewState returns a named state with no outgoing edges.
func NewState(name string) *State { return &State{Name: name} }

// Edge is a possible transition between two states, guarded by a
// condition that is the conjunction of its primitives. Disjunction is
// deliberately absent from the Λ language; it is realized through
// parallel edges between two states.
type Edge struct {
	// Name identifies the edge in traces (e.g. "e1" or "D->E").
	Name string
	// From and To are the source and destination states.
	From, To *State
	// When, if non-nil, is an additional model-level predicate
	// evaluated before any token transaction, for conditions no
	// manager models (in-order dispatch from a queue head, say). A
	// failed When is a failure the event-driven scheduler cannot
	// track, so a condition fixed when the operation binds (a
	// multiply taking the multiplier path) belongs in Routes instead.
	// When must read model state without changing it, and be safe to
	// evaluate for any machine in the edge's source state, whatever
	// its route: a failed try of an edge leaves model state unchanged,
	// so the generated engine evaluates a predicate that several edges
	// of a state share once per serve, before the first of them, and
	// skips them all when it fails.
	When func(m *Machine) bool
	// Prims is the guard condition: every primitive must succeed
	// simultaneously for the edge to be satisfied.
	Prims []Primitive
	// Routes, if non-zero, restricts the edge to machines whose Route
	// shares a bit with it: a class mask saying which operations the
	// edge can ever serve (a function unit's dispatch edge carries the
	// classes the unit executes). Zero serves every operation. The
	// director skips an excluded edge without trying it (see
	// Machine.Route).
	Routes uint64
	// Action, if non-nil, runs after the transactions commit and
	// before the machine's state is updated. This is where operation
	// semantics execute: reading granted operand values, computing
	// results, attaching results to tokens about to be released.
	Action func(m *Machine)

	// Wake-set cache owned by the event-driven scheduler
	// (director_event.go): the registered managers a commit of this
	// edge mutates, valid for one director and scheduler epoch.
	wakeDir   *Director
	wakeEpoch uint64
	wakeMgrs  []int
	wakeAll   bool
}

// Connect appends an edge from s to to with the given guard primitives
// and returns it for further decoration (When, Action). Priority is
// the append order: earlier edges rank higher.
func (s *State) Connect(name string, to *State, prims ...Primitive) *Edge {
	e := &Edge{Name: name, From: s, To: to, Prims: prims}
	s.Out = append(s.Out, e)
	return e
}

// excludes reports whether a machine on the given route can never take
// e: both are routed and share no bit. The route test comes first, so
// an unrouted machine pays one register test per edge.
func (e *Edge) excludes(route uint64) bool {
	return route != 0 && e.Routes != 0 && e.Routes&route == 0
}

// Machine is one operation state machine: the life of one machine
// operation flowing through the processor. A fixed population of
// Machines is created at model build time (enough to cover the maximum
// number of in-flight operations); each returns to its initial state
// when its operation completes and then represents the next operation.
type Machine struct {
	// Name identifies the machine in traces ("op0", "op1", ...).
	Name string
	// Initial is the state in which the token buffer is empty and no
	// operation is bound to the machine.
	Initial *State
	// Tag carries a model-defined grouping such as the thread ID of a
	// multi-threaded model. Managers may consult it when arbitrating.
	Tag int
	// Ctx holds the model's per-operation payload, typically the
	// decoded instruction and its operand values. Identifier
	// functions read it to resolve token identifiers.
	Ctx any
	// Age is the sequence number assigned when the machine last left
	// its initial state. The default director ranking schedules
	// machines in increasing Age, i.e. seniors first.
	Age uint64
	// Route is the op-static route of the bound operation: bits naming
	// its class, matched against Edge.Routes. The edge action that
	// binds an operation sets it at decode time, and it may change only
	// in an edge action, i.e. when the machine transitions — the
	// contract identifier functions keep. Zero tries every edge. The
	// director never serializes it: a model's Restore re-derives it
	// from the operation it restores.
	Route uint64

	cur    *State
	tokens []Token
	// moves counts committed transitions since construction or the
	// last Reset; the invariant checker's livelock detector watches it
	// for progress.
	moves uint64
	// blocked records the primitives that failed during the most
	// recent scheduling pass, for deadlock analysis and diagnostics.
	blocked []*Primitive
	// pend is scratch space for edge evaluation, reused across
	// attempts to keep the director allocation-free in steady state.
	pend []pendingTxn
	// sched is scheduling state owned by the event-driven director
	// (director_event.go). A machine is scheduled by one director.
	sched machineSched
}

// NewMachine returns a machine resting in the given initial state.
func NewMachine(name string, initial *State) *Machine {
	return &Machine{Name: name, Initial: initial, cur: initial}
}

// State returns the machine's current state.
func (m *Machine) State() *State { return m.cur }

// InInitial reports whether the machine is unused (resting in its
// initial state with an empty token buffer).
func (m *Machine) InInitial() bool { return m.cur == m.Initial }

// Tokens returns the machine's token buffer. The returned slice is the
// live buffer; callers must not modify it.
func (m *Machine) Tokens() []Token { return m.tokens }

// Holds reports whether the machine holds a token from mgr with the
// given identifier.
func (m *Machine) Holds(mgr TokenManager, id TokenID) bool {
	return m.findToken(mgr, id) >= 0
}

// HeldToken returns the machine's token from mgr with the given
// identifier. The second result reports whether such a token is held.
func (m *Machine) HeldToken(mgr TokenManager, id TokenID) (Token, bool) {
	if i := m.findToken(mgr, id); i >= 0 {
		return m.tokens[i], true
	}
	return Token{}, false
}

// SetData attaches a payload to the held token from mgr with the given
// identifier, typically a computed result that the manager will read
// when the token is released (the paper's "release the register-update
// token to m_r with the updated computation result").
func (m *Machine) SetData(mgr TokenManager, id TokenID, data uint64) error {
	if i := m.findToken(mgr, id); i >= 0 {
		m.tokens[i].Data = data
		return nil
	}
	return fmt.Errorf("osm: machine %s holds no token %s:%d", m.Name, mgr.Name(), id)
}

func (m *Machine) findToken(mgr TokenManager, id TokenID) int {
	for i, t := range m.tokens {
		if t.Mgr == mgr && (t.ID == id || id == AnyUnit) {
			return i
		}
	}
	return -1
}

func (m *Machine) addToken(t Token) { m.tokens = append(m.tokens, t) }

func (m *Machine) removeToken(mgr TokenManager, id TokenID) (Token, bool) {
	if i := m.findToken(mgr, id); i >= 0 {
		t := m.tokens[i]
		m.tokens = append(m.tokens[:i], m.tokens[i+1:]...)
		return t, true
	}
	return Token{}, false
}

// pendingTxn records one tentatively successful primitive so the whole
// condition can be committed or cancelled atomically. It points into
// the edge's primitive slice, which is stable for the model's life.
type pendingTxn struct {
	prim *Primitive
	tok  Token
}

// tryEdge evaluates the edge's guard condition for m. If the condition
// is satisfied it commits every transaction, runs the edge action and
// moves the machine to the destination state, reporting true. If any
// conjunct fails it cancels the tentative transactions, records the
// failing primitive for diagnostics, and reports false.
func (m *Machine) tryEdge(e *Edge) (bool, error) {
	if e.When != nil && !e.When(m) {
		return false, nil
	}
	p, err := m.request(e)
	if err != nil {
		return false, err
	}
	if p != nil {
		m.blocked = append(m.blocked, p)
		return false, nil
	}
	// All conjuncts succeeded: commit simultaneously.
	for _, p := range m.pend {
		switch p.prim.Op {
		case OpAllocate:
			m.addToken(p.tok)
			p.prim.Mgr.CommitAllocate(m, p.tok)
		case OpRelease:
			// The operation may have attached a payload to the held
			// token after the tentative grant was recorded; re-read
			// the buffered token so the manager sees the final Data.
			tok, _ := m.removeToken(p.prim.Mgr, p.tok.ID)
			p.prim.Mgr.CommitRelease(m, tok)
		case OpDiscard:
			m.commitDiscard(p.prim)
		}
	}
	m.pend = m.pend[:0]
	return true, m.GenFinish(e)
}

// request is the request pass of an edge try: it issues e's primitives
// in order as tentative requests, recording each granted one in m.pend
// for the commit. At the first refusal it cancels the requests already
// granted and returns the refusing primitive; a release of a token m
// does not hold, or an invalid operation, cancels them likewise and
// returns an error. When every conjunct is granted it returns nil,
// nil with the requests pending in m.pend.
func (m *Machine) request(e *Edge) (*Primitive, error) {
	m.pend = m.pend[:0]
	for pi := range e.Prims {
		p := &e.Prims[pi]
		var tok Token
		ok := true
		switch p.Op {
		case OpAllocate:
			tok, ok = p.Mgr.Allocate(m, p.id(m))
		case OpInquire:
			ok = p.Mgr.Inquire(m, p.id(m))
		case OpRelease:
			id := p.id(m)
			i := m.findToken(p.Mgr, id)
			if i < 0 {
				m.cancel()
				return nil, m.GenErrNotHeld(e, p.Mgr, id)
			}
			tok = m.tokens[i]
			ok = p.Mgr.Release(m, tok)
		case OpDiscard:
			// Discard always succeeds; it takes effect at commit.
		default:
			m.cancel()
			return nil, fmt.Errorf("osm: machine %s: edge %s has invalid primitive op %d", m.Name, e.Name, p.Op)
		}
		if !ok {
			m.cancel()
			return p, nil
		}
		m.pend = append(m.pend, pendingTxn{prim: p, tok: tok})
	}
	return nil, nil
}

// cancel undoes the pending requests in reverse order and empties
// m.pend.
func (m *Machine) cancel() {
	for i := len(m.pend) - 1; i >= 0; i-- {
		p := m.pend[i]
		switch p.prim.Op {
		case OpAllocate:
			p.prim.Mgr.CancelAllocate(m, p.tok)
		case OpRelease:
			p.prim.Mgr.CancelRelease(m, p.tok)
		}
	}
	m.pend = m.pend[:0]
}

func (m *Machine) commitDiscard(p *Primitive) {
	if p.FixedID == AllTokens && p.ID == nil {
		for _, t := range m.tokens {
			if p.Mgr == nil || t.Mgr == p.Mgr {
				t.Mgr.Discarded(m, t)
			}
		}
		if p.Mgr == nil {
			m.tokens = m.tokens[:0]
			return
		}
		kept := m.tokens[:0]
		for _, t := range m.tokens {
			if t.Mgr != p.Mgr {
				kept = append(kept, t)
			}
		}
		m.tokens = kept
		return
	}
	if tok, ok := m.removeToken(p.Mgr, p.id(m)); ok {
		p.Mgr.Discarded(m, tok)
	}
}

// Reset forcibly returns the machine to its initial state, notifying
// managers of every discarded token. It is intended for model-level
// resets between simulation runs, not for in-model squashing (use a
// reset edge with Discard primitives for that, as in Section 4 of the
// paper).
func (m *Machine) Reset() {
	for _, t := range m.tokens {
		t.Mgr.Discarded(m, t)
	}
	m.tokens = m.tokens[:0]
	m.cur = m.Initial
	m.Ctx = nil
	m.Age = 0
	m.Route = 0
	m.moves = 0
	m.blocked = nil
}

// Transitions returns the number of edges the machine has committed
// since construction or its last Reset.
func (m *Machine) Transitions() uint64 { return m.moves }

// ProbeEdge reports whether e's guard condition is currently
// satisfiable for m without committing anything: it runs the request
// pass of an edge try and cancels the granted requests in reverse
// order, relying on the TokenManager contract that cancel restores the
// pre-request state exactly. The When predicate is consulted as in
// normal evaluation, and an edge the machine's Route excludes probes
// false, as the director skips it; the Action never runs, and the
// machine's blocked list is left alone. Releasing a token the machine
// does not hold probes false rather than erroring.
//
// The invariant checker uses the probe to ask "would the Figure 3
// scan have fired this edge?" for machines the event-driven scheduler
// left asleep.
func (m *Machine) ProbeEdge(e *Edge) bool {
	if e.excludes(m.Route) || (e.When != nil && !e.When(m)) {
		return false
	}
	if p, err := m.request(e); p != nil || err != nil {
		return false
	}
	m.cancel()
	return true
}

// Blocked returns the primitives that failed for this machine during
// the most recent director step in which it did not transition. The
// result is only meaningful immediately after Director.Step.
func (m *Machine) Blocked() []*Primitive { return m.blocked }
