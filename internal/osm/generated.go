package osm

import "fmt"

// This file implements the generated execution engine
// (EngineGenerated): the runtime side of lowering a model all the way
// to Go source. Where the compiled engine (compiled.go) interprets
// flat guard instruction arrays, the generated engine calls one
// monomorphic Go function per edge — typically emitted by
// internal/osm/gen from the same elaborated structures Compile
// consumes, with the edge's When predicate, identifier resolution and
// concrete manager fast paths inlined at source level, so the Go
// compiler sees through the whole guard.
//
// The scheduling contract is unchanged: generated functions run under
// the event-driven step loop (director_event.go) and must reproduce
// the interpreter's observable semantics exactly — transaction order,
// blocked-primitive attribution, error cases, resulting manager
// state. The check-then-commit shape of the compiled engine's pure
// path (tryEdgePure) is the template: a generated function first
// decides every conjunct with mutation-free availability reads, then
// applies the transactions in instruction order. Both fast engines
// share one fallback rule: an edge that is not pure, or an attempt
// that meets a runtime gate closure, runs through the interpreter
// (GenFallback). The differential suites hold all four engines to
// trace-checksum identity.
//
// Like a guard program, an attached function set is derived state: it
// is resolved against the model on demand (AddMachine/AddManager
// invalidate the resolution, not the attachment) and never
// serialized, so snapshots taken under any engine restore under any
// other.

// EdgeFn evaluates one edge's guard for m and, when the whole
// conjunction holds, commits it: applies the transactions, runs the
// edge action and moves the machine (GenFinish). On failure it leaves
// the machine and managers untouched, recording the refusing
// primitive with GenBlock; a failed When predicate records nothing,
// which the scheduler reads as an untracked failure.
type EdgeFn func(m *Machine, e *Edge) (bool, error)

// GenKey is the key under which an edge's function is attached: the
// source state's name and the edge's name. State names are unique
// within a model's graphs, so the pair identifies the edge; resolution
// rejects models where it does not.
func GenKey(state, edge string) string { return state + "/" + edge }

// genEdgeRT is one resolved edge: the model edge plus its generated
// function.
type genEdgeRT struct {
	e  *Edge
	fn EdgeFn
}

// genState is one resolved state: its outgoing edges in priority
// order.
type genState struct {
	prog  *GenProgram
	s     *State
	edges []genEdgeRT
}

// GenProgram is an attached generated-function set resolved against
// the model's state graphs, executed by the generated engine
// (EngineGenerated). Build one by calling Director.AttachGenerated;
// it stays valid until machines or managers are added. A program is
// derived state: it is excluded from snapshots and re-resolved on
// demand instead.
type GenProgram struct {
	states  []*genState
	byState map[*State]*genState
}

// AttachGenerated installs generated edge functions, keyed by
// GenKey(state, edge), and resolves them against the current model.
// Every edge reachable from a registered machine's initial state must
// have an entry with a non-nil function; entries for edges not in
// the graph (a model variant compiled out, say) are allowed and
// ignored. The attachment survives model growth: AddMachine and
// AddManager invalidate the resolution, which is rebuilt from the
// same function map on the next use.
func (d *Director) AttachGenerated(fns map[string]EdgeFn) error {
	d.genFns = fns
	d.gen = nil
	_, err := d.generatedProgram()
	return err
}

// Generated returns the resolved generated-edge program, resolving it
// against the current model on first use. It errors when no function
// set is attached or the attachment does not cover the model. Setting
// Engine to EngineGenerated resolves implicitly on the first Step;
// calling Generated directly surfaces resolution errors early.
func (d *Director) Generated() (*GenProgram, error) { return d.generatedProgram() }

func (d *Director) generatedProgram() (*GenProgram, error) {
	if d.gen != nil {
		return d.gen, nil
	}
	if d.genFns == nil {
		return nil, fmt.Errorf("osm: engine generated: no edge functions attached (Director.AttachGenerated)")
	}
	d.ensurePrims()
	g := &GenProgram{byState: make(map[*State]*genState)}
	bound := make(map[string]*Edge, len(d.genFns))
	for _, m := range d.machines {
		if m.Initial == nil {
			return nil, fmt.Errorf("osm: generated: machine %s has no initial state", m.Name)
		}
		if err := g.addGraph(m.Initial, d.genFns, bound); err != nil {
			return nil, err
		}
	}
	for _, gs := range g.states {
		gs.s.gen = gs // fast state→program lookup for the executor
	}
	d.gen = g
	return g, nil
}

// addGraph resolves the graph reachable from initial, skipping states
// another machine's walk already covered.
func (g *GenProgram) addGraph(initial *State, fns map[string]EdgeFn, bound map[string]*Edge) error {
	var walk func(s *State) error
	walk = func(s *State) error {
		if _, done := g.byState[s]; done {
			return nil
		}
		gs := &genState{prog: g, s: s}
		g.byState[s] = gs
		g.states = append(g.states, gs)
		for _, e := range s.Out {
			k := GenKey(s.Name, e.Name)
			if prev, dup := bound[k]; dup && prev != e {
				return fmt.Errorf("osm: generated: key %q is ambiguous: two distinct edges share state and edge names", k)
			}
			fn, ok := fns[k]
			if !ok {
				return fmt.Errorf("osm: generated: state %s, edge %s: no generated function for key %q", s.Name, e.Name, k)
			}
			if fn == nil {
				return fmt.Errorf("osm: generated: key %q: function is nil", k)
			}
			bound[k] = e
			gs.edges = append(gs.edges, genEdgeRT{e: e, fn: fn})
		}
		for _, e := range s.Out {
			if err := walk(e.To); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(initial)
}

// stateOf returns the resolved form of s, or nil when s is not part of
// the program (the graph was mutated after resolution; the caller
// falls back to the interpreted path).
func (g *GenProgram) stateOf(s *State) *genState {
	if gs := s.gen; gs != nil && gs.prog == g {
		return gs
	}
	if gs, ok := g.byState[s]; ok {
		s.gen = gs // re-stamp after another program overwrote it
		return gs
	}
	return nil
}

// serveGenerated is serveMachine's generated fast path: it evaluates
// the machine's generated outgoing edges in priority order and commits
// the first satisfied one, maintaining ages and the tracer exactly
// like the interpreted path.
func (d *Director) serveGenerated(m *Machine, gs *genState, wasInitial bool) (bool, *Edge, error) {
	for i := range gs.edges {
		ge := &gs.edges[i]
		before := len(m.blocked)
		ok, err := ge.fn(m, ge.e)
		if err != nil {
			return false, nil, fmt.Errorf("osm: step %d: %w", d.step, err)
		}
		if !ok {
			if len(m.blocked) == before {
				m.sched.untracked = true
			}
			continue
		}
		if wasInitial && !m.InInitial() {
			d.nextAge++
			m.Age = d.nextAge
		}
		if d.Tracer != nil {
			d.Tracer.Transition(d.step, m, ge.e)
		}
		return true, ge.e, nil
	}
	return false, nil, nil
}

// The helpers below are the narrow surface generated code is written
// against. They expose exactly the interpreter's bookkeeping —
// token-buffer access, blocked-primitive attribution, the commit
// epilogue — so a generated function can inline everything else and
// still leave the machine in states the interpreter could have
// produced.

// GenFindHeld returns the token-buffer index of the machine's token
// from mgr with the given identifier (AnyUnit matches any), or -1.
// Generated release checks record the index so the commit pass can
// remove the token without a second scan.
func (m *Machine) GenFindHeld(mgr TokenManager, id TokenID) int { return m.findToken(mgr, id) }

// GenTokenAt returns the token at buffer index i.
func (m *Machine) GenTokenAt(i int) Token { return m.tokens[i] }

// GenRemoveAt removes and returns the token at buffer index i. A
// generated commit pass that removes several tokens must compensate
// later recorded indexes for earlier removals.
func (m *Machine) GenRemoveAt(i int) Token {
	t := m.tokens[i]
	m.tokens = append(m.tokens[:i], m.tokens[i+1:]...)
	return t
}

// GenAdd appends a granted token to the machine's buffer.
func (m *Machine) GenAdd(t Token) { m.addToken(t) }

// GenBlock records e's pi-th primitive as the refusing conjunct of a
// failed attempt and returns false, so a generated check pass can
// fail with a single expression.
func (m *Machine) GenBlock(e *Edge, pi int) bool {
	m.blocked = append(m.blocked, &e.Prims[pi])
	return false
}

// GenDiscard applies e's pi-th primitive as a committed discard.
func (m *Machine) GenDiscard(e *Edge, pi int) { m.commitDiscard(&e.Prims[pi]) }

// GenFinish is the commit epilogue of a generated edge function: it
// opens a fresh identifier-resolution epoch, runs the edge action,
// moves the machine and counts the transition, returning the
// interpreter's error when the machine re-enters its initial state
// still holding tokens.
func (m *Machine) GenFinish(e *Edge) error {
	m.dynEpoch++
	if e.Action != nil {
		e.Action(m)
	}
	m.cur = e.To
	m.moves++
	if m.cur == m.Initial && len(m.tokens) > 0 {
		return fmt.Errorf("osm: machine %s returned to initial state %s holding %d token(s); first: %s",
			m.Name, m.Initial.Name, len(m.tokens), m.tokens[0])
	}
	return nil
}

// GenFallback evaluates e through the interpreter. Generated functions
// delegate here when a runtime gate closure (UnitManager.AllocGate and
// friends) makes a manager's availability opaque to the inlined check,
// and for edges the compile stage could not prove pure — the same rule
// the compiled engine follows.
func (m *Machine) GenFallback(e *Edge) (bool, error) { return m.tryEdge(e) }

// GenErrNotHeld is the interpreter's release-of-unheld-token error,
// returned by generated check passes.
func (m *Machine) GenErrNotHeld(e *Edge, mgr TokenManager, id TokenID) error {
	return fmt.Errorf("osm: machine %s: edge %s releases token %s:%d it does not hold",
		m.Name, e.Name, mgr.Name(), id)
}

// GenErrAllocContract reports a CheckableManager that granted
// CanAllocate but refused the Allocate a generated commit pass issued.
func (m *Machine) GenErrAllocContract(e *Edge, mgr TokenManager, id TokenID) error {
	return fmt.Errorf("osm: machine %s: edge %s: manager %s granted CanAllocate(%d) but refused Allocate (CheckableManager contract violation)",
		m.Name, e.Name, mgr.Name(), id)
}

// GenErrReleaseContract reports a CheckableManager that granted
// CanRelease but refused the Release a generated commit pass issued.
func (m *Machine) GenErrReleaseContract(e *Edge, mgr TokenManager) error {
	return fmt.Errorf("osm: machine %s: edge %s: manager %s granted CanRelease but refused Release (CheckableManager contract violation)",
		m.Name, e.Name, mgr.Name())
}
