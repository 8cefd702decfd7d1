package osm

import "fmt"

// This file implements the generated execution engine
// (EngineGenerated): the runtime side of lowering a model all the way
// to Go source. Where the compiled engine (compiled.go) interprets
// flat guard instruction arrays, the generated engine calls one
// monomorphic Go function per edge — typically emitted by
// internal/osm/gen from the compile stage's guard program, with the
// edge's When predicate, identifier resolution and concrete manager
// fast paths inlined at source level, so the Go compiler sees through
// the whole guard.
//
// The functions run from that same program: Director.Generated binds
// each attached function into its lowered edge, and the director's
// one serve loop (serveMachine) calls it under the event-driven
// scheduler (director_event.go). A generated function must reproduce
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
// Like the program it is bound into, the binding is derived state:
// AddMachine/AddManager invalidate the program, not the attachment,
// and nothing of it is serialized, so snapshots taken under any
// engine restore under any other.

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

// AttachGenerated checks generated edge functions, keyed by
// GenKey(state, edge), against the current model and installs them
// when they cover it. Every edge reachable from a registered machine's
// initial state must have an entry with a non-nil function; entries
// for edges not in the graph (a model variant compiled out, say) are
// allowed and ignored. A map that fails the check is not installed,
// so the director keeps the engine it resolved before (an attachment
// makes the generated engine the default, see ActiveEngine).
// Attaching builds nothing: the generated engine binds the functions
// into the guard program on its first step (Generated). The
// attachment survives model growth: AddMachine and AddManager
// invalidate the program, which is rebuilt and rebound from the same
// function map on the next use.
func (d *Director) AttachGenerated(fns map[string]EdgeFn) error {
	bound := make(map[string]*Edge, len(fns))
	walked := make(map[*State]bool, 1)
	for _, m := range d.machines {
		if m.Initial == nil {
			return fmt.Errorf("osm: generated: machine %s has no initial state", m.Name)
		}
		if walked[m.Initial] {
			continue
		}
		walked[m.Initial] = true
		for _, s := range reachable(m.Initial) {
			for _, e := range s.Out {
				if _, err := genFn(fns, bound, s, e); err != nil {
					return err
				}
			}
		}
	}
	d.genFns = fns
	if d.comp != nil {
		d.comp.bound = false
	}
	return nil
}

// Generated returns the guard program Compile returns, with the
// attached generated functions bound into its edges, compiling and
// binding on first use. It errors when no function set is attached or
// the attachment does not cover the model. The generated engine binds
// implicitly on the first Step; calling Generated (or Lower) directly
// surfaces binding errors early.
func (d *Director) Generated() (*GuardProgram, error) {
	if d.genFns == nil {
		return nil, fmt.Errorf("osm: engine generated: no edge functions attached (Director.AttachGenerated)")
	}
	g, err := d.Compile()
	if err != nil || g.bound {
		return g, err
	}
	bound := make(map[string]*Edge, len(d.genFns))
	for _, cs := range g.states {
		for i := range cs.edges {
			ce := &cs.edges[i]
			if ce.fn, err = genFn(d.genFns, bound, cs.s, ce.e); err != nil {
				return nil, err
			}
		}
	}
	g.bound = true
	return g, nil
}

// genFn looks up the function attached for edge e of state s. bound
// records the edge each key resolved to so far, so a key two distinct
// edges share is rejected as ambiguous.
func genFn(fns map[string]EdgeFn, bound map[string]*Edge, s *State, e *Edge) (EdgeFn, error) {
	k := GenKey(s.Name, e.Name)
	if prev, dup := bound[k]; dup && prev != e {
		return nil, fmt.Errorf("osm: generated: key %q is ambiguous: two distinct edges share state and edge names", k)
	}
	fn, ok := fns[k]
	if !ok {
		return nil, fmt.Errorf("osm: generated: state %s, edge %s: no generated function for key %q", s.Name, e.Name, k)
	}
	if fn == nil {
		return nil, fmt.Errorf("osm: generated: key %q: function is nil", k)
	}
	bound[k] = e
	return fn, nil
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
