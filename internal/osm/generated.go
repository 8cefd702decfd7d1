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
// All specialization happens when the functions are generated, so
// they read nothing a lowered program holds: AttachGenerated writes
// each function onto the edge it serves, and the director's one serve
// loop (serveMachine) calls the edge's own function under the Figure
// 3 scan (Director.stepScan), whose serve order is kept across steps.
// Only cmd/osmgen and the compiled engine build a GuardProgram. A
// generated function must reproduce the interpreter's observable
// semantics exactly — transaction order, blocked-primitive
// attribution, error cases, resulting manager state. The
// check-then-commit shape of the compiled engine's pure path
// (tryEdgePure) is the template: a generated function first decides
// every conjunct with mutation-free availability reads, then applies
// the transactions in instruction order. Both fast engines share one
// fallback rule: an edge that is not pure, or an attempt that meets a
// runtime gate closure, runs through the interpreter (GenFallback).
// The differential suites hold all four engines to trace-checksum
// identity.
//
// The attachment is derived state: nothing of it is serialized, so
// snapshots taken under any engine restore under any other.

// EdgeFn evaluates one edge's guard for m and, when the whole
// conjunction holds, commits it: applies the transactions, runs the
// edge action and moves the machine (GenFinish). On failure it leaves
// the machine and managers untouched, recording the refusing
// primitive with GenBlock; a failed When predicate records nothing,
// which the scheduler reads as an untracked failure.
type EdgeFn func(m *Machine, e *Edge) (bool, error)

// GenKey is the key under which an edge's function is attached: the
// source state's name and the edge's name. State names are unique
// within a model's graphs, so the pair identifies the edge;
// AttachGenerated rejects models where it does not.
func GenKey(state, edge string) string { return state + "/" + edge }

// AttachGenerated checks generated edge functions, keyed by
// GenKey(state, edge), against the current model and writes each onto
// the edge it serves when they cover the model. Every edge reachable
// from a registered machine's initial state must have an entry with a
// non-nil function; entries for edges not in the graph (a model
// variant compiled out, say) are allowed and ignored. A map that
// fails the check installs nothing, so the director keeps the engine
// it resolved before (an attachment makes the generated engine the
// default, see ActiveEngine). The map is not kept, and attaching
// builds nothing. Under the generated engine an edge without a
// function — one of a graph registered after the attachment — is
// tried by the interpreter.
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
				if err := checkGenFn(fns, bound, s, e); err != nil {
					return err
				}
			}
		}
	}
	for k, e := range bound {
		e.gen = fns[k]
	}
	d.attached = true
	return nil
}

// checkGenFn checks that fns holds a function for edge e of state s.
// bound records the edge each key resolved to so far, so a key two
// distinct edges share is rejected as ambiguous.
func checkGenFn(fns map[string]EdgeFn, bound map[string]*Edge, s *State, e *Edge) error {
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
	return nil
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
