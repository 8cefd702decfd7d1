package osm

import "fmt"

// This file implements the generated execution engine
// (EngineGenerated): the runtime side of lowering a model all the way
// to Go source. Where the compiled engine (compiled.go) interprets
// flat guard instruction arrays, the generated engine calls one
// monomorphic Go function per state — typically emitted by
// internal/osm/gen from the compile stage's guard program — that
// serves a machine in that state: it tries the state's edges in
// priority order, with route masks as literals, each When predicate
// evaluated once per serve however many edges share it, and each
// edge's guard, identifier resolution and concrete manager fast paths
// inlined at source level, so the Go compiler sees through the whole
// serve.
//
// All specialization happens when the functions are generated, so
// they read nothing a lowered program holds: AttachGenerated writes
// each function onto the state it serves, and the director's one
// serve (serveMachine) calls the state's own function under the
// Figure 3 scan (Director.stepScan), whose serve order is kept across
// steps. Only cmd/osmgen and the compiled engine build a
// GuardProgram. A generated function must reproduce the interpreter's
// observable semantics exactly — edge priority, transaction order,
// blocked-primitive attribution, error cases, resulting manager
// state. The check-then-commit shape of the compiled engine's pure
// path (tryEdgePure) is the template: a generated edge body first
// decides every conjunct with mutation-free availability reads, then
// applies the transactions in instruction order. Both fast engines
// share one fallback rule: an edge that is not pure runs through the
// interpreter (GenFallback). The differential suites hold all four
// engines to trace-checksum identity.
//
// The attachment is derived state: nothing of it is serialized, so
// snapshots taken under any engine restore under any other.

// StateFn serves machine m in the state it was generated for. It
// tries the state's edges in priority order and commits the first
// whose guard holds: it applies the transactions, runs the edge
// action and moves the machine (GenFinish), and returns that edge.
// When no edge holds it returns nil and leaves the machine and
// managers untouched, with every refusing primitive recorded by
// GenBlock; a failed When predicate records nothing. edges holds the
// live edges aligned with the list the function was generated for
// (GenState.Edges): edges[i] is the i-th, or nil when the live model
// lacks that edge.
type StateFn func(m *Machine, edges []*Edge) (*Edge, error)

// GenState is one state's generated function and the edges it was
// generated for, in priority order.
type GenState struct {
	Fn    StateFn
	Edges []GenEdge
}

// GenEdge names an edge a state function was generated for, with the
// route mask (Edge.Routes) the function tests as a literal.
type GenEdge struct {
	Name   string
	Routes uint64
}

// GenKey names an edge to the code generator (gen.Spec's When map):
// the source state's name and the edge's name. The generator rejects
// a model where the pair does not identify the edge.
func GenKey(state, edge string) string { return state + "/" + edge }

// AttachGenerated checks generated state functions, keyed by state
// name, against the current model and writes each onto the state it
// serves when they cover the model. Every state with an outgoing edge
// that is reachable from a registered machine's initial state must
// have an entry with a non-nil function, and its live edges must be
// ones the function was generated for: same names, same priority
// order, same route masks. A live state may lack generated edges (a
// model variant compiled out, say), and entries for states not in the
// graph are ignored. Two distinct states that share a name are
// ambiguous. A map that fails the check installs nothing, so the
// director keeps the engine it resolved before (an attachment makes
// the generated engine the default, see ActiveEngine). The map is not
// kept, and attaching builds nothing. Under the generated engine a
// state without a function — one of a graph registered after the
// attachment — is served by the interpreter.
func (d *Director) AttachGenerated(fns map[string]GenState) error {
	bound := make(map[string]*State, len(fns))
	out := make(map[*State][]*Edge, len(fns))
	for _, m := range d.machines {
		if m.Initial == nil {
			return fmt.Errorf("osm: generated: machine %s has no initial state", m.Name)
		}
		if _, done := out[m.Initial]; done {
			continue
		}
		for _, s := range reachable(m.Initial) {
			if prev, dup := bound[s.Name]; dup && prev != s {
				return fmt.Errorf("osm: generated: state name %q is ambiguous: two distinct states share it", s.Name)
			}
			bound[s.Name] = s
			es, err := alignGenEdges(s, fns)
			if err != nil {
				return err
			}
			out[s] = es
		}
	}
	for s, es := range out {
		if es == nil {
			continue
		}
		fn := fns[s.Name].Fn
		if len(es) == len(s.Out) {
			s.gen = fn // Out is the generated list itself
			continue
		}
		// A variant lacks generated edges: serve with the aligned list.
		s.gen = func(m *Machine, _ []*Edge) (*Edge, error) { return fn(m, es) }
	}
	d.attached = true
	return nil
}

// alignGenEdges checks that fns holds a function for state s that was
// generated for s's live edges, and returns them aligned with the
// function's edge list. A state with no edges needs no function and
// gets none.
func alignGenEdges(s *State, fns map[string]GenState) ([]*Edge, error) {
	if len(s.Out) == 0 {
		return nil, nil
	}
	g, ok := fns[s.Name]
	if !ok {
		return nil, fmt.Errorf("osm: generated: state %s: no generated function", s.Name)
	}
	if g.Fn == nil {
		return nil, fmt.Errorf("osm: generated: state %s: function is nil", s.Name)
	}
	es := make([]*Edge, len(g.Edges))
	j := 0
	for _, e := range s.Out {
		for j < len(g.Edges) && g.Edges[j].Name != e.Name {
			j++
		}
		if j == len(g.Edges) {
			return nil, fmt.Errorf("osm: generated: state %s, edge %s: not among the generated edges, or out of their priority order", s.Name, e.Name)
		}
		if g.Edges[j].Routes != e.Routes {
			return nil, fmt.Errorf("osm: generated: state %s, edge %s: route mask %#x, generated for %#x", s.Name, e.Name, e.Routes, g.Edges[j].Routes)
		}
		es[j] = e
		j++
	}
	return es, nil
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
// failed attempt.
func (m *Machine) GenBlock(e *Edge, pi int) {
	m.blocked = append(m.blocked, &e.Prims[pi])
}

// GenDiscard applies e's pi-th primitive as a committed discard.
func (m *Machine) GenDiscard(e *Edge, pi int) { m.commitDiscard(&e.Prims[pi]) }

// GenFinish is the commit epilogue of every edge try, generated or
// not: it runs the edge action, moves the machine and counts the
// transition, returning an error when the machine re-enters its
// initial state still holding tokens.
func (m *Machine) GenFinish(e *Edge) error {
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
// delegate here the try of an edge the compile stage could not prove
// pure — the same rule the compiled engine follows.
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
