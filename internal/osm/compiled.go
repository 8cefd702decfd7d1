package osm

import (
	"fmt"
	"strings"
)

// This file implements the compile stage and the compiled execution
// engine (EngineCompiled). The compile stage lowers a model's state
// graphs into one flat, cache-friendly guard program — the only
// resolved form of a model, with two readers: the compiled engine
// executes it, and the Go code generator (internal/osm/gen, driven by
// cmd/osmgen) emits state functions from it. The generated engine
// calls those functions from the states themselves (generated.go) and
// builds no program. The executor tries one lowered edge without
// interface dispatch on the hot path; the director's walk over a
// state's edges (tryEdges) tries the state's lowered edges under the
// event-driven scheduler.
//
// The interpreted evaluator (Machine.tryEdge) walks each edge's
// []Primitive and issues every transaction through the TokenManager
// interface: an itab load and indirect call per primitive per attempt.
// Lowering runs once per model and moves that resolution to compile
// time:
//
//   - every primitive becomes one guardInstr carrying its operation,
//     its fixed identifier (or its identifier function, called on
//     every try), and a concrete-type manager pointer when the manager
//     is one of the built-ins (pool, queue, regfile, unit, reset,
//     bypass);
//   - the executor dispatches on a dense kind tag and calls the
//     concrete methods directly, so the calls are statically bound
//     (and the built-ins' no-op commit methods disappear entirely
//     instead of costing an interface call);
//   - managers of model-defined types keep interface dispatch, so
//     custom managers — including types embedding a built-in, which a
//     dynamic type switch deliberately does not match — behave
//     exactly as interpreted.
//
// The executor runs only edges the compile stage proved pure (see
// tryEdgePure). Every other edge runs through the interpreter, exactly
// as the generated engine's GenFallback does, so transactional
// semantics have one implementation: Machine.tryEdge.
//
// Compiled state is derived: it is rebuilt from the model on demand
// (AddMachine/AddManager invalidate it) and is never serialized, so
// snapshots taken under any engine restore under any other.

// mgrKind classifies a lowered primitive's manager for devirtualized
// dispatch. kindGeneric keeps the TokenManager interface path.
type mgrKind uint8

const (
	kindGeneric mgrKind = iota
	kindPool
	kindQueue
	kindRegFile
	kindUnit
	kindReset
	kindBypass
	// kindChecked marks a custom manager that implements
	// CheckableManager: dispatch stays on the interface, but the edge
	// may still take the check-then-commit fast path.
	kindChecked
)

func (k mgrKind) String() string {
	switch k {
	case kindPool:
		return "pool"
	case kindQueue:
		return "queue"
	case kindRegFile:
		return "regfile"
	case kindUnit:
		return "unit"
	case kindReset:
		return "reset"
	case kindBypass:
		return "bypass"
	case kindChecked:
		return "checked"
	}
	return "generic"
}

// guardInstr is one lowered guard conjunct. Exactly one of the
// concrete manager pointers is set for built-in kinds; mgr always
// holds the interface value (nil only for manager-less discards).
type guardInstr struct {
	op   Op
	kind mgrKind
	dyn  bool // identifier comes from an IDFunc (prim.ID)

	fixed TokenID
	prim  *Primitive // original conjunct: blocked lists, IDFunc, discard

	mgr   TokenManager
	chk   CheckableManager // non-nil exactly when kind == kindChecked
	pool  *PoolManager
	queue *QueueManager
	rf    *RegFileManager
	unit  *UnitManager
	reset *ResetManager
	byp   *BypassManager
}

// compEdge is one lowered edge: the original edge (for When, Action,
// destination, tracing and the interpreter fallback) and its flat
// instruction array.
//
// pure marks edges the executor may run check-then-commit (see
// tryEdgePure): the compile stage proved from the built-in managers'
// semantics that the guard can be decided by pure availability reads,
// with the transactions applied only once the whole conjunction is
// known to hold — no tentative grants, no pending-transaction
// bookkeeping, no cancellation. This is sound because every manager a
// pure edge touches reverses cancelled tentative grants exactly
// (CancelAllocate leaves the manager bit-identical, sequence counters
// included), so skipping the grant-then-cancel dance leaves the same
// state the interpreter would.
type compEdge struct {
	e    *Edge
	code []guardInstr
	pure bool
	// scratch is per-attempt working space indexed like code (token-
	// buffer positions found by the pure check pass, consumed by the
	// commit pass). Directors step single-threaded and each director
	// compiles its own program, so one scratch per lowered edge
	// suffices.
	scratch []int32
}

// compState is one lowered state: its outgoing edges in priority
// order.
type compState struct {
	prog  *GuardProgram
	s     *State
	edges []compEdge
}

// CompileStats summarizes a compiled guard program.
type CompileStats struct {
	// States, Edges and Instrs count the lowered model elements.
	States, Edges, Instrs int
	// Devirtualized counts instructions bound to a concrete built-in
	// manager type; Generic counts instructions that keep interface
	// dispatch (custom managers and manager-less discards); Checked
	// counts interface-dispatched instructions whose manager
	// implements CheckableManager and so still qualifies for the
	// check-then-commit fast path.
	Devirtualized, Generic, Checked int
	// Dynamic counts instructions whose identifier is computed by an
	// IDFunc.
	Dynamic int
	// Pure counts edges eligible for the check-then-commit fast path
	// (guards decided by pure availability reads, transactions applied
	// only on success).
	Pure int
}

// GuardProgram is a model lowered to flat guard instruction arrays,
// executed by the compiled engine (EngineCompiled) and printed as Go
// state functions by internal/osm/gen. Build one with
// Director.Compile; it stays valid until machines or managers are
// added. A program is derived state: it is excluded from snapshots
// and rebuilt on demand instead.
type GuardProgram struct {
	states  []*compState
	byState map[*State]*compState
	stats   CompileStats
}

// Compile lowers every state graph reachable from the registered
// machines' initial states into a guard program, building it on first
// use and returning the cached program afterwards. Setting Engine to
// EngineCompiled compiles implicitly on the first Step; calling
// Compile directly surfaces lowering errors early and exposes the
// program for inspection.
func (d *Director) Compile() (*GuardProgram, error) {
	if d.comp != nil {
		return d.comp, nil
	}
	g := &GuardProgram{byState: make(map[*State]*compState)}
	for _, m := range d.machines {
		if m.Initial == nil {
			return nil, fmt.Errorf("osm: compile: machine %s has no initial state", m.Name)
		}
		if _, done := g.byState[m.Initial]; done {
			continue // another machine's walk covered this graph
		}
		for _, s := range reachable(m.Initial) {
			if _, done := g.byState[s]; done {
				continue
			}
			cs := &compState{prog: g, s: s}
			g.byState[s] = cs
			g.states = append(g.states, cs)
			for _, e := range s.Out {
				ce, err := g.lowerEdge(s, e)
				if err != nil {
					return nil, err
				}
				cs.edges = append(cs.edges, ce)
				g.stats.Edges++
			}
			s.comp = cs // fast state→program lookup for the executor
		}
	}
	g.stats.States = len(g.states)
	d.comp = g
	return g, nil
}

// lowerEdge translates an edge's primitive conjunction into a guard
// instruction array, validating what the interpreter would only trip
// over at runtime (invalid operations, transactions without a
// manager), and classifies the edge for the check-then-commit fast
// path.
func (g *GuardProgram) lowerEdge(st *State, e *Edge) (compEdge, error) {
	code := make([]guardInstr, 0, len(e.Prims))
	for pi := range e.Prims {
		p := &e.Prims[pi]
		ins := guardInstr{
			op:    p.Op,
			dyn:   p.ID != nil,
			fixed: p.FixedID,
			prim:  p,
			mgr:   p.Mgr,
		}
		switch p.Op {
		case OpAllocate, OpInquire, OpRelease:
			if p.Mgr == nil {
				return compEdge{}, fmt.Errorf("osm: compile: state %s, edge %s: %s primitive has no manager",
					st.Name, e.Name, p.Op)
			}
		case OpDiscard:
			// A nil manager is legal here: with AllTokens it empties
			// the whole buffer, otherwise it discards nothing.
		default:
			return compEdge{}, fmt.Errorf("osm: compile: state %s, edge %s: invalid primitive op %d",
				st.Name, e.Name, int(p.Op))
		}
		// The type switch matches the dynamic type exactly: a model
		// type embedding a built-in manager (overriding some methods)
		// stays kindGeneric and keeps interface dispatch, which is
		// required for correctness.
		switch mm := p.Mgr.(type) {
		case *UnitManager:
			ins.kind, ins.unit = kindUnit, mm
		case *QueueManager:
			ins.kind, ins.queue = kindQueue, mm
		case *PoolManager:
			ins.kind, ins.pool = kindPool, mm
		case *RegFileManager:
			ins.kind, ins.rf = kindRegFile, mm
		case *ResetManager:
			ins.kind, ins.reset = kindReset, mm
		case *BypassManager:
			ins.kind, ins.byp = kindBypass, mm
		default:
			if c, ok := p.Mgr.(CheckableManager); ok && p.Op != OpDiscard {
				ins.kind, ins.chk = kindChecked, c
			} else {
				ins.kind = kindGeneric
			}
		}
		switch ins.kind {
		case kindGeneric:
			g.stats.Generic++
		case kindChecked:
			g.stats.Checked++
		default:
			g.stats.Devirtualized++
		}
		if ins.dyn {
			g.stats.Dynamic++
		}
		g.stats.Instrs++
		code = append(code, ins)
	}
	ce := compEdge{e: e, code: code}
	ce.pure = pureEdge(code)
	if ce.pure {
		ce.scratch = make([]int32, len(code))
		g.stats.Pure++
	}
	return ce, nil
}

// pureEdge decides whether an edge qualifies for the check-then-commit
// fast path. The pure path evaluates every conjunct with a mutation-
// free availability read before applying any transaction, whereas the
// interpreter's tentative grants are visible to the later conjuncts of
// the same edge. The two are equivalent exactly when:
//
//   - every Allocate and Release targets a manager whose request
//     outcome the compile stage can predict without transacting: a
//     built-in, or a custom manager implementing CheckableManager.
//     Inquire needs no prediction — the interpreter itself issues it
//     as a plain question with nothing to cancel, so any manager
//     qualifies (managers must judge availability from their own and
//     committed state; see CheckableManager);
//   - no conjunct reads a manager that an earlier Allocate or Release
//     of the same edge has tentatively mutated (an earlier Inquire is
//     harmless — it mutates nothing in a built-in);
//   - discards come last: a committed discard frees tokens, and under
//     the interpreter no request observes that, so no pure check or
//     applied transaction may run after one either.
//
// Edges that fail the test run through the interpreter.
func pureEdge(code []guardInstr) bool {
	sawDiscard := false
	for i := range code {
		ins := &code[i]
		if ins.op == OpDiscard {
			sawDiscard = true
			continue
		}
		if sawDiscard || (ins.kind == kindGeneric && ins.op != OpInquire) {
			return false
		}
		for k := 0; k < i; k++ {
			prev := &code[k]
			if prev.op == OpDiscard || prev.mgr != ins.mgr {
				continue
			}
			if prev.op == OpAllocate || prev.op == OpRelease {
				return false
			}
		}
	}
	return true
}

// stateOf returns the lowered form of s, or nil when s is not part of
// the program or its edges changed after compilation (the graph was
// mutated; the caller falls back to the interpreter).
func (g *GuardProgram) stateOf(s *State) *compState {
	cs := s.comp
	if cs == nil || cs.prog != g {
		if cs = g.byState[s]; cs == nil {
			return nil
		}
		s.comp = cs // re-stamp after another program overwrote it
	}
	if len(cs.edges) != len(s.Out) {
		return nil // edges were added or removed after lowering
	}
	return cs
}

// Stats returns the program's lowering statistics.
func (g *GuardProgram) Stats() CompileStats { return g.stats }

// Disassemble renders the program as text, one instruction per line,
// for debugging and tests.
func (g *GuardProgram) Disassemble() string {
	var b strings.Builder
	for _, cs := range g.states {
		fmt.Fprintf(&b, "state %s:\n", cs.s.Name)
		for i := range cs.edges {
			ce := &cs.edges[i]
			mode := ""
			if ce.pure {
				mode = " (pure)"
			}
			fmt.Fprintf(&b, "  edge %s -> %s:%s\n", ce.e.Name, ce.e.To.Name, mode)
			for j := range ce.code {
				ins := &ce.code[j]
				name := "<all>"
				if ins.mgr != nil {
					name = ins.mgr.Name()
				}
				id := fmt.Sprintf("%d", ins.fixed)
				if ins.dyn {
					id = "dyn"
				}
				fmt.Fprintf(&b, "    %2d: %-8s %-10s id=%-12s %s\n",
					j, ins.op, name, id, ins.kind)
			}
		}
	}
	return b.String()
}

// tryEdgeCompiled is the compiled counterpart of Machine.tryEdge: pure
// edges run check-then-commit, every other edge runs through the
// interpreter itself. The observable semantics — transaction order,
// failure attribution, error cases, resulting manager state — are the
// interpreter's; the differential suites hold the engines to
// trace-checksum identity.
func (m *Machine) tryEdgeCompiled(ce *compEdge) (bool, error) {
	if ce.pure {
		return m.tryEdgePure(ce)
	}
	return m.tryEdge(ce.e)
}

// tryEdgePure runs a pure-classified edge check-then-commit: a first
// pass decides every conjunct with mutation-free availability reads,
// and only when the whole conjunction holds does a second pass apply
// the transactions — which at that point cannot fail. Failures cost a
// few loads and one blocked-list append; successes skip the
// pending-transaction bookkeeping entirely. This is where compilation
// actually beats interpretation: the interpreter cannot know a
// manager's semantics, so it must transact tentatively and cancel,
// while the compile stage proved (pureEdge) that checking first is
// equivalent.
func (m *Machine) tryEdgePure(ce *compEdge) (bool, error) {
	e := ce.e
	if e.When != nil && !e.When(m) {
		return false, nil
	}
	code := ce.code
	for i := range code {
		ins := &code[i]
		id := ins.fixed
		if ins.dyn {
			id = ins.prim.ID(m)
		}
		ok := false
		switch ins.op {
		case OpAllocate:
			switch ins.kind {
			case kindUnit:
				ok = ins.unit.CanAllocate(id)
			case kindQueue:
				ok = ins.queue.CanAllocate()
			case kindPool:
				ok = ins.pool.free > 0
			case kindRegFile:
				ok = ins.rf.CanAllocate(id)
			case kindChecked:
				ok = ins.chk.CanAllocate(m, id)
			}
			// Reset and bypass managers never grant; ok stays false.
		case OpInquire:
			switch ins.kind {
			case kindUnit:
				ok = ins.unit.Inquire(m, id)
			case kindQueue:
				ok = ins.queue.Inquire(m, id)
			case kindPool:
				ok = ins.pool.free > 0
			case kindRegFile:
				ok = ins.rf.Inquire(m, id)
			case kindReset:
				ok = ins.reset.Inquire(m, id)
			case kindBypass:
				ok = ins.byp.Inquire(m, id)
			default:
				// Checked and generic managers answer through the
				// interface, exactly as the interpreter asks them.
				ok = ins.mgr.Inquire(m, id)
			}
		case OpRelease:
			idx := m.findToken(ins.mgr, id)
			if idx < 0 {
				return false, fmt.Errorf("osm: machine %s: edge %s releases token %s:%d it does not hold",
					m.Name, e.Name, ins.mgr.Name(), id)
			}
			ce.scratch[i] = int32(idx)
			tok := m.tokens[idx]
			switch ins.kind {
			case kindUnit:
				ok = ins.unit.CanRelease(tok.ID)
			case kindQueue:
				ok = ins.queue.CanRelease(tok.ID)
			case kindPool, kindRegFile:
				ok = true
			case kindChecked:
				ok = ins.chk.CanRelease(m, tok)
			}
			// Reset and bypass never grant, so a held token cannot
			// name them; ok stays false.
		case OpDiscard:
			// Always succeeds; applied in the commit pass.
			ok = true
		}
		if !ok {
			m.blocked = append(m.blocked, ins.prim)
			return false, nil
		}
	}
	// Every conjunct holds: apply the transactions in instruction
	// order, exactly the states the interpreter's commit would leave.
	// Releases reuse the token-buffer positions the check pass found
	// (commit-pass appends only grow the buffer, and the same-manager
	// rule keeps the positions valid; earlier removals are compensated
	// below), so the interpreter's second token scan disappears.
	for i := range code {
		ins := &code[i]
		switch ins.op {
		case OpAllocate:
			id := ins.fixed
			if ins.dyn {
				id = ins.prim.ID(m)
			}
			var tok Token
			switch ins.kind {
			case kindUnit:
				tok, _ = ins.unit.Allocate(m, id)
			case kindQueue:
				tok, _ = ins.queue.Allocate(m, id)
			case kindPool:
				tok, _ = ins.pool.Allocate(m, id)
			case kindRegFile:
				tok, _ = ins.rf.Allocate(m, id)
			case kindChecked:
				var ok bool
				if tok, ok = ins.chk.Allocate(m, id); !ok {
					return false, fmt.Errorf("osm: machine %s: edge %s: manager %s granted CanAllocate(%d) but refused Allocate (CheckableManager contract violation)",
						m.Name, e.Name, ins.mgr.Name(), id)
				}
			}
			m.addToken(tok)
			if ins.kind == kindChecked {
				ins.chk.CommitAllocate(m, tok)
			}
			// CommitAllocate is a no-op for every built-in manager.
		case OpRelease:
			idx := int(ce.scratch[i])
			tok := m.tokens[idx]
			m.tokens = append(m.tokens[:idx], m.tokens[idx+1:]...)
			for j := i + 1; j < len(code); j++ {
				if code[j].op == OpRelease && ce.scratch[j] > int32(idx) {
					ce.scratch[j]--
				}
			}
			switch ins.kind {
			case kindUnit:
				ins.unit.Release(m, tok)
			case kindQueue:
				ins.queue.Release(m, tok)
			case kindPool:
				ins.pool.Release(m, tok)
			case kindRegFile:
				// Release always accepts; the register write happens
				// at commit, with the token's final Data payload.
				ins.rf.CommitRelease(m, tok)
			case kindChecked:
				if !ins.chk.Release(m, tok) {
					return false, fmt.Errorf("osm: machine %s: edge %s: manager %s granted CanRelease but refused Release (CheckableManager contract violation)",
						m.Name, e.Name, ins.mgr.Name())
				}
				ins.chk.CommitRelease(m, tok)
			}
		case OpDiscard:
			m.commitDiscard(ins.prim)
		}
	}
	return true, m.GenFinish(e)
}
