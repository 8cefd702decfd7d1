// Package gen lowers an elaborated OSM model all the way to Go
// source. Where the compiled engine (internal/osm, EngineCompiled)
// interprets flat guard instruction arrays at runtime, this package
// walks the same lowered structures — a GuardProgram built by
// Director.Compile, with managers classified and edges proven pure or
// not — and emits one monomorphic Go function per state into the
// model's own package. A state's function serves a machine the way
// the director's interpreter walk does: it tries the state's edges in
// priority order and commits the first that holds. The walk itself is
// specialized away: each edge's route mask is a literal, a When
// predicate that several edges share is evaluated once per serve, and
// each edge's guard is inlined, with fixed identifiers as literals,
// each identifier function called once through its primitive, and the
// concrete managers' check/allocate/release fast paths spelled out so
// the Go compiler can see through them. The edge bodies follow the
// check-then-commit contract of the compiled engine's pure path, and
// the functions attach through Director.AttachGenerated for
// EngineGenerated.
//
// The model supplies a Spec mapping the lowered structures back to
// source expressions (which field holds each manager, what each When
// closure reads); everything else is derived from the program. Edges
// the compile stage could not prove pure delegate to the interpreter
// (Machine.GenFallback) — the compiled engine's fallback rule — so
// generated code is an optimization of exactly the cases the pure path
// covers and never a semantic fork. cmd/osmgen drives this package
// from go:generate directives in the case-study simulators.
package gen

import (
	"bytes"
	"fmt"
	"go/format"
	"strings"

	"repro/internal/osm"
)

// The emitted methods hang off the model's *Sim, bound to the
// receiver s, and reach the osm package by its import path.
const (
	simType   = "Sim"
	recv      = "s"
	osmImport = "repro/internal/osm"
)

// Spec describes how to render a lowered model as Go source in the
// model's own package.
type Spec struct {
	// Package is the package name of the emitted file.
	Package string
	// Managers maps a manager's Name() to a Go expression — in terms
	// of the receiver — that evaluates to the same manager value the
	// model's primitives reference. Required for every manager a
	// lowered pure edge touches.
	Managers map[string]string
	// When maps osm.GenKey(state, edge) to a Go boolean expression for
	// the edge's When predicate, evaluated with the machine bound to
	// "m". Required for every lowered pure edge with a non-nil When.
	When map[string]string
}

// File renders the program as one generated Go source file,
// gofmt-formatted and deterministic: the same program and spec always
// produce identical bytes.
func File(prog *osm.GuardProgram, spec Spec) ([]byte, error) {
	if spec.Package == "" {
		return nil, fmt.Errorf("gen: spec has no package name")
	}
	states, err := groupStates(prog.Edges())
	if err != nil {
		return nil, err
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by osmgen; DO NOT EDIT.\n")
	fmt.Fprintf(&b, "//\n")
	fmt.Fprintf(&b, "// One monomorphic function per model state for the generated engine\n")
	fmt.Fprintf(&b, "// (osm.EngineGenerated): each tries its state's edges in priority\n")
	fmt.Fprintf(&b, "// order with route masks, shared When predicates and manager fast\n")
	fmt.Fprintf(&b, "// paths inlined at source level; edges the compile stage could not\n")
	fmt.Fprintf(&b, "// prove pure delegate to the interpreter. Regenerate with: go generate ./...\n")
	fmt.Fprintf(&b, "\npackage %s\n", spec.Package)
	fmt.Fprintf(&b, "\nimport (\n\t%q\n)\n", osmImport)

	fmt.Fprintf(&b, "\n// genStates returns the generated state functions of the model, keyed\n")
	fmt.Fprintf(&b, "// by state name, for Director.AttachGenerated.\n")
	fmt.Fprintf(&b, "func (%s *%s) genStates() map[string]osm.GenState {\n", recv, simType)
	fmt.Fprintf(&b, "\treturn map[string]osm.GenState{\n")
	for _, st := range states {
		fmt.Fprintf(&b, "\t\t%q: {Fn: %s.%s, Edges: []osm.GenEdge{\n", st.name, recv, st.fn)
		for _, ei := range st.edges {
			if r := ei.Edge.Routes; r != 0 {
				fmt.Fprintf(&b, "\t\t\t{Name: %q, Routes: %#x},\n", ei.Edge.Name, r)
			} else {
				fmt.Fprintf(&b, "\t\t\t{Name: %q},\n", ei.Edge.Name)
			}
		}
		fmt.Fprintf(&b, "\t\t}},\n")
	}
	fmt.Fprintf(&b, "\t}\n}\n")

	for _, st := range states {
		em := &emitter{spec: spec, b: &b}
		if err := em.state(st); err != nil {
			return nil, fmt.Errorf("gen: state %s: %w", st.name, err)
		}
	}
	src, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("gen: emitted source does not parse: %w", err)
	}
	return src, nil
}

// stateCode is one state's lowered edges, in priority order, and the
// name of the method that serves it.
type stateCode struct {
	name  string
	fn    string
	edges []osm.EdgeInfo
}

// groupStates splits the program's edges, which it lists state by
// state, into states. A state name or a state/edge pair that does not
// identify one state or edge is ambiguous.
func groupStates(edges []osm.EdgeInfo) ([]stateCode, error) {
	var states []stateCode
	names := make(map[string]bool)
	fns := make(map[string]bool)
	keys := make(map[string]bool, len(edges))
	var from *osm.State
	for _, ei := range edges {
		k := osm.GenKey(ei.State, ei.Edge.Name)
		if keys[k] {
			return nil, fmt.Errorf("gen: key %q is ambiguous: two lowered edges share state and edge names", k)
		}
		keys[k] = true
		if n := len(states); n == 0 || states[n-1].name != ei.State || ei.Edge.From != from {
			if names[ei.State] {
				return nil, fmt.Errorf("gen: state name %q is ambiguous: two lowered states share it", ei.State)
			}
			names[ei.State] = true
			fn := "genServe_" + ident(ei.State)
			for n := 2; fns[fn]; n++ {
				fn = fmt.Sprintf("genServe_%s_%d", ident(ei.State), n)
			}
			fns[fn] = true
			states = append(states, stateCode{name: ei.State, fn: fn})
			from = ei.Edge.From
		}
		st := &states[len(states)-1]
		st.edges = append(st.edges, ei)
	}
	return states, nil
}

// ident renders a model name as a Go identifier fragment.
func ident(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "x"
	}
	return b.String()
}

// emitter renders one state's function.
type emitter struct {
	spec Spec
	b    *bytes.Buffer
	// pend buffers identifier declarations so they land immediately
	// before the first statement that uses them.
	pend []string
	// declared marks instruction indexes whose dynamic identifier
	// variable is already in scope in the current edge's block.
	declared map[int]bool
	// next is the label that ends the current edge's try, and jumped
	// records that some statement jumps to it.
	next   string
	jumped bool
}

func (em *emitter) line(format string, args ...any) {
	for _, d := range em.pend {
		fmt.Fprintf(em.b, "\t%s\n", d)
	}
	em.pend = em.pend[:0]
	fmt.Fprintf(em.b, "\t"+format+"\n", args...)
}

// mgrExpr resolves the source expression of an instruction's manager.
func (em *emitter) mgrExpr(ins osm.InstrInfo) (string, error) {
	if ins.Manager == nil {
		return "", fmt.Errorf("instruction has no manager")
	}
	x, ok := em.spec.Managers[ins.Manager.Name()]
	if !ok {
		return "", fmt.Errorf("spec has no expression for manager %q", ins.Manager.Name())
	}
	return x, nil
}

// idExpr resolves the source expression of an instruction's
// identifier: a literal for fixed identifiers, and for dynamic ones a
// local variable holding the primitive's identifier function's result,
// declared on first use.
func (em *emitter) idExpr(i int, ins osm.InstrInfo) string {
	if !ins.Dynamic {
		switch ins.FixedID {
		case osm.AnyUnit:
			return "osm.AnyUnit"
		case osm.AllTokens:
			return "osm.AllTokens"
		}
		return fmt.Sprintf("%d", ins.FixedID)
	}
	v := fmt.Sprintf("id%d", i)
	if !em.declared[i] {
		em.pend = append(em.pend, fmt.Sprintf("%s := e.Prims[%d].ID(m)", v, i))
		em.declared[i] = true
	}
	return v
}

// state emits the function that serves one state: its edges in
// priority order, each behind its literal route test, with a When
// predicate that several pure edges share evaluated once into a
// variable, before the first of them, that guards each run of
// adjacent edges it covers. A failed try of an edge changes nothing,
// so the shared value holds for every edge it guards. Each edge's try
// is a block that either returns (committed, or an error) or jumps to
// the label after it, where the next edge's try begins.
func (em *emitter) state(st stateCode) error {
	whens := make([]string, len(st.edges))
	uses := make(map[string]int)
	routed := false
	for i, ei := range st.edges {
		routed = routed || ei.Edge.Routes != 0
		if !ei.Pure || ei.Edge.When == nil {
			continue
		}
		x, ok := em.spec.When[osm.GenKey(st.name, ei.Edge.Name)]
		if !ok {
			return fmt.Errorf("edge %s: spec has no expression for the When predicate", ei.Edge.Name)
		}
		whens[i] = x
		uses[x]++
	}

	fmt.Fprintf(em.b, "\n// %s serves state %s: it tries the state's edges in\n", st.fn, st.name)
	fmt.Fprintf(em.b, "// priority order and commits the first that holds.\n")
	fmt.Fprintf(em.b, "func (%s *%s) %s(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {\n",
		recv, simType, st.fn)
	if routed {
		em.line("r := m.Route")
	}
	vars := make(map[string]string) // shared When -> its variable
	open := ""                      // the shared When whose block is open
	for i, ei := range st.edges {
		x := whens[i]
		shared := uses[x] > 1
		if open != "" && x != open {
			em.line("}")
			open = ""
		}
		if shared && open == "" {
			v, ok := vars[x]
			if !ok {
				v = fmt.Sprintf("w%d", len(vars))
				vars[x] = v
				em.line("%s := %s", v, x)
			}
			em.line("if %s {", v)
			open = x
		}
		if !shared {
			x = ""
		}
		if err := em.edge(st.name, ei, i, x == "" && whens[i] != ""); err != nil {
			return fmt.Errorf("edge %s: %w", ei.Edge.Name, err)
		}
	}
	if open != "" {
		em.line("}")
	}
	em.line("return nil, nil")
	fmt.Fprintf(em.b, "}\n")
	return nil
}

// edge emits the try of one lowered edge, the i-th of its state:
// the route test, then the edge's own When predicate when it shares it
// with no other edge (own), the mutation-free availability pass and
// the commit pass.
func (em *emitter) edge(state string, ei osm.EdgeInfo, i int, own bool) error {
	key := osm.GenKey(state, ei.Edge.Name)
	em.declared = map[int]bool{}
	em.next, em.jumped = fmt.Sprintf("next%d", i), false
	cond := "e != nil"
	if r := ei.Edge.Routes; r != 0 {
		cond += fmt.Sprintf(" && (r == 0 || r&%#x != 0)", r)
	}
	em.line("// %s: %s -> %s (%s).", ei.Edge.Name, state, ei.Edge.To.Name, edgeSummary(ei))
	em.line("if e := es[%d]; %s {", i, cond)
	// Edges the compile stage could not prove pure run through the
	// interpreter wholesale.
	if !ei.Pure {
		em.line("if ok, err := m.GenFallback(e); ok || err != nil {")
		em.line("\treturn e, err")
		em.line("}")
		em.line("}")
		return nil
	}
	if own {
		em.line("if !(%s) {", em.spec.When[key])
		em.line("\t%s", em.skip())
		em.line("}")
	}
	stopped, err := em.checks(ei)
	if err != nil {
		return err
	}
	if !stopped {
		if err := em.commit(ei); err != nil {
			return err
		}
		em.line("return e, m.GenFinish(e)")
	}
	em.line("}")
	if em.jumped {
		em.line("%s:", em.next)
	}
	return nil
}

// skip returns the statement that ends the current edge's try without
// committing: a jump to the next edge's.
func (em *emitter) skip() string {
	em.jumped = true
	return "goto " + em.next
}

// checks emits the mutation-free availability pass: a refused conjunct
// records itself with GenBlock and ends the try, and an unheld release
// errors. It reports whether emission stopped at a conjunct that can
// never succeed (reset and bypass managers never grant allocations).
func (em *emitter) checks(ei osm.EdgeInfo) (bool, error) {
	for i, ins := range ei.Code {
		if ins.Op == osm.OpDiscard {
			continue // always satisfied; applied in the commit pass
		}
		mx, err := em.mgrExpr(ins)
		if err != nil {
			return false, err
		}
		id := em.idExpr(i, ins)
		block := fmt.Sprintf("m.GenBlock(e, %d)", i)
		switch ins.Op {
		case osm.OpAllocate:
			switch ins.Kind {
			case "unit", "regfile":
				em.line("if !%s.CanAllocate(%s) {", mx, id)
			case "queue":
				em.line("if !%s.CanAllocate() {", mx)
			case "pool":
				em.line("if %s.Free() == 0 {", mx)
			case "checked":
				em.line("if !%s.CanAllocate(m, %s) {", mx, id)
			case "reset", "bypass":
				// These managers never grant an allocation, so the
				// conjunction can never hold.
				em.line("%s", block)
				em.line("%s", em.skip())
				return true, nil
			default:
				return false, fmt.Errorf("instruction %d: pure edge with %s allocate", i, ins.Kind)
			}
			em.line("\t%s", block)
			em.line("\t%s", em.skip())
			em.line("}")
		case osm.OpInquire:
			if ins.Kind == "pool" {
				em.line("if %s.Free() == 0 {", mx)
			} else {
				em.line("if !%s.Inquire(m, %s) {", mx, id)
			}
			em.line("\t%s", block)
			em.line("\t%s", em.skip())
			em.line("}")
		case osm.OpRelease:
			em.line("t%d := m.GenFindHeld(%s, %s)", i, mx, id)
			em.line("if t%d < 0 {", i)
			em.line("\treturn nil, m.GenErrNotHeld(e, %s, %s)", mx, id)
			em.line("}")
			switch ins.Kind {
			case "unit", "queue":
				em.line("if !%s.CanRelease(m.GenTokenAt(t%d).ID) {", mx, i)
				em.line("\t%s", block)
				em.line("\t%s", em.skip())
				em.line("}")
			case "checked":
				em.line("if !%s.CanRelease(m, m.GenTokenAt(t%d)) {", mx, i)
				em.line("\t%s", block)
				em.line("\t%s", em.skip())
				em.line("}")
			case "pool", "regfile":
				// Always accepted.
			default:
				return false, fmt.Errorf("instruction %d: pure edge with %s release", i, ins.Kind)
			}
		}
	}
	return false, nil
}

// commit emits the transaction pass: every conjunct holds, so the
// grants and releases are applied in instruction order, exactly the
// states the interpreter's commit would leave.
func (em *emitter) commit(ei osm.EdgeInfo) error {
	for i, ins := range ei.Code {
		switch ins.Op {
		case osm.OpAllocate:
			mx, err := em.mgrExpr(ins)
			if err != nil {
				return err
			}
			id := em.idExpr(i, ins)
			if ins.Kind == "checked" {
				em.line("tk%d, ok%d := %s.Allocate(m, %s)", i, i, mx, id)
				em.line("if !ok%d {", i)
				em.line("\treturn nil, m.GenErrAllocContract(e, %s, %s)", mx, id)
				em.line("}")
				em.line("m.GenAdd(tk%d)", i)
				em.line("%s.CommitAllocate(m, tk%d)", mx, i)
			} else {
				em.line("tk%d, _ := %s.Allocate(m, %s)", i, mx, id)
				em.line("m.GenAdd(tk%d)", i)
			}
		case osm.OpRelease:
			mx, err := em.mgrExpr(ins)
			if err != nil {
				return err
			}
			em.line("rt%d := m.GenRemoveAt(t%d)", i, i)
			// Later recorded indexes shift down when this removal
			// preceded them in the buffer.
			for j := i + 1; j < len(ei.Code); j++ {
				if ei.Code[j].Op == osm.OpRelease {
					em.line("if t%d > t%d {", j, i)
					em.line("\tt%d--", j)
					em.line("}")
				}
			}
			switch ins.Kind {
			case "unit", "queue", "pool":
				em.line("%s.Release(m, rt%d)", mx, i)
			case "regfile":
				// Release always accepts; the register write happens at
				// commit, with the token's final Data payload.
				em.line("%s.CommitRelease(m, rt%d)", mx, i)
			case "checked":
				em.line("if !%s.Release(m, rt%d) {", mx, i)
				em.line("\treturn nil, m.GenErrReleaseContract(e, %s)", mx)
				em.line("}")
				em.line("%s.CommitRelease(m, rt%d)", mx, i)
			}
		case osm.OpDiscard:
			em.line("m.GenDiscard(e, %d)", i)
		}
	}
	return nil
}

// edgeSummary renders the guard conjunction for the generated
// function's doc comment.
func edgeSummary(ei osm.EdgeInfo) string {
	if len(ei.Code) == 0 {
		return "no primitives"
	}
	parts := make([]string, 0, len(ei.Code))
	for _, ins := range ei.Code {
		name := "<all>"
		if ins.Manager != nil {
			name = ins.Manager.Name()
		}
		id := fmt.Sprintf("%d", ins.FixedID)
		if ins.Dynamic {
			id = "dyn"
		}
		parts = append(parts, fmt.Sprintf("%s %s:%s", ins.Op, name, id))
	}
	return strings.Join(parts, ", ")
}
