package osm

// This file exposes a read-only view of a compiled guard program's
// lowered structures. The Go code generator (internal/osm/gen) walks
// this view — the same elaborated model the compiled engine executes,
// with managers classified and edges proven pure or not — and emits
// one monomorphic Go function per state for the generated engine
// (generated.go).

// InstrInfo describes one lowered guard conjunct.
type InstrInfo struct {
	// Op is the primitive's operation.
	Op Op
	// Kind is the manager classification the compile stage assigned:
	// "unit", "queue", "pool", "regfile", "reset", "bypass" for the
	// built-ins, "checked" for a custom CheckableManager, "generic"
	// otherwise (including manager-less discards).
	Kind string
	// Manager is the pre-resolved manager (nil only for manager-less
	// discards).
	Manager TokenManager
	// Dynamic reports whether the identifier comes from an IDFunc;
	// FixedID is the pre-resolved identifier otherwise.
	Dynamic bool
	FixedID TokenID
}

// EdgeInfo describes one lowered edge.
type EdgeInfo struct {
	// State is the source state's name; Edge is the model edge itself
	// (name, destination, When and Action are its exported fields).
	State string
	Edge  *Edge
	// Pure reports whether the compile stage proved the edge eligible
	// for the check-then-commit fast path (see pureEdge in
	// compiled.go). Non-pure edges must be executed transactionally;
	// generated code delegates them to the interpreter.
	Pure bool
	// Code is the edge's guard conjunction in evaluation order.
	Code []InstrInfo
}

// Edges returns the program's lowered edges in deterministic program
// order: machines in registration order, each graph in the compile
// walk's depth-first order, each state's edges in priority order.
func (g *GuardProgram) Edges() []EdgeInfo {
	out := make([]EdgeInfo, 0, g.stats.Edges)
	for _, cs := range g.states {
		for i := range cs.edges {
			ce := &cs.edges[i]
			ei := EdgeInfo{State: cs.s.Name, Edge: ce.e, Pure: ce.pure}
			for j := range ce.code {
				ins := &ce.code[j]
				ei.Code = append(ei.Code, InstrInfo{
					Op:      ins.op,
					Kind:    ins.kind.String(),
					Manager: ins.mgr,
					Dynamic: ins.dyn,
					FixedID: ins.fixed,
				})
			}
			out = append(out, ei)
		}
	}
	return out
}
