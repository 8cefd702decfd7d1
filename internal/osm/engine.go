package osm

import "fmt"

// Engine selects the director's execution engine. All engines produce
// the identical transition schedule — the differential tests in
// internal/experiments check this trace-for-trace — and share one
// serve (Director.serveMachine): a machine's outgoing edges are tried
// in priority order and the first whose guard holds commits. They
// differ only in how a control step picks the machines to serve (the
// Figure 3 scan or the event-driven scheduler, see
// Director.EventDriven) and how the edges are tried:
//
//   - EngineDefault, the zero Engine, lets the model choose: the
//     director resolves it to EngineGenerated when generated state
//     functions are attached (the case studies attach theirs at
//     construction) and to EngineEvent otherwise (ADL and example
//     models). See Director.ActiveEngine.
//   - EngineEvent is the event-driven scheduler of director_event.go:
//     machines sleep on the managers that refused them and only woken
//     machines are re-evaluated. Edges are tried by the interpreter,
//     Machine.tryEdge.
//   - EngineScan is the reference scheduler, the paper's Figure 3
//     executed over the full machine population every step in serve
//     key order, with the same interpreter.
//   - EngineCompiled keeps the event-driven scheduling but tries
//     edges through the compile stage's guard program (compiled.go):
//     flat per-edge instruction arrays with pre-resolved managers and
//     concrete-type fast paths for the built-in managers, so the hot
//     loop runs without interface dispatch. The interpreted engines remain the differential
//     oracle.
//   - EngineGenerated runs the Figure 3 scan, as EngineScan does, but
//     serves each machine with one call of its state's own generated
//     Go function (generated.go), written onto the state by
//     Director.AttachGenerated — one monomorphic function per state,
//     typically emitted by internal/osm/gen from the guard program,
//     with route masks as literals, shared When predicates evaluated
//     once per serve and manager fast paths inlined at source level.
//     It pairs specialized states with a static serve order: on the
//     case studies the scan's every-machine evaluation costs less
//     than the event scheduler's wake bookkeeping, which skips few
//     machines there. It builds no program: only EngineCompiled (and
//     cmd/osmgen) does.
type Engine uint8

const (
	// EngineDefault resolves to EngineGenerated when generated state
	// functions are attached and to EngineEvent otherwise.
	EngineDefault Engine = iota
	// EngineEvent is the event-driven scheduler with the interpreter.
	EngineEvent
	// EngineScan is the reference Figure 3 scan scheduler.
	EngineScan
	// EngineCompiled executes compiled guard programs under
	// event-driven scheduling.
	EngineCompiled
	// EngineGenerated executes generated Go state functions under the
	// Figure 3 scan (see Director.AttachGenerated).
	EngineGenerated
)

// String returns the engine's canonical spelling, as accepted by
// ParseEngine. EngineDefault, which ParseEngine spells as the empty
// string, prints as "default".
func (e Engine) String() string {
	switch e {
	case EngineDefault:
		return "default"
	case EngineEvent:
		return "event"
	case EngineScan:
		return "scan"
	case EngineCompiled:
		return "compiled"
	case EngineGenerated:
		return "generated"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// ParseEngine parses an engine name. The empty string selects
// EngineDefault, the zero value of Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "":
		return EngineDefault, nil
	case "event":
		return EngineEvent, nil
	case "scan":
		return EngineScan, nil
	case "compiled":
		return EngineCompiled, nil
	case "generated":
		return EngineGenerated, nil
	}
	return EngineDefault, fmt.Errorf("osm: unknown engine %q (want scan, event, compiled or generated)", s)
}

// ActiveEngine returns the engine the next Step runs. A custom Rank
// forces the reference scan (the event-driven schedulers require
// age-based ranking); EngineDefault resolves to EngineGenerated when
// generated state functions are attached and to EngineEvent otherwise;
// any other Engine runs as set.
func (d *Director) ActiveEngine() Engine {
	if d.Rank != nil {
		return EngineScan
	}
	if d.Engine == EngineDefault {
		if d.attached {
			return EngineGenerated
		}
		return EngineEvent
	}
	return d.Engine
}

// Lowered reports whether the director holds a lowered guard
// program. Only Compile builds one: under EngineCompiled on the first
// step or through Lower, or when called directly (cmd/osmgen). The
// other engines run from the model itself and the states' own
// generated functions.
func (d *Director) Lowered() bool { return d.comp != nil }

// Lower prepares what the active engine runs from, so a constructor
// surfaces its error before the first step: under EngineCompiled it
// builds the guard program if it is not built yet, and under
// EngineGenerated it reports a director with no state functions
// attached. Every Step does the same for the engine it resolved.
func (d *Director) Lower() error { return d.lower(d.ActiveEngine()) }

func (d *Director) lower(eng Engine) error {
	switch eng {
	case EngineCompiled:
		_, err := d.Compile()
		return err
	case EngineGenerated:
		if !d.attached {
			return fmt.Errorf("osm: engine generated: no state functions attached (Director.AttachGenerated)")
		}
	}
	return nil
}
