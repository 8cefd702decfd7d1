package osm

import (
	"fmt"
	"strings"
	"testing"
)

// genPipeline builds the saturated 5-stage ring of bench_test.go with
// unique state names (the generated engine resolves states by name)
// and hand-written generated state functions written exactly the way
// internal/osm/gen emits them: per edge the route test, the
// mutation-free availability pass and the commit pass through the Gen
// helpers, a refusal jumping to the next edge's try.
// tries, when non-nil, counts state-function invocations so tests can
// assert the generated path actually ran.
func genPipeline(tries *int) (*Director, map[string]GenState) {
	stages := make([]*UnitManager, 5)
	states := make([]*State, 6)
	states[0] = NewState("I")
	for k := 0; k < 5; k++ {
		stages[k] = NewUnitManager(fmt.Sprintf("s%d", k), 1)
		states[k+1] = NewState(fmt.Sprintf("S%d", k+1))
	}
	states[0].Connect("in", states[1], Alloc(stages[0], 0))
	for k := 1; k < 5; k++ {
		states[k].Connect("adv", states[k+1], Release(stages[k-1], 0), Alloc(stages[k], 0))
	}
	states[5].Connect("out", states[0], Release(stages[4], 0))
	d := NewDirector()
	d.NoRestart = true
	for _, s := range stages {
		d.AddManager(s)
	}
	for k := 0; k < 6; k++ {
		d.AddMachine(NewMachine(fmt.Sprintf("m%d", k), states[0]))
	}

	count := func() {
		if tries != nil {
			*tries++
		}
	}
	fns := map[string]GenState{
		"I": {Fn: func(m *Machine, es []*Edge) (*Edge, error) {
			count()
			if e := es[0]; e != nil {
				if !stages[0].CanAllocate(0) {
					m.GenBlock(e, 0)
					goto next0
				}
				tk0, _ := stages[0].Allocate(m, 0)
				m.GenAdd(tk0)
				return e, m.GenFinish(e)
			}
		next0:
			return nil, nil
		}, Edges: []GenEdge{{Name: "in"}}},
		"S5": {Fn: func(m *Machine, es []*Edge) (*Edge, error) {
			count()
			if e := es[0]; e != nil {
				t0 := m.GenFindHeld(stages[4], 0)
				if t0 < 0 {
					return nil, m.GenErrNotHeld(e, stages[4], 0)
				}
				if !stages[4].CanRelease(m.GenTokenAt(t0).ID) {
					m.GenBlock(e, 0)
					goto next0
				}
				rt0 := m.GenRemoveAt(t0)
				stages[4].Release(m, rt0)
				return e, m.GenFinish(e)
			}
		next0:
			return nil, nil
		}, Edges: []GenEdge{{Name: "out"}}},
	}
	for k := 1; k < 5; k++ {
		rel, alc := stages[k-1], stages[k]
		fns[fmt.Sprintf("S%d", k)] = GenState{Fn: func(m *Machine, es []*Edge) (*Edge, error) {
			count()
			if e := es[0]; e != nil {
				t0 := m.GenFindHeld(rel, 0)
				if t0 < 0 {
					return nil, m.GenErrNotHeld(e, rel, 0)
				}
				if !rel.CanRelease(m.GenTokenAt(t0).ID) {
					m.GenBlock(e, 0)
					goto next0
				}
				if !alc.CanAllocate(0) {
					m.GenBlock(e, 1)
					goto next0
				}
				rt0 := m.GenRemoveAt(t0)
				rel.Release(m, rt0)
				tk1, _ := alc.Allocate(m, 0)
				m.GenAdd(tk1)
				return e, m.GenFinish(e)
			}
		next0:
			return nil, nil
		}, Edges: []GenEdge{{Name: "adv"}}}
	}
	return d, fns
}

// traceLog records every committed transition as "step/machine/edge"
// lines, a total order the engines must agree on exactly.
func traceLog(d *Director) *strings.Builder {
	var b strings.Builder
	d.Tracer = TracerFunc(func(step uint64, m *Machine, e *Edge) {
		fmt.Fprintf(&b, "%d/%s/%s\n", step, m.Name, e.Name)
	})
	return &b
}

// TestGeneratedEngineMatchesEvent holds the generated engine to
// trace identity with the event engine on the saturated ring, and
// asserts the generated functions actually executed (rather than the
// model silently running interpreted).
func TestGeneratedEngineMatchesEvent(t *testing.T) {
	ref, _ := genPipeline(nil)
	ref.Engine = EngineEvent
	want := traceLog(ref)
	for i := 0; i < 200; i++ {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}

	tries := 0
	d, fns := genPipeline(&tries)
	d.Engine = EngineGenerated
	if err := d.AttachGenerated(fns); err != nil {
		t.Fatal(err)
	}
	got := traceLog(d)
	for i := 0; i < 200; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if tries == 0 {
		t.Fatal("generated state functions never ran")
	}
	if got.String() != want.String() {
		t.Fatalf("transition traces diverge:\ngenerated:\n%s\nevent:\n%s", got, want)
	}
}

// TestGeneratedEngineSurvivesModelGrowth adds a machine after the
// engine ran: the late machine shares the attached graph, whose states
// carry their functions, so the steps after it keep running them.
func TestGeneratedEngineSurvivesModelGrowth(t *testing.T) {
	tries := 0
	d, fns := genPipeline(&tries)
	d.Engine = EngineGenerated
	if err := d.AttachGenerated(fns); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	d.AddMachine(NewMachine("late", d.Machines()[0].Initial))
	before := tries
	for i := 0; i < 10; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if tries == before {
		t.Fatal("generated state functions stopped running after AddMachine")
	}
}

// TestUncoveredGraphRunsInterpreted registers a machine whose graph
// the attachment never covered: under the generated engine its states,
// which carry no function, are served by the interpreter, and it moves
// exactly as under the event engine.
func TestUncoveredGraphRunsInterpreted(t *testing.T) {
	run := func(engine Engine) string {
		d, fns := genPipeline(nil)
		d.Engine = engine
		if err := d.AttachGenerated(fns); err != nil {
			t.Fatal(err)
		}
		u := NewUnitManager("late-u", 1)
		i, s := NewState("LI"), NewState("LS")
		i.Connect("go", s, Alloc(u, 0))
		s.Connect("back", i, Release(u, 0))
		d.AddManager(u)
		d.AddMachine(NewMachine("late", i))
		log := traceLog(d)
		for k := 0; k < 20; k++ {
			if err := d.Step(); err != nil {
				t.Fatalf("%v: %v", engine, err)
			}
		}
		if !strings.Contains(log.String(), "/late/go\n") {
			t.Fatalf("%v: the uncovered machine never moved", engine)
		}
		return log.String()
	}
	if got, want := run(EngineGenerated), run(EngineEvent); got != want {
		t.Fatalf("traces diverge:\ngenerated:\n%s\nevent:\n%s", got, want)
	}
}

// TestInterpretedEnginesHoldNoProgram pins the heap property every
// engine but the compiled one relies on: a director with generated
// functions attached holds no lowered program after stepping, under
// the interpreted engines and under the generated engine, named or by
// default, which calls the states' own functions. Only EngineCompiled
// builds a program.
func TestInterpretedEnginesHoldNoProgram(t *testing.T) {
	for _, eng := range []Engine{EngineDefault, EngineGenerated, EngineEvent, EngineScan, EngineCompiled} {
		tries := 0
		d, fns := genPipeline(&tries)
		d.Engine = eng
		if err := d.AttachGenerated(fns); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
		gen := d.ActiveEngine() == EngineGenerated
		if ran := tries > 0; ran != gen {
			t.Errorf("%v: generated functions ran %d times", eng, tries)
		}
		if want := eng == EngineCompiled; d.Lowered() != want {
			t.Errorf("%v: director holds a lowered program after 50 steps: %v, want %v", eng, d.Lowered(), want)
		}
	}
}

// TestDefaultEngineResolution pins what the zero Engine serves: the
// generated engine once a function map is attached, the event-driven
// interpreter on a bare director; a named engine and a custom Rank
// override the attachment. It also pins which loop serves each: the
// generated engine runs the Figure 3 scan, and only the event and
// compiled engines are event-driven. Lower succeeds ahead of the first
// step, and the steps then run the attached functions.
func TestDefaultEngineResolution(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine Engine
		attach bool
		rank   bool
		want   Engine
		event  bool // EventDriven
	}{
		{"bare", EngineDefault, false, false, EngineEvent, true},
		{"attached", EngineDefault, true, false, EngineGenerated, false},
		{"generated", EngineGenerated, true, false, EngineGenerated, false},
		{"event", EngineEvent, true, false, EngineEvent, true},
		{"compiled", EngineCompiled, true, false, EngineCompiled, true},
		{"scan", EngineScan, true, false, EngineScan, false},
		{"rank", EngineDefault, true, true, EngineScan, false},
	} {
		tries := 0
		d, fns := genPipeline(&tries)
		d.Engine = tc.engine
		if tc.attach {
			if err := d.AttachGenerated(fns); err != nil {
				t.Fatal(err)
			}
		}
		if tc.rank {
			d.Rank = AgeRank
		}
		if got := d.ActiveEngine(); got != tc.want {
			t.Fatalf("%s: ActiveEngine() = %v, want %v", tc.name, got, tc.want)
		}
		if got := d.EventDriven(); got != tc.event {
			t.Errorf("%s: EventDriven() = %v, want %v", tc.name, got, tc.event)
		}
		if err := d.Lower(); err != nil {
			t.Fatalf("%s: Lower: %v", tc.name, err)
		}
		for i := 0; i < 20; i++ {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if ran := tries > 0; ran != (tc.want == EngineGenerated) {
			t.Errorf("%s: generated functions ran %d times under %v", tc.name, tries, tc.want)
		}
	}
}

// TestFailedAttachKeepsEvent pins that a map which does not cover the
// model is not installed: no state carries a function, and the
// director still serves the interpreter under the default engine.
func TestFailedAttachKeepsEvent(t *testing.T) {
	tries := 0
	d, fns := genPipeline(&tries)
	delete(fns, "S5")
	if err := d.AttachGenerated(fns); err == nil {
		t.Fatal("AttachGenerated accepted a map with a missing state")
	}
	if n := genStates(d); n != 0 {
		t.Fatalf("a failed attach wrote %d state functions", n)
	}
	if eng := d.ActiveEngine(); eng != EngineEvent {
		t.Fatalf("after a failed attach the director serves %v, want event", eng)
	}
	for i := 0; i < 20; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if tries != 0 || d.comp != nil {
		t.Fatalf("a failed attach ran generated functions (%d tries) or lowered the model", tries)
	}
}

// genStates counts the states reachable from d's machines that carry
// a generated function.
func genStates(d *Director) int {
	n := 0
	seen := map[*State]bool{}
	for _, m := range d.Machines() {
		for _, s := range reachable(m.Initial) {
			if !seen[s] && s.gen != nil {
				n++
			}
			seen[s] = true
		}
	}
	return n
}

// TestAttachGeneratedErrors exercises the resolution failure modes:
// no attachment, a missing state, an entry with a nil function, two
// distinct states sharing a name, and a function generated for other
// edges than the live state's (a stale file). A failed attach installs
// nothing.
func TestAttachGeneratedErrors(t *testing.T) {
	t.Run("none", func(t *testing.T) {
		d, _ := genPipeline(nil)
		d.Engine = EngineGenerated
		if err := d.Step(); err == nil || !strings.Contains(err.Error(), "no state functions attached") {
			t.Fatalf("err = %v, want no-state-functions error", err)
		}
	})
	t.Run("missing", func(t *testing.T) {
		d, fns := genPipeline(nil)
		delete(fns, "S5")
		err := d.AttachGenerated(fns)
		if err == nil || !strings.Contains(err.Error(), "state S5: no generated function") {
			t.Fatalf("err = %v, want missing-state error", err)
		}
		if n := genStates(d); n != 0 {
			t.Fatalf("a failed attach wrote %d state functions", n)
		}
	})
	t.Run("halfSet", func(t *testing.T) {
		// The entry is present but its function is not.
		d, fns := genPipeline(nil)
		g := fns["I"]
		g.Fn = nil
		fns["I"] = g
		err := d.AttachGenerated(fns)
		if err == nil || !strings.Contains(err.Error(), "state I: function is nil") {
			t.Fatalf("err = %v, want nil-function error", err)
		}
		if n := genStates(d); n != 0 {
			t.Fatalf("a failed attach wrote %d state functions", n)
		}
	})
	t.Run("ambiguous", func(t *testing.T) {
		// Two distinct states named "S": the state name cannot
		// identify the state.
		u := NewUnitManager("u", 2)
		i := NewState("I")
		a, b := NewState("S"), NewState("S")
		i.Connect("toA", a, Alloc(u, 0))
		i.Connect("toB", b, Alloc(u, 1))
		a.Connect("x", i, Release(u, 0))
		b.Connect("x", i, Release(u, 1))
		d := NewDirector()
		d.AddManager(u)
		d.AddMachine(NewMachine("m", i))
		pass := func(m *Machine, es []*Edge) (*Edge, error) {
			for _, e := range es {
				if ok, err := m.GenFallback(e); ok || err != nil {
					return e, err
				}
			}
			return nil, nil
		}
		fns := map[string]GenState{
			"I": {Fn: pass, Edges: []GenEdge{{Name: "toA"}, {Name: "toB"}}},
			"S": {Fn: pass, Edges: []GenEdge{{Name: "x"}}},
		}
		err := d.AttachGenerated(fns)
		if err == nil || !strings.Contains(err.Error(), "ambiguous") {
			t.Fatalf("err = %v, want ambiguity error", err)
		}
		if n := genStates(d); n != 0 {
			t.Fatalf("a failed attach wrote %d state functions", n)
		}
	})
	// A state function tests its edges' names, order and route masks
	// as literals, so a live state whose edges differ from the ones it
	// was generated for is stale.
	for _, tc := range []struct {
		name  string
		edges []GenEdge // S1's live edges are adv, then skip (route 0x2)
		want  string
	}{
		{"renamed", []GenEdge{{Name: "advance"}, {Name: "skip", Routes: 0x2}}, "state S1, edge adv: not among the generated edges"},
		{"added", []GenEdge{{Name: "adv"}}, "state S1, edge skip: not among the generated edges"},
		{"reordered", []GenEdge{{Name: "skip", Routes: 0x2}, {Name: "adv"}}, "state S1, edge skip: not among the generated edges, or out of their priority order"},
		{"mask", []GenEdge{{Name: "adv"}, {Name: "skip", Routes: 0x3}}, "state S1, edge skip: route mask 0x2, generated for 0x3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, fns := genPipeline(nil)
			s1 := d.Machines()[0].Initial.Out[0].To
			s1.Connect("skip", s1.Out[0].To, Release(s1.Out[0].Prims[0].Mgr, 0)).Routes = 0x2
			g := fns["S1"]
			g.Edges = tc.edges
			fns["S1"] = g
			err := d.AttachGenerated(fns)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if n := genStates(d); n != 0 {
				t.Fatalf("a failed attach wrote %d state functions", n)
			}
		})
	}
}

// TestAttachGeneratedVariantLacksEdges attaches a state function
// generated for more edges than the live state has, as a model
// variant that compiles edges out does: the absent edge's slot is nil
// and the function skips it, so the ring runs as under the event
// engine.
func TestAttachGeneratedVariantLacksEdges(t *testing.T) {
	ref, _ := genPipeline(nil)
	ref.Engine = EngineEvent
	want := traceLog(ref)
	tries := 0
	d, fns := genPipeline(&tries)
	g := fns["S3"]
	inner := g.Fn
	g.Edges = []GenEdge{{Name: "ghost"}, {Name: "adv"}}
	g.Fn = func(m *Machine, es []*Edge) (*Edge, error) {
		if es[0] != nil {
			t.Fatal("the absent edge has a live edge")
		}
		return inner(m, es[1:])
	}
	fns["S3"] = g
	if err := d.AttachGenerated(fns); err != nil {
		t.Fatal(err)
	}
	got := traceLog(d)
	for i := 0; i < 100; i++ {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if tries == 0 || got.String() != want.String() {
		t.Fatalf("%d tries; traces diverge:\ngenerated:\n%s\nevent:\n%s", tries, got, want)
	}
}

// TestNoInitialStateIsAnError checks that a machine without an
// initial state is reported by AttachGenerated and Compile as an
// error rather than crashing the graph walk.
func TestNoInitialStateIsAnError(t *testing.T) {
	d := NewDirector()
	d.AddMachine(&Machine{Name: "orphan"})
	if err := d.AttachGenerated(map[string]GenState{}); err == nil || !strings.Contains(err.Error(), "machine orphan has no initial state") {
		t.Fatalf("AttachGenerated() = %v, want a no-initial-state error", err)
	}
	if _, err := d.Compile(); err == nil || !strings.Contains(err.Error(), "machine orphan has no initial state") {
		t.Fatalf("Compile() = %v, want a no-initial-state error", err)
	}
}

// BenchmarkDirectorStepPipelineGenerated runs the saturated ring
// through hand-written generated state functions (EngineGenerated) —
// the same functions internal/osm/gen emits for real models — under
// the Figure 3 scan. The CI bench-regression job gates it.
func BenchmarkDirectorStepPipelineGenerated(b *testing.B) {
	d, fns := genPipeline(nil)
	d.Engine = EngineGenerated
	if err := d.AttachGenerated(fns); err != nil {
		b.Fatal(err)
	}
	benchSteps(b, d)
}

// BenchmarkDirectorStepIdleGenerated measures the idle step under the
// generated engine: every machine is blocked on a busy unit, and the
// Figure 3 scan calls each one's state function (here a delegation to
// the interpreter, which finds the unit busy) every step. The
// event-driven engines skip such machines;
// BenchmarkDirectorStepEventDrivenIdle measures that.
func BenchmarkDirectorStepIdleGenerated(b *testing.B) {
	u := NewUnitManager("u", 1)
	i, s := NewState("I"), NewState("S")
	i.Connect("go", s, Alloc(u, 0))
	s.Connect("stay", i, Release(u, 0))
	u.SetBusy(0, 1<<62)
	d := NewDirector()
	d.Engine = EngineGenerated
	d.AddManager(u)
	for k := 0; k < 8; k++ {
		d.AddMachine(NewMachine("m", i))
	}
	blockAll := func(m *Machine, es []*Edge) (*Edge, error) {
		if ok, err := m.GenFallback(es[0]); ok || err != nil {
			return es[0], err
		}
		return nil, nil
	}
	if err := d.AttachGenerated(map[string]GenState{
		"I": {Fn: blockAll, Edges: []GenEdge{{Name: "go"}}},
		"S": {Fn: blockAll, Edges: []GenEdge{{Name: "stay"}}},
	}); err != nil {
		b.Fatal(err)
	}
	if err := d.Step(); err != nil { // settle: every machine blocks on the busy unit
		b.Fatal(err)
	}
	benchSteps(b, d)
}
