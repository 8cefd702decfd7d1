package adl

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/osm"
)

// compilePipelineSrc is a small three-stage pipeline description
// exercising every manager kind the guard-program lowering
// devirtualizes.
const compilePipelineSrc = `model pipe {
  managers { unit f(1); unit x(1); queue cq(4); regfile rf(8); reset R; }
  states { idle*, fetch, exec, done }
  edges {
    e0: idle -> fetch [ alloc f.* ];
    e1: fetch -> exec [ release f.*, alloc x.*, inquire rf.$src ];
    e2: exec -> done [ release x.*, alloc cq.* ];
    e3: done -> idle [ release cq.* ];
    r0: exec -> idle reset;
  }
  machines 4;
}`

func compilePipelineBindings() map[string]Binding {
	return map[string]Binding{
		"src": func(*osm.Machine) osm.TokenID { return 2 },
	}
}

// TestBuildCompilesPipeline drives the whole retargeting path:
// description in, guard programs out, then runs the model under the
// compiled engine.
func TestBuildCompilesPipeline(t *testing.T) {
	model, err := Build(compilePipelineSrc, compilePipelineBindings())
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.Director.Compile()
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.States != 4 || st.Edges == 0 || st.Instrs == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	// The only generic instruction is the reset edge's discard-all,
	// which names no manager; every library manager devirtualizes.
	if st.Generic != 1 {
		t.Fatalf("library managers must all devirtualize, got %+v", st)
	}
	dis := g.Disassemble()
	for _, frag := range []string{"state idle:", "edge e0 -> fetch:", "allocate"} {
		if !strings.Contains(dis, frag) {
			t.Errorf("disassembly is missing %q:\n%s", frag, dis)
		}
	}
	model.Director.Engine = osm.EngineCompiled
	for i := 0; i < 20; i++ {
		if err := model.Director.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompileDoesNotChangeEngine pins that compiling is inspection
// only: an elaborated model attaches no generated edge functions, so
// its default engine is the event-driven interpreter, before and
// after Compile, until a caller selects another.
func TestCompileDoesNotChangeEngine(t *testing.T) {
	model, err := Build(compilePipelineSrc, compilePipelineBindings())
	if err != nil {
		t.Fatal(err)
	}
	if eng := model.Director.ActiveEngine(); eng != osm.EngineEvent {
		t.Fatalf("an elaborated model serves %v, want event", eng)
	}
	if _, err := model.Director.Compile(); err != nil {
		t.Fatal(err)
	}
	if eng := model.Director.ActiveEngine(); eng != osm.EngineEvent {
		t.Fatalf("Compile changed the engine to %v", eng)
	}
}

// runSteps steps d up to n times under a fresh recorder and returns
// the transitions it committed, stopping at the first error.
func runSteps(d *osm.Director, n int) ([]osm.Event, error) {
	rec := osm.NewRecorder()
	d.Tracer = rec
	for i := 0; i < n; i++ {
		if err := d.Step(); err != nil {
			return rec.Events(), err
		}
	}
	return rec.Events(), nil
}

// FuzzCompile fuzzes the compile stage behind the untrusted ADL front
// end with two properties. First, totality: any description that
// elaborates also compiles — the compile stage may only reject guards
// elaboration would already have refused. Second, agreement: an
// 8-step run under the compiled engine commits exactly the transitions
// the reference scan commits and, when a model-level runtime error
// ends the run, ends it with the same error. Edges the compile stage
// cannot prove pure (the seeds allocating twice from one pool) run
// through the interpreter fallback.
func FuzzCompile(f *testing.F) {
	f.Add(compilePipelineSrc)
	f.Add("model m { states { a* } machines 1; }")
	f.Add(`model m {
  managers { unit u(1); pool p(2); queue q(4); regfile rf(8); bypass by; reset R; }
  states { a*, b, c }
  edges {
    e0: a -> b [ alloc u.*, inquire rf.$src, alloc rf.!$dst ];
    e1: b -> c [ release u.*, alloc q.0, discard * ];
    e2: c -> a [ release rf.!$dst ];
    r0: b -> a reset;
  }
  machines 4;
}`)
	f.Add("model m { managers { pool p(1); } states { a*, b } edges { e: a -> b [ alloc p.*, alloc p.* ]; } machines 2; }")
	f.Add("model m { managers { pool p(2); } states { a*, b } edges { e: a -> b [ alloc p.*, alloc p.* ]; f: b -> a [ discard * ]; } machines 2; }")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 16<<10 {
			return // bound fuzz cost, not a parser limit
		}
		spec, err := Parse(src)
		if err != nil {
			return
		}
		bindings := map[string]Binding{}
		for _, e := range spec.Edges {
			for _, p := range e.Prims {
				if p.Form == IDBound {
					bindings[p.Binding] = func(*osm.Machine) osm.TokenID { return 0 }
				}
			}
		}
		model, err := Elaborate(spec, bindings)
		if err != nil {
			return
		}
		if len(model.Director.Machines()) > 64 {
			return // bound fuzz cost
		}
		if _, err := model.Director.Compile(); err != nil {
			t.Fatalf("model elaborates but does not compile: %v\nsource: %q", err, src)
		}
		model.Director.Engine = osm.EngineCompiled
		got, gotErr := runSteps(model.Director, 8)

		ref, err := Elaborate(spec, bindings)
		if err != nil {
			t.Fatalf("second elaboration failed: %v\nsource: %q", err, src)
		}
		ref.Director.Engine = osm.EngineScan
		want, wantErr := runSteps(ref.Director, 8)

		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("compiled run ended with %v, scan with %v\nsource: %q", gotErr, wantErr, src)
		}
		if len(got) != len(want) {
			t.Fatalf("compiled run committed %d transitions, scan %d\nsource: %q", len(got), len(want), src)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("transition %d: compiled %+v, scan %+v\nsource: %q", i, got[i], want[i], src)
			}
		}
	})
}
