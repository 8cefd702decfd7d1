package strongarm

import (
	"strings"
	"testing"

	"repro/internal/osm"
	"repro/internal/osm/invariant"
	"repro/internal/workload"
)

// TestKernelsCorrectUnderCompiledEngine runs every kernel under the
// compiled guard-program engine with the invariant checker attached.
// The checker's scheduler-equivalence probe replays each control step
// against the interpreted Figure 3 semantics, so this is a per-step
// differential test of the compiled engine on the real pipeline model,
// not just a final-checksum comparison.
func TestKernelsCorrectUnderCompiledEngine(t *testing.T) {
	for _, w := range workload.All() {
		n := w.DefaultN / 10
		p, err := w.ARMProgram(n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(p, Config{Engine: osm.EngineCompiled})
		if err != nil {
			t.Fatal(err)
		}
		invariant.Attach(s.Director())
		if _, err := s.Run(1_000_000_000); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(s.ISS.Reported) != 1 || s.ISS.Reported[0] != w.Ref(n) {
			t.Errorf("%s: checksum %v, want %#x", w.Name, s.ISS.Reported, w.Ref(n))
		}
	}
}

// TestKernelsCorrectUnderGeneratedEngine runs every kernel under the
// generated-code engine (edges_gen.go) with the invariant checker
// attached: the checker's scheduler-equivalence probe replays each
// control step against the interpreted Figure 3 semantics, so every
// generated state function is differentially tested per step on the
// real pipeline model.
func TestKernelsCorrectUnderGeneratedEngine(t *testing.T) {
	for _, w := range workload.All() {
		n := w.DefaultN / 10
		p, err := w.ARMProgram(n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(p, Config{Engine: osm.EngineGenerated})
		if err != nil {
			t.Fatal(err)
		}
		invariant.Attach(s.Director())
		if _, err := s.Run(1_000_000_000); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(s.ISS.Reported) != 1 || s.ISS.Reported[0] != w.Ref(n) {
			t.Errorf("%s: checksum %v, want %#x", w.Name, s.ISS.Reported, w.Ref(n))
		}
	}
}

// TestEngineCycleAgreement pins the engines' timing equivalence at the
// simulator level: the same kernel takes exactly the same number of
// cycles under the scan, event, compiled and generated engines and
// under the default, which resolves to generated.
func TestEngineCycleAgreement(t *testing.T) {
	w := workload.ByName("dsp/fir")
	n := w.DefaultN / 5
	cycles := map[osm.Engine]uint64{}
	engines := []osm.Engine{osm.EngineScan, osm.EngineEvent, osm.EngineCompiled, osm.EngineGenerated, osm.EngineDefault}
	for _, eng := range engines {
		p, err := w.ARMProgram(n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(p, Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Run(1_000_000_000)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		cycles[eng] = st.Cycles
	}
	for _, eng := range engines[1:] {
		if cycles[eng] != cycles[osm.EngineScan] {
			t.Fatalf("engines disagree on cycle count: %v", cycles)
		}
	}
}

// TestStaleGeneratedEdgesFailLoudly pins the default engine and what a
// stale edges_gen.go does to it. The zero Config serves the generated
// state functions. A function map that no longer covers the model — a
// state without an entry, or an entry generated for other edges than
// the state's: reordered, renamed or differently routed — fails New,
// naming go generate, whenever the generated engine would serve, by
// default or by name. An explicitly named interpreter, the
// construction cmd/osmgen uses to regenerate the file, still builds
// and runs the kernel correctly.
func TestStaleGeneratedEdgesFailLoudly(t *testing.T) {
	w := workload.ByName("dsp/fir")
	n := w.DefaultN / 10
	p, err := w.ARMProgram(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if eng := s.Director().ActiveEngine(); eng != osm.EngineGenerated {
		t.Fatalf("the zero Config serves %v, want generated", eng)
	}

	defer func(f func(*Sim) map[string]osm.GenState) { stateFns = f }(stateFns)
	edit := func(name string, f func([]osm.GenEdge)) func(map[string]osm.GenState) {
		return func(fns map[string]osm.GenState) {
			g := fns[name]
			g.Edges = append([]osm.GenEdge(nil), g.Edges...)
			f(g.Edges)
			fns[name] = g
		}
	}
	for _, tc := range []struct {
		name  string
		stale func(map[string]osm.GenState)
	}{
		{"missing state", func(fns map[string]osm.GenState) { delete(fns, "W") }},
		{"reordered edges", edit("F", func(es []osm.GenEdge) { es[0], es[1] = es[1], es[0] })},
		{"renamed edge", edit("F", func(es []osm.GenEdge) { es[1].Name += "-old" })},
		{"changed mask", edit("F", func(es []osm.GenEdge) { es[1].Routes ^= 1 })},
	} {
		stateFns = func(s *Sim) map[string]osm.GenState {
			fns := s.genStates()
			tc.stale(fns)
			return fns
		}
		for _, eng := range []osm.Engine{osm.EngineDefault, osm.EngineGenerated} {
			if _, err := New(p, Config{Engine: eng}); err == nil || !strings.Contains(err.Error(), "go generate") {
				t.Errorf("%s, %v: New with a stale function map = %v, want an error naming go generate", tc.name, eng, err)
			}
		}
	}
	s, err = New(p, Config{Engine: osm.EngineEvent})
	if err != nil {
		t.Fatalf("event: New with a stale function map: %v", err)
	}
	if eng := s.Director().ActiveEngine(); eng != osm.EngineEvent {
		t.Fatalf("event: serves %v", eng)
	}
	if _, err := s.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	if len(s.ISS.Reported) != 1 || s.ISS.Reported[0] != w.Ref(n) {
		t.Errorf("checksum %v, want %#x", s.ISS.Reported, w.Ref(n))
	}
}
