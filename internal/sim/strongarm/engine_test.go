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
// generated edge function is differentially tested per step on the
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
// edge functions. A function map that no longer covers the model fails
// New, naming go generate, whenever the generated engine would serve,
// by default or by name. An explicitly named interpreter, the
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

	defer func(f func(*Sim) map[string]osm.EdgeFn) { edgeFns = f }(edgeFns)
	edgeFns = func(s *Sim) map[string]osm.EdgeFn {
		fns := s.genEdges()
		delete(fns, osm.GenKey("W", "e5"))
		return fns
	}
	for _, eng := range []osm.Engine{osm.EngineDefault, osm.EngineGenerated} {
		if _, err := New(p, Config{Engine: eng}); err == nil || !strings.Contains(err.Error(), "go generate") {
			t.Errorf("%v: New with a stale function map = %v, want an error naming go generate", eng, err)
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
