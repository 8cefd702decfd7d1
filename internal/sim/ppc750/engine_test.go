package ppc750

import (
	"os"
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
// differential test of the compiled engine on the superscalar model —
// rename buffers, rated queues and completion logic included.
func TestKernelsCorrectUnderCompiledEngine(t *testing.T) {
	for _, w := range workload.All() {
		n := w.DefaultN / 10
		p, err := w.PPCProgram(n)
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
// superscalar model — rename buffers, rated queues and completion
// logic included.
func TestKernelsCorrectUnderGeneratedEngine(t *testing.T) {
	for _, w := range workload.All() {
		n := w.DefaultN / 10
		p, err := w.PPCProgram(n)
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

// TestDispatchStateChecksHeadOnce pins the shape of the generated
// function that serves the dispatch state Q: its ten dispatch edges
// share the in-order head check, which the function evaluates once per
// serve, and each edge's class mask is a literal route test.
func TestDispatchStateChecksHeadOnce(t *testing.T) {
	src, err := os.ReadFile("edges_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	start := strings.Index(text, "func (s *Sim) genServe_Q(")
	if start < 0 {
		t.Fatal("edges_gen.go has no function for state Q")
	}
	body := text[start:]
	body = body[:strings.Index(body, "\n}\n")]
	if n := strings.Count(body, "s.whenHead(m)"); n != 1 {
		t.Errorf("Q's function evaluates the head check in %d places, want 1", n)
	}
	if n := strings.Count(body, "(r == 0 || r&0x"); n != 10 {
		t.Errorf("Q's function tests %d route masks, want 10", n)
	}
}

// TestGeneratedEngineNoReservationStations exercises the generated
// engine on the model variant whose graph omits the rs-* edges: the
// attached function map's extra entries must resolve cleanly and the
// run must stay correct.
func TestGeneratedEngineNoReservationStations(t *testing.T) {
	w := workload.ByName("gsm/dec")
	n := w.DefaultN / 10
	p, err := w.PPCProgram(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, Config{Engine: osm.EngineGenerated, NoReservationStations: true})
	if err != nil {
		t.Fatal(err)
	}
	invariant.Attach(s.Director())
	if _, err := s.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	if len(s.ISS.Reported) != 1 || s.ISS.Reported[0] != w.Ref(n) {
		t.Errorf("checksum %v, want %#x", s.ISS.Reported, w.Ref(n))
	}
}

// TestEngineCycleAgreement pins the engines' timing equivalence at the
// simulator level: the same kernel takes exactly the same number of
// cycles under the scan, event, compiled and generated engines and
// under the default, which resolves to generated.
func TestEngineCycleAgreement(t *testing.T) {
	w := workload.ByName("g721/dec")
	n := w.DefaultN / 5
	cycles := map[osm.Engine]uint64{}
	engines := []osm.Engine{osm.EngineScan, osm.EngineEvent, osm.EngineCompiled, osm.EngineGenerated, osm.EngineDefault}
	for _, eng := range engines {
		p, err := w.PPCProgram(n)
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
	w := workload.ByName("g721/dec")
	n := w.DefaultN / 10
	p, err := w.PPCProgram(n)
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
		{"missing state", func(fns map[string]osm.GenState) { delete(fns, "C") }},
		{"reordered edges", edit("Q", func(es []osm.GenEdge) { es[0], es[1] = es[1], es[0] })},
		{"renamed edge", edit("Q", func(es []osm.GenEdge) { es[1].Name += "-old" })},
		{"changed mask", edit("Q", func(es []osm.GenEdge) { es[1].Routes ^= 1 })},
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

// TestFailedWhenTriesPerCycle counts the dispatch fan's untracked
// failures: every When predicate of the model is wrapped in a counter
// and the nine mix kernels run under the event engine. The count is
// the interpreter's, one evaluation per edge tried, and the same under
// the scan, which serves the same schedule; the generated engine
// calls its When expressions directly, once per serve for the head
// check that the dispatch edges share, so the wrapped closures do not
// see it. Which unit may take an operation is its route, skipped
// without a try, so the only When that still fails is the in-order
// head check: 12.1 failures per simulated cycle. When the class test
// was a When conjunct as well, the same runs failed 42.6 times per
// cycle.
func TestFailedWhenTriesPerCycle(t *testing.T) {
	var evals, failed, cycles uint64
	for _, w := range workload.Mix() {
		p, err := w.PPCProgram(w.DefaultN / 10)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(p, Config{Engine: osm.EngineEvent})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[*osm.State]bool{}
		var walk func(st *osm.State)
		walk = func(st *osm.State) {
			if seen[st] {
				return
			}
			seen[st] = true
			for _, e := range st.Out {
				if when := e.When; when != nil {
					e.When = func(m *osm.Machine) bool {
						evals++
						ok := when(m)
						if !ok {
							failed++
						}
						return ok
					}
				}
				walk(e.To)
			}
		}
		walk(s.Director().Machines()[0].Initial)
		st, err := s.Run(1_000_000_000)
		if err != nil {
			t.Fatal(err)
		}
		cycles += st.Cycles
	}
	perCycle := float64(failed) / float64(cycles)
	t.Logf("%d cycles: %.1f When evaluations and %.1f failures per cycle", cycles, float64(evals)/float64(cycles), perCycle)
	if perCycle > 16 {
		t.Fatalf("%.1f failed When evaluations per cycle, want at most 16: a dispatch edge's class test is back in a predicate", perCycle)
	}
}
