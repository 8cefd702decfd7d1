package osm

import (
	"strings"
	"testing"

	"repro/internal/snap"
)

// TestParseEngine pins the engine names shared by every front end
// (CLI flags, batch files, the HTTP session body).
func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"", EngineDefault, true},
		{"event", EngineEvent, true},
		{"scan", EngineScan, true},
		{"compiled", EngineCompiled, true},
		{"generated", EngineGenerated, true},
		{"default", EngineDefault, false},
		{"Compiled", EngineDefault, false},
		{"jit", EngineDefault, false},
	} {
		got, err := ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, e := range []Engine{EngineEvent, EngineScan, EngineCompiled, EngineGenerated} {
		back, err := ParseEngine(e.String())
		if err != nil || back != e {
			t.Errorf("ParseEngine(%v.String()) = %v, %v; want identity", e, back, err)
		}
	}
}

// TestCompileStats checks the lowering statistics and the disassembly
// over a model mixing built-in fast paths, a custom manager and
// dynamic identifiers.
func TestCompileStats(t *testing.T) {
	u := NewUnitManager("u", 1)
	rf := NewRegFileManager("rf", 8)
	custom := &countingManager{BaseManager: BaseManager{ManagerName: "custom"}}
	I, S := NewState("I"), NewState("S")
	I.Connect("go", S,
		Alloc(u, 0),
		AllocF(rf, func(m *Machine) TokenID { return UpdateToken(3) }),
		Inquire(custom, 0))
	S.Connect("back", I,
		Release(u, 0),
		ReleaseF(rf, func(m *Machine) TokenID { return UpdateToken(3) }),
		Discard(nil, AllTokens))

	d := NewDirector()
	d.AddManager(u, rf, custom)
	d.AddMachine(NewMachine("m", I))
	g, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	want := CompileStats{States: 2, Edges: 2, Instrs: 6, Devirtualized: 4, Generic: 2, Dynamic: 2, Pure: 2}
	if st != want {
		t.Fatalf("Stats() = %+v, want %+v", st, want)
	}
	dis := g.Disassemble()
	for _, frag := range []string{"state I:", "edge go -> S:", "allocate", "regfile", "id=dyn ", "<all>"} {
		if !strings.Contains(dis, frag) {
			t.Errorf("disassembly is missing %q:\n%s", frag, dis)
		}
	}
	// Compile is idempotent and cached until the model changes.
	if g2, err := d.Compile(); err != nil || g2 != g {
		t.Fatalf("second Compile() = %p, %v; want cached %p", g2, err, g)
	}
	d.AddMachine(NewMachine("m2", I))
	if g3, err := d.Compile(); err != nil || g3 == g {
		t.Fatalf("Compile() after AddMachine returned the stale program (err=%v)", err)
	}
}

// countingManager is a minimal custom manager: an always-available
// inquiry target that counts interface-path calls.
type countingManager struct {
	BaseManager
	inquiries int
}

func (c *countingManager) Allocate(m *Machine, id TokenID) (Token, bool) { return Token{}, false }
func (c *countingManager) Inquire(m *Machine, id TokenID) bool           { c.inquiries++; return true }
func (c *countingManager) Release(m *Machine, t Token) bool              { return false }

// TestCompileRejectsInvalidGuards checks that lowering catches at
// compile time what the interpreter only hits at runtime.
func TestCompileRejectsInvalidGuards(t *testing.T) {
	I, S := NewState("I"), NewState("S")
	I.Connect("bad", S, Primitive{Op: OpAllocate, Mgr: nil})
	d := NewDirector()
	d.AddMachine(NewMachine("m", I))
	if _, err := d.Compile(); err == nil || !strings.Contains(err.Error(), "no manager") {
		t.Fatalf("Compile() = %v; want a no-manager error", err)
	}
	// The lazy compile on the first compiled step surfaces the same
	// error instead of panicking mid-evaluation.
	d.Engine = EngineCompiled
	if err := d.Step(); err == nil || !strings.Contains(err.Error(), "no manager") {
		t.Fatalf("Step() = %v; want the compile error", err)
	}

	I2, S2 := NewState("I"), NewState("S")
	I2.Connect("bad", S2, Primitive{Op: Op(99), Mgr: NewPoolManager("p", 1)})
	d2 := NewDirector()
	d2.AddMachine(NewMachine("m", I2))
	if _, err := d2.Compile(); err == nil || !strings.Contains(err.Error(), "invalid primitive op") {
		t.Fatalf("Compile() = %v; want an invalid-op error", err)
	}
}

// TestCompiledDevirtualizesBuiltins asserts the core property of the
// lowering: guards over built-in managers run without touching the
// TokenManager interface, while custom managers keep it.
func TestCompiledDevirtualizesBuiltins(t *testing.T) {
	u := NewUnitManager("u", 1)
	custom := &countingManager{BaseManager: BaseManager{ManagerName: "custom"}}
	I, S := NewState("I"), NewState("S")
	I.Connect("go", S, Alloc(u, 0), Inquire(custom, 0))
	S.Connect("back", I, Release(u, 0))
	d := NewDirector()
	d.Engine = EngineCompiled
	d.AddManager(u, custom)
	d.AddMachine(NewMachine("m", I))
	for i := 0; i < 10; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if custom.inquiries == 0 {
		t.Fatal("custom manager was never consulted through the interface path")
	}
	g, _ := d.Compile()
	if st := g.Stats(); st.Generic != 1 || st.Devirtualized != 2 {
		t.Fatalf("Stats() = %+v; want 2 devirtualized, 1 generic", st)
	}
}

// TestCompiledSnapshotRoundTrip takes a snapshot mid-run under the
// compiled engine and restores it into an identically built director
// running each engine: compiled state is derived, so snapshots are
// engine-neutral in both directions and the resumed traces match the
// uninterrupted one.
func TestCompiledSnapshotRoundTrip(t *testing.T) {
	// A saturated 5-stage ring like benchPipeline, but with unique
	// state names so restore can resolve states.
	build := func() *Director {
		stages := make([]*UnitManager, 5)
		states := make([]*State, 6)
		states[0] = NewState("I")
		for k := 0; k < 5; k++ {
			stages[k] = NewUnitManager("s", 1)
			states[k+1] = NewState("S" + string(rune('0'+k)))
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
			d.AddMachine(NewMachine("m", states[0]))
		}
		return d
	}
	reference := func(steps int) []Event {
		d := build()
		rec := NewRecorder()
		d.Tracer = rec
		for i := 0; i < steps; i++ {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Events()
	}
	want := reference(100)

	src := build()
	src.Engine = EngineCompiled
	rec := NewRecorder()
	src.Tracer = rec
	for i := 0; i < 50; i++ {
		if err := src.Step(); err != nil {
			t.Fatal(err)
		}
	}
	w := snap.NewWriter()
	if err := src.Snapshot(w); err != nil {
		t.Fatal(err)
	}

	for _, eng := range []Engine{EngineEvent, EngineScan, EngineCompiled} {
		dst := build()
		dst.Engine = eng
		if err := dst.Restore(snap.NewReader(w.Bytes())); err != nil {
			t.Fatalf("restore into %v: %v", eng, err)
		}
		cont := NewRecorder()
		dst.Tracer = cont
		for i := 0; i < 50; i++ {
			if err := dst.Step(); err != nil {
				t.Fatalf("engine %v: %v", eng, err)
			}
		}
		got := append(append([]Event(nil), rec.Events()...), cont.Events()...)
		if len(got) != len(want) {
			t.Fatalf("engine %v: resumed trace has %d transitions, uninterrupted %d", eng, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("engine %v: traces diverge at transition %d: %+v vs %+v", eng, i, got[i], want[i])
			}
		}
	}
}
