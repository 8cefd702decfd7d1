package gen

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/osm"
)

// testModel lowers a two-stage model exercising the emitter's main
// shapes: a When predicate, a dynamic identifier, a unit allocate and
// release, a queue, and a pool inquire.
func testModel(t *testing.T) *osm.GuardProgram {
	t.Helper()
	u := osm.NewUnitManager("u", 1)
	q := osm.NewQueueManager("q", 4)
	i, s := osm.NewState("I"), osm.NewState("S")
	in := i.Connect("go", s, osm.Alloc(u, 0), osm.Alloc(q, osm.AnyUnit))
	in.When = func(m *osm.Machine) bool { return true }
	s.Connect("back", i, osm.Release(u, 0), osm.ReleaseF(q, func(m *osm.Machine) osm.TokenID { return osm.AnyUnit }))
	d := osm.NewDirector()
	d.AddManager(u, q)
	d.AddMachine(osm.NewMachine("m", i))
	prog, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func testSpec() Spec {
	return Spec{
		Package:  "model",
		Managers: map[string]string{"u": "s.u", "q": "s.q"},
		When:     map[string]string{osm.GenKey("I", "go"): "s.ready(m)"},
	}
}

func TestFileEmitsMonomorphicFunctions(t *testing.T) {
	src, err := File(testModel(t), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	for _, want := range []string{
		"// Code generated by osmgen; DO NOT EDIT.",
		"package model",
		"func (s *Sim) genStates() map[string]osm.GenState {",
		`"I": {Fn: s.genServe_I, Edges: []osm.GenEdge{`,
		"func (s *Sim) genServe_I(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {",
		"if !(s.ready(m)) {",            // inlined When
		"if !s.u.CanAllocate(0) {",      // unit fast path
		"if !s.q.CanAllocate() {",       // queue fast path
		"id1 := e.Prims[1].ID(m)",       // dynamic identifier, declared once
		"t1 := m.GenFindHeld(s.q, id1)", // release check records the index
		"return e, m.GenFinish(e)",      // commit epilogue
	} {
		if !strings.Contains(text, want) {
			t.Errorf("emitted source lacks %q\n%s", want, text)
		}
	}
	if strings.Contains(text, "GenFallback") {
		t.Errorf("a model of pure edges delegates to the interpreter:\n%s", text)
	}
}

func TestFileDeterministic(t *testing.T) {
	a, err := File(testModel(t), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := File(testModel(t), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two renders of the same program differ")
	}
}

func TestFileSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"noPackage", func(s *Spec) { s.Package = "" }, "no package name"},
		{"noManager", func(s *Spec) { delete(s.Managers, "q") }, `no expression for manager "q"`},
		{"noWhen", func(s *Spec) { delete(s.When, "I/go") }, "no expression for the When predicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec()
			tc.mut(&spec)
			_, err := File(testModel(t), spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestFileImpureEdgeDelegates proves a non-pure edge is rendered as a
// wholesale interpreter delegation, never a fork of the semantics.
func TestFileImpureEdgeDelegates(t *testing.T) {
	// Allocating twice from the same unit manager defeats the purity
	// proof: the first tentative grant changes what the second reads.
	u := osm.NewUnitManager("u", 2)
	i, s := osm.NewState("I"), osm.NewState("S")
	i.Connect("go", s, osm.Alloc(u, osm.AnyUnit), osm.Alloc(u, osm.AnyUnit))
	s.Connect("back", i, osm.Release(u, osm.AnyUnit), osm.Release(u, osm.AnyUnit))
	d := osm.NewDirector()
	d.AddManager(u)
	d.AddMachine(osm.NewMachine("m", i))
	prog, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	src, err := File(prog, Spec{Package: "model", Managers: map[string]string{"u": "s.u"}})
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	if !strings.Contains(text, "if ok, err := m.GenFallback(e); ok || err != nil {") {
		t.Fatalf("impure edge does not delegate to the interpreter:\n%s", text)
	}
	if strings.Contains(text, "CanAllocate") {
		t.Fatalf("impure edge leaked a fast-path check:\n%s", text)
	}
}

// sharedWhenModel lowers one state with four routed or guarded edges
// for TestFileSharedWhenOnce.
func sharedWhenModel(t *testing.T) *osm.GuardProgram {
	t.Helper()
	u := osm.NewUnitManager("u", 2)
	i, a := osm.NewState("I"), osm.NewState("A")
	when := func(m *osm.Machine) bool { return true }
	for k, name := range []string{"x", "y", "z", "w"} {
		e := i.Connect(name, a, osm.Alloc(u, osm.TokenID(k%2)))
		e.When = when
		e.Routes = uint64(1) << k
	}
	a.Connect("back", i, osm.Release(u, osm.AnyUnit))
	d := osm.NewDirector()
	d.AddManager(u)
	d.AddMachine(osm.NewMachine("m", i))
	prog, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestFileSharedWhenOnce pins the state function's walk: each route
// mask is a literal test, a When expression that several edges of the
// state share is evaluated once, into a variable that guards one
// block per run of adjacent edges it covers, and an unshared one stays
// in its edge's try.
func TestFileSharedWhenOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		whens  map[string]string // edge -> When expression
		blocks int               // blocks the shared When guards
	}{
		{"adjacent", map[string]string{"x": "s.head(m)", "y": "s.head(m)", "z": "s.head(m)", "w": "s.own(m)"}, 1},
		{"split", map[string]string{"x": "s.head(m)", "y": "s.head(m)", "z": "s.own(m)", "w": "s.head(m)"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{Package: "model", Managers: map[string]string{"u": "s.u"}, When: map[string]string{}}
			for e, x := range tc.whens {
				spec.When[osm.GenKey("I", e)] = x
			}
			src, err := File(sharedWhenModel(t), spec)
			if err != nil {
				t.Fatal(err)
			}
			text := string(src)
			if n := strings.Count(text, "s.head(m)"); n != 1 {
				t.Errorf("the shared When is emitted %d times, want once", n)
			}
			if n := strings.Count(text, "if w0 {"); n != tc.blocks {
				t.Errorf("the shared When guards %d blocks, want %d", n, tc.blocks)
			}
			for _, w := range []string{"w0 := s.head(m)", "if !(s.own(m)) {", "r := m.Route", "r&0x1 != 0", "r&0x2 != 0", "r&0x4 != 0", "r&0x8 != 0"} {
				if !strings.Contains(text, w) {
					t.Errorf("emitted source lacks %q", w)
				}
			}
			if t.Failed() {
				t.Log(text)
			}
		})
	}
}
