package osm

import (
	"fmt"
	"testing"
)

// diffModel is a small but adversarial model for scheduler
// equivalence: a three-stage ring with a When-gated injector
// (untracked failures), a shared pool, busy windows (time-based
// wakes), externally driven squashes (reset edges with machine-wide
// discards) and op-static routes: the injector routes every third
// operation past the uB stage, straight to the pool (edges skipped
// by route are neither tries nor untracked failures).
type diffModel struct {
	d      *Director
	uA, uB *UnitManager
	pool   *PoolManager
	reset  *ResetManager
	issued int
	total  int
}

func buildDiffModel(machines, total int) *diffModel {
	md := &diffModel{
		uA:    NewUnitManager("uA", 1),
		uB:    NewUnitManager("uB", 2),
		pool:  NewPoolManager("pool", 2),
		reset: NewResetManager("reset"),
		total: total,
	}
	I := NewState("I")
	A := NewState("A")
	B := NewState("B")
	C := NewState("C")

	const viaB, viaPool = 1, 2
	issue := I.Connect("issue", A, Alloc(md.uA, 0))
	issue.When = func(m *Machine) bool { return md.issued < md.total }
	issue.Action = func(m *Machine) {
		md.issued++
		m.Route = viaB
		if md.issued%3 == 0 {
			m.Route = viaPool
		}
	}

	// The pool path outranks the uB path, so a machine routed through
	// uB skips an edge whose guard it could otherwise satisfy.
	ac := A.Connect("ac", C,
		Release(md.uA, 0),
		Alloc(md.pool, AnyUnit))
	ac.Routes = viaPool
	C.Connect("done-c", I, ReleaseF(md.pool, func(m *Machine) TokenID { return AnyUnit }))

	ab := A.Connect("ab", B,
		Release(md.uA, 0),
		Alloc(md.uB, AnyUnit),
		Alloc(md.pool, AnyUnit))
	ab.Routes = viaB
	ab.Action = func(m *Machine) {
		if t, ok := m.HeldToken(md.uB, AnyUnit); ok {
			// A deterministic, machine-dependent busy window exercises
			// the BeginStep crossing wakes.
			md.uB.SetBusy(t.ID, uint64(m.Age%3))
		}
	}

	B.Connect("done", I,
		ReleaseF(md.uB, func(m *Machine) TokenID { return AnyUnit }),
		ReleaseF(md.pool, func(m *Machine) TokenID { return AnyUnit }))

	ResetEdge(A, I, md.reset)
	ResetEdge(B, I, md.reset)
	ResetEdge(C, I, md.reset)

	d := NewDirector()
	d.AddManager(md.uA, md.uB, md.pool, md.reset)
	for i := 0; i < machines; i++ {
		d.AddMachine(NewMachine(fmt.Sprintf("m%d", i), I))
	}
	md.d = d
	return md
}

// runDiffModel drives the model for steps control steps under the
// given engine and returns the transition trace (see run).
func runDiffModel(t *testing.T, eng Engine, noRestart bool, policy bool, steps int) []Event {
	t.Helper()
	md := buildDiffModel(6, 1<<30)
	md.d.Engine = eng
	md.d.NoRestart = noRestart
	if policy {
		md.d.RestartPolicy = func(m *Machine, e *Edge) bool { return e.Name == "done" }
	}
	return md.run(t, steps)
}

// run drives the model for steps control steps, squashing the youngest
// active machine at a fixed cadence, and returns the transition trace.
func (md *diffModel) run(t *testing.T, steps int) []Event {
	t.Helper()
	eng, noRestart, policy := md.d.Engine, md.d.NoRestart, md.d.RestartPolicy != nil
	rec := NewRecorder()
	md.d.Tracer = rec
	for i := 0; i < steps; i++ {
		if i > 0 && i%17 == 0 {
			var youngest *Machine
			for _, m := range md.d.Machines() {
				if !m.InInitial() && (youngest == nil || m.Age > youngest.Age) {
					youngest = m
				}
			}
			if youngest != nil {
				md.reset.Mark(youngest)
			}
		}
		if err := md.d.Step(); err != nil {
			t.Fatalf("step %d (engine=%v noRestart=%v policy=%v): %v", i, eng, noRestart, policy, err)
		}
	}
	return rec.Events()
}

// TestEventSchedulerMatchesScan locks the event-driven and compiled
// engines to the reference scan over a model exercising untracked
// failures, busy-window wakes, restarts, restart policies and
// squashes.
func TestEventSchedulerMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		name      string
		noRestart bool
		policy    bool
	}{
		{"restart", false, false},
		{"norestart", true, false},
		{"policy", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runDiffModel(t, EngineScan, tc.noRestart, tc.policy, 400)
			if len(want) == 0 {
				t.Fatal("reference run produced no transitions")
			}
			taken := map[string]int{}
			for _, ev := range want {
				taken[ev.Edge]++
			}
			if taken["ab"] == 0 || taken["ac"] == 0 {
				t.Fatalf("both routes must be taken: ab %d, ac %d", taken["ab"], taken["ac"])
			}
			for _, eng := range []Engine{EngineEvent, EngineCompiled} {
				got := runDiffModel(t, eng, tc.noRestart, tc.policy, 400)
				compareTraces(t, want, got)
			}
		})
	}
}

// TestProbeEdgeAgreesWithTry drives the adversarial model through
// state functions that probe every edge the route admits just before
// the interpreter tries it: the probe must predict each try's outcome
// and leave the blocked list to the try. The probes change nothing, so
// the run reproduces the reference scan's trace.
func TestProbeEdgeAgreesWithTry(t *testing.T) {
	want := runDiffModel(t, EngineScan, false, false, 400)
	md := buildDiffModel(6, 1<<30)
	outcomes := map[bool]int{}
	probeThenTry := func(m *Machine, es []*Edge) (*Edge, error) {
		for _, e := range es {
			if e.excludes(m.Route) {
				continue
			}
			blocked := len(m.blocked)
			probe := m.ProbeEdge(e)
			if len(m.blocked) != blocked {
				t.Fatalf("step %d: probing %s for %s changed the blocked list", md.d.StepCount(), e.Name, m.Name)
			}
			ok, err := m.GenFallback(e)
			if err != nil {
				return e, err
			}
			if probe != ok {
				t.Fatalf("step %d: probing %s for %s = %v, the try = %v", md.d.StepCount(), e.Name, m.Name, probe, ok)
			}
			outcomes[ok]++
			if ok {
				return e, nil
			}
		}
		return nil, nil
	}
	fns := map[string]GenState{}
	for _, s := range reachable(md.d.Machines()[0].Initial) {
		g := GenState{Fn: probeThenTry}
		for _, e := range s.Out {
			g.Edges = append(g.Edges, GenEdge{Name: e.Name, Routes: e.Routes})
		}
		fns[s.Name] = g
	}
	if err := md.d.AttachGenerated(fns); err != nil {
		t.Fatal(err)
	}
	md.d.Engine = EngineGenerated
	compareTraces(t, want, md.run(t, 400))
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Fatalf("tries: %d committed, %d refused; want both", outcomes[true], outcomes[false])
	}
}

func compareTraces(t *testing.T, want, got []Event) {
	t.Helper()
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Fatalf("traces diverge at transition %d:\n  scan:  %+v\n  event: %+v", i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("trace lengths differ: scan %d vs event %d", len(want), len(got))
	}
}

// TestEventSchedulerIdleCostsNoEvaluations checks the point of the
// exercise: once every machine is suspended on unchanging managers,
// further steps evaluate nothing.
func TestEventSchedulerIdleCostsNoEvaluations(t *testing.T) {
	u := NewUnitManager("u", 1)
	S := NewState("S")
	I := NewState("I")
	evals := 0
	e := I.Connect("grab", S, Alloc(u, 0))
	e.When = func(m *Machine) bool { evals++; return true }
	S.Connect("back", I, Release(u, 0))

	d := NewDirector()
	d.AddManager(u)
	for i := 0; i < 4; i++ {
		d.AddMachine(NewMachine(fmt.Sprintf("m%d", i), I))
	}
	// Wedge the unit: the owner can never release it.
	u.SetBusy(0, 1<<60)
	for i := 0; i < 3; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// By now m0 owns u and sleeps on its release; m1..m3 sleep on the
	// allocation. Further steps must not invoke any When predicate.
	evals = 0
	for i := 0; i < 50; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if evals != 0 {
		t.Fatalf("idle steps evaluated edges %d times; want 0", evals)
	}
}

// TestEventSchedulerWakeAfterIdle checks that a manager-state change
// after a long fully-suspended stretch reactivates the population.
func TestEventSchedulerWakeAfterIdle(t *testing.T) {
	u := NewUnitManager("u", 1)
	I := NewState("I")
	S := NewState("S")
	I.Connect("grab", S, Alloc(u, 0))
	S.Connect("back", I, Release(u, 0))

	d := NewDirector()
	d.AddManager(u)
	m0 := NewMachine("m0", I)
	m1 := NewMachine("m1", I)
	d.AddMachine(m0, m1)
	rec := NewRecorder()
	d.Tracer = rec

	u.SetBusy(0, 4) // the unit refuses release until step 5
	for i := 0; i < 3; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m0.InInitial() || !m1.InInitial() {
		t.Fatalf("unexpected states: m0 initial=%v m1 initial=%v", m0.InInitial(), m1.InInitial())
	}
	grabs := func() int {
		n := 0
		for _, ev := range rec.Events() {
			if ev.Edge == "grab" {
				n++
			}
		}
		return n
	}
	if got := grabs(); got != 1 {
		t.Fatalf("before the busy window expires: %d grabs, want 1", got)
	}
	// Steps 3..4: everyone suspended. Step 5: the busy window expires,
	// m0 releases and the woken m1 allocates in the same step.
	for i := 3; i <= 5; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := grabs(); got != 2 {
		t.Fatalf("after the busy window expired: %d grabs, want 2 (m1 was not woken)", got)
	}
	if m1.InInitial() {
		t.Fatal("m1 should be holding the unit after step 5")
	}
}

// TestScanFallbackWithCustomRank pins the dispatch rule: a custom
// ranking silently selects the reference scheduler, because the event
// scheduler's serve order is defined in terms of AgeRank.
func TestScanFallbackWithCustomRank(t *testing.T) {
	u := NewUnitManager("u", 1)
	I := NewState("I")
	S := NewState("S")
	I.Connect("grab", S, Alloc(u, 0))
	S.Connect("back", I, Release(u, 0))
	d := NewDirector()
	d.Rank = func(a, b *Machine) bool { return a.Name > b.Name }
	d.AddManager(u)
	a, b := NewMachine("a", I), NewMachine("b", I)
	d.AddMachine(a, b)
	if err := d.Step(); err != nil {
		t.Fatal(err)
	}
	// Under the custom rank, b is served first and takes the unit.
	if b.InInitial() {
		t.Fatal("custom rank was not honored; b should have been served first")
	}
}

// latchManager grants a token only while open. Opening it is a change
// outside the token protocol that the manager does not announce: the
// case Director.Wake exists for.
type latchManager struct {
	BaseManager
	open bool
}

func (l *latchManager) Allocate(m *Machine, id TokenID) (Token, bool) {
	return Token{Mgr: l, ID: id}, l.open
}
func (l *latchManager) Release(m *Machine, t Token) bool    { return true }
func (l *latchManager) Inquire(m *Machine, id TokenID) bool { return l.open }
func (l *latchManager) SleepSafeManager() bool              { return true }

// TestDirectorWake: the event scheduler suspends a machine refused by
// a sleep-safe manager, so an unannounced change leaves it asleep
// until the model calls Wake; the scan scheduler re-evaluates every
// step, sees the change at once, and treats Wake as a no-op.
func TestDirectorWake(t *testing.T) {
	for _, eng := range []Engine{EngineEvent, EngineScan} {
		l := &latchManager{BaseManager: BaseManager{ManagerName: "latch"}}
		I, S := NewState("I"), NewState("S")
		I.Connect("pass", S, Alloc(l, 0))
		d := NewDirector()
		d.Engine = eng
		d.AddManager(l)
		m := NewMachine("m", I)
		d.AddMachine(m)
		step := func(n int) {
			for i := 0; i < n; i++ {
				if err := d.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		step(2)
		l.open = true
		step(2)
		if asleep := m.InInitial(); asleep != (eng == EngineEvent) {
			t.Fatalf("engine %v: machine asleep after an unannounced change = %v", eng, asleep)
		}
		d.Wake(m)
		step(1)
		if m.State() != S {
			t.Fatalf("engine %v: machine in %s after Wake, want S", eng, m.State().Name)
		}
	}
}

// TestRouteSkipSleeps: an edge the machine's route excludes is skipped
// before it is tried — its When never runs — and is not an untracked
// failure, so a machine that fails only by route and at a tracked
// refusal sleeps on the refusing manager until it wakes.
func TestRouteSkipSleeps(t *testing.T) {
	for _, eng := range []Engine{EngineEvent, EngineCompiled} {
		t.Run(eng.String(), func(t *testing.T) {
			u := NewUnitManager("u", 1)
			I := NewState("I")
			Q := NewState("Q")
			S := NewState("S")
			bind := I.Connect("bind", Q)
			bind.Action = func(m *Machine) { m.Route = 2 }
			whenEvals := 0
			other := Q.Connect("other", S, Alloc(u, 0))
			other.Routes = 1
			other.When = func(m *Machine) bool { whenEvals++; return true }
			mine := Q.Connect("mine", S, Alloc(u, 0))
			mine.Routes = 2 | 4
			mine.Action = func(m *Machine) { u.SetBusy(0, 5) }
			S.Connect("back", I, Release(u, 0))

			d := NewDirector()
			d.Engine = eng
			d.AddManager(u)
			m0, m1 := NewMachine("m0", I), NewMachine("m1", I)
			d.AddMachine(m0, m1)
			for i := 0; i < 3; i++ {
				if err := d.Step(); err != nil {
					t.Fatal(err)
				}
			}
			// m0 holds u through its busy window; m1 was refused the
			// allocation and skipped "other" by route.
			if m0.State() != S || m1.State() != Q {
				t.Fatalf("states m0=%s m1=%s, want S and Q", m0.State().Name, m1.State().Name)
			}
			if d.WillEvaluate(m1) {
				t.Fatal("m1 failed only by route and a tracked refusal but stays ready")
			}
			for i := 0; i < 10 && m1.State() != S; i++ {
				if err := d.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if m1.State() != S {
				t.Fatal("m1 was not woken when m0 released the unit")
			}
			if whenEvals != 0 {
				t.Fatalf("the route-excluded edge's When ran %d times", whenEvals)
			}
		})
	}
}

// TestProbeEdgeHonoursRoute: the invariant checker's probe skips an
// edge the machine's route excludes exactly as the director does.
func TestProbeEdgeHonoursRoute(t *testing.T) {
	u := NewUnitManager("u", 1)
	I := NewState("I")
	S := NewState("S")
	e := I.Connect("grab", S, Alloc(u, 0))
	e.Routes = 1
	m := NewMachine("m", I)
	for _, tc := range []struct {
		route, routes uint64
		want          bool
	}{
		{route: 2, routes: 1, want: false},
		{route: 3, routes: 1, want: true},
		{route: 1, routes: 1, want: true},
		{route: 0, routes: 1, want: true}, // an unrouted machine tries every edge
		{route: 2, routes: 0, want: true}, // an unmasked edge serves every route
	} {
		m.Route, e.Routes = tc.route, tc.routes
		if got := m.ProbeEdge(e); got != tc.want {
			t.Errorf("route %b, edge routes %b: probe = %v, want %v", tc.route, tc.routes, got, tc.want)
		}
	}
}
