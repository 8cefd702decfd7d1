package osm

import (
	"fmt"
	"testing"
)

// diffModel is a small but adversarial model for scheduler
// equivalence: a three-stage ring with a When-gated injector
// (untracked failures), a shared pool, busy windows (time-based
// wakes), and externally driven squashes (reset edges with
// machine-wide discards).
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

	issue := I.Connect("issue", A, Alloc(md.uA, 0))
	issue.When = func(m *Machine) bool { return md.issued < md.total }
	issue.Action = func(m *Machine) { md.issued++ }

	ab := A.Connect("ab", B,
		Release(md.uA, 0),
		Alloc(md.uB, AnyUnit),
		Alloc(md.pool, AnyUnit))
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

	d := NewDirector()
	d.AddManager(md.uA, md.uB, md.pool, md.reset)
	for i := 0; i < machines; i++ {
		d.AddMachine(NewMachine(fmt.Sprintf("m%d", i), I))
	}
	md.d = d
	return md
}

// runDiffModel drives the model for steps control steps under the
// given engine, squashing the youngest active machine at a fixed
// cadence, and returns the transition trace.
func runDiffModel(t *testing.T, eng Engine, noRestart bool, policy bool, steps int) []Event {
	t.Helper()
	md := buildDiffModel(6, 1<<30)
	md.d.Engine = eng
	md.d.NoRestart = noRestart
	if policy {
		md.d.RestartPolicy = func(m *Machine, e *Edge) bool { return e.Name == "done" }
	}
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
			for _, eng := range []Engine{EngineEvent, EngineCompiled} {
				got := runDiffModel(t, eng, tc.noRestart, tc.policy, 400)
				compareTraces(t, want, got)
			}
		})
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
	if got := rec.EdgeCount("grab"); got != 1 {
		t.Fatalf("before the busy window expires: %d grabs, want 1", got)
	}
	// Steps 3..4: everyone suspended. Step 5: the busy window expires,
	// m0 releases and the woken m1 allocates in the same step.
	for i := 3; i <= 5; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.EdgeCount("grab"); got != 2 {
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
