package osm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/snap"
)

// twoStage builds the smallest interesting model: I -> F -> I with a
// single-unit fetch stage, n competing machines.
func twoStage(n int) (*Director, *UnitManager, []*Machine) {
	i, f := NewState("I"), NewState("F")
	mf := NewUnitManager("fetch", 1)
	i.Connect("acquire", f, Alloc(mf, 0))
	f.Connect("retire", i, Release(mf, 0))
	d := NewDirector()
	d.AddManager(mf)
	var ms []*Machine
	for k := 0; k < n; k++ {
		m := NewMachine("op"+string(rune('0'+k)), i)
		ms = append(ms, m)
		d.AddMachine(m)
	}
	return d, mf, ms
}

func TestDirectorAtMostOneTransitionPerStep(t *testing.T) {
	// A lone machine on a two-state ring must advance exactly one
	// edge per control step, not race around the ring.
	d, _, ms := twoStage(1)
	if err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if ms[0].State().Name != "F" {
		t.Fatalf("after step 1: state=%s, want F", ms[0].State().Name)
	}
	if err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if !ms[0].InInitial() {
		t.Fatalf("after step 2: state=%s, want I", ms[0].State().Name)
	}
}

func TestDirectorSameStepHandoff(t *testing.T) {
	// The paper's Section 4: when a senior operation releases the
	// fetch token, another operation can enter the fetch stage in the
	// same control step, because the senior machine is ranked higher
	// and scheduled first.
	d, mf, ms := twoStage(2)
	if err := d.Step(); err != nil { // op0 takes fetch
		t.Fatal(err)
	}
	if ms[0].State().Name != "F" || !ms[1].InInitial() {
		t.Fatal("step 1: op0 in F, op1 blocked in I expected")
	}
	if err := d.Step(); err != nil { // op0 retires AND op1 enters F
		t.Fatal(err)
	}
	if !ms[0].InInitial() {
		t.Fatal("step 2: op0 should have retired")
	}
	if ms[1].State().Name != "F" {
		t.Fatal("step 2: op1 should have entered F in the same step (handoff)")
	}
	if mf.Holder(0) != ms[1] {
		t.Fatal("fetch unit owner should be op1")
	}
}

func TestDirectorRankOrderDeterminism(t *testing.T) {
	// Two idle machines compete for one unit; registration order must
	// break the tie deterministically.
	d, mf, ms := twoStage(2)
	if err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if mf.Holder(0) != ms[0] {
		t.Fatal("registration order must win the initial tie")
	}
}

func TestDirectorSeniorityRanking(t *testing.T) {
	// Build a 2-deep pipeline where both machines are active; the
	// senior (older Age) machine must be scheduled first so the
	// pipeline advances without bubbles.
	i, f, g := NewState("I"), NewState("F"), NewState("G")
	mf := NewUnitManager("f", 1)
	mg := NewUnitManager("g", 1)
	i.Connect("if", f, Alloc(mf, 0))
	f.Connect("fg", g, Release(mf, 0), Alloc(mg, 0))
	g.Connect("gi", i, Release(mg, 0))
	d := NewDirector()
	d.AddManager(mf, mg)
	a, b := NewMachine("a", i), NewMachine("b", i)
	d.AddMachine(a, b)

	states := func() string { return a.State().Name + b.State().Name }
	want := []string{"FI", "GF", "IG"}
	for step, w := range want {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		if got := states(); got[:2] != w {
			t.Fatalf("step %d: states=%s, want %s", step+1, got, w)
		}
	}
	// Ages: a left I before b.
	if a.Age == 0 || b.Age == 0 {
		t.Fatal("active machines must have ages assigned")
	}
}

func TestDirectorRestartUnblocksHigherRank(t *testing.T) {
	// Construct the case the outer-loop restart exists for: a senior
	// machine blocked on a resource that a junior machine frees later
	// in the same step. With restart the senior moves in this step;
	// with NoRestart it stalls a step.
	build := func(noRestart bool) (string, string) {
		i, w1, h := NewState("I"), NewState("W1"), NewState("H")
		res := NewUnitManager("res", 1)
		// senior: I -> W1 (free) then W1 -> H needs res.
		i.Connect("s0", w1)
		w1.Connect("s1", h, Alloc(res, 0))
		// junior: I2 -> J1 grabbing res, then J1 -> I2 releasing res.
		i2, j1 := NewState("I2"), NewState("J1")
		i2.Connect("j0", j1, Alloc(res, 0))
		j1.Connect("j1", i2, Release(res, 0))

		d := NewDirector()
		d.NoRestart = noRestart
		d.AddManager(res)
		senior := NewMachine("senior", i)
		junior := NewMachine("junior", i2)
		// Rank: senior first, always.
		d.Rank = func(a, b *Machine) bool { return a == senior && b != senior }
		d.AddMachine(senior, junior)

		mustStep := func() {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
		mustStep() // senior I->W1; junior grabs res
		mustStep() // senior blocked on res; junior releases res
		return senior.State().Name, junior.State().Name
	}
	s, _ := build(false)
	if s != "H" {
		t.Fatalf("with restart: senior state=%s, want H (unblocked in-step)", s)
	}
	s, _ = build(true)
	if s != "W1" {
		t.Fatalf("with NoRestart: senior state=%s, want W1 (stalls a step)", s)
	}
}

func TestDirectorEdgePriority(t *testing.T) {
	// Two satisfied parallel edges: the higher static priority
	// (earlier in Out) must win.
	i, a, b := NewState("I"), NewState("A"), NewState("B")
	i.Connect("high", a)
	i.Connect("low", b)
	d := NewDirector()
	m := NewMachine("m", i)
	d.AddMachine(m)
	if err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if m.State() != a {
		t.Fatalf("state=%s, want A (higher priority edge)", m.State().Name)
	}
	_ = b
}

func TestDirectorTracerSeesTransitions(t *testing.T) {
	d, _, _ := twoStage(1)
	var events []string
	d.Tracer = TracerFunc(func(step uint64, m *Machine, e *Edge) {
		events = append(events, e.Name)
	})
	d.Step()
	d.Step()
	if got := strings.Join(events, ","); got != "acquire,retire" {
		t.Fatalf("trace = %q, want acquire,retire", got)
	}
}

func TestDirectorRunUntilDone(t *testing.T) {
	d, _, ms := twoStage(1)
	retired := 0
	d.Tracer = TracerFunc(func(step uint64, m *Machine, e *Edge) {
		if e.Name == "retire" {
			retired++
		}
	})
	n, err := d.Run(func() bool { return retired >= 3 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("steps = %d, want 6 (two per traversal)", n)
	}
	if d.StepCount() != 6 {
		t.Fatalf("StepCount = %d, want 6", d.StepCount())
	}
	_ = ms
}

func TestDirectorResetRestoresModel(t *testing.T) {
	d, mf, ms := twoStage(2)
	d.Step()
	d.Reset()
	if d.StepCount() != 0 {
		t.Fatal("Reset must zero the step counter")
	}
	for _, m := range ms {
		if !m.InInitial() {
			t.Fatal("Reset must return machines to initial")
		}
	}
	if mf.Free() != 1 {
		t.Fatal("Reset must return tokens")
	}
}

func TestDirectorDeadlockDetection(t *testing.T) {
	// Classic cyclic wait: a holds X wants Y; b holds Y wants X.
	x := NewUnitManager("X", 1)
	y := NewUnitManager("Y", 1)
	ia, sa, ta := NewState("Ia"), NewState("Sa"), NewState("Ta")
	ia.Connect("a0", sa, Alloc(x, 0))
	sa.Connect("a1", ta, Alloc(y, 0), Release(x, 0))
	ta.Connect("a2", ia, Release(y, 0))
	ib, sb, tb := NewState("Ib"), NewState("Sb"), NewState("Tb")
	ib.Connect("b0", sb, Alloc(y, 0))
	sb.Connect("b1", tb, Alloc(x, 0), Release(y, 0))
	tb.Connect("b2", ib, Release(x, 0))

	d := NewDirector()
	d.CheckDeadlock = true
	d.AddManager(x, y)
	a, b := NewMachine("a", ia), NewMachine("b", ib)
	d.AddMachine(a, b)

	if err := d.Step(); err != nil { // both grab their first token
		t.Fatal(err)
	}
	err := d.Step() // both blocked on each other
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("error = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "a") || !strings.Contains(err.Error(), "b") {
		t.Fatalf("deadlock message should name the cycle: %v", err)
	}
}

func TestDirectorNoFalseDeadlockOnPlainStall(t *testing.T) {
	// One machine stalled on a busy unit is a stall, not a deadlock.
	i, f := NewState("I"), NewState("F")
	u := NewUnitManager("u", 1)
	i.Connect("go", f, Alloc(u, 0))
	f.Connect("done", i, Release(u, 0))
	d := NewDirector()
	d.CheckDeadlock = true
	d.AddManager(u)
	m := NewMachine("m", i)
	d.AddMachine(m)
	d.Step()
	u.SetBusy(0, 3)
	for k := 0; k < 3; k++ {
		if err := d.Step(); err != nil {
			t.Fatalf("stall step %d: %v", k, err)
		}
		if m.InInitial() {
			t.Fatalf("stall step %d: machine released too early", k)
		}
	}
	if err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if !m.InInitial() {
		t.Fatal("machine should drain once the busy window passes")
	}
}

func TestDirectorPropagatesModelErrors(t *testing.T) {
	i, f := NewState("I"), NewState("F")
	u := NewUnitManager("u", 1)
	i.Connect("bad", f, Release(u, 0)) // releases what it never held
	d := NewDirector()
	d.AddManager(u)
	d.AddMachine(NewMachine("m", i))
	if err := d.Step(); err == nil {
		t.Fatal("model error must propagate out of Step")
	}
}

func TestDirectorStepperNotification(t *testing.T) {
	// The director must call BeginStep on Stepper managers so their
	// notion of time advances: a busy window set at step 0 must be
	// observed to drain as the director steps.
	d, mf, _ := twoStage(1)
	mf.SetBusy(0, 2) // busy through steps 1 and 2
	before := mf.Busy(0)
	for k := 0; k < 4; k++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if before == 0 {
		t.Fatal("setup: unit should start busy")
	}
	if mf.Busy(0) != 0 {
		t.Fatalf("busy = %d after 4 steps, want 0 (BeginStep not delivered?)", mf.Busy(0))
	}
}

func TestAgeRankOrdersActiveBeforeIdle(t *testing.T) {
	i := NewState("I")
	a, b := NewMachine("a", i), NewMachine("b", i)
	f := NewState("F")
	a.cur = f
	a.Age = 5
	if !AgeRank(a, b) {
		t.Fatal("active machine must outrank idle machine")
	}
	if AgeRank(b, a) {
		t.Fatal("idle machine must not outrank active machine")
	}
	c := NewMachine("c", i)
	c.cur = f
	c.Age = 3
	if !AgeRank(c, a) || AgeRank(a, c) {
		t.Fatal("smaller age (senior) must outrank larger age")
	}
	if AgeRank(b, b) {
		t.Fatal("idle vs idle must be a tie (false)")
	}
}

// scanOrderModel registers n machines, in a random order, over a
// two-state ring whose edges fire on a seeded coin, so machines leave
// and re-enter their initial state irregularly and the idle/active
// mix and the ages churn from step to step.
func scanOrderModel(rng *rand.Rand, n int) *Director {
	i, a := NewState("I"), NewState("A")
	coin := func(*Machine) bool { return rng.Intn(3) != 0 }
	i.Connect("go", a).When = coin
	a.Connect("back", i).When = coin
	d := NewDirector()
	d.Engine = EngineScan
	for _, k := range rng.Perm(n) {
		d.AddMachine(NewMachine(fmt.Sprintf("m%d", k), i))
	}
	return d
}

// pokeActive moves a random subset of ms out of their initial state
// with random ages, which may repeat one another and the director's.
func pokeActive(rng *rand.Rand, ms []*Machine) {
	for _, m := range ms {
		if rng.Intn(2) == 0 {
			m.cur = m.Initial.Out[0].To
			m.Age = uint64(rng.Intn(2*len(ms)) + 1)
		}
	}
}

// TestScanOrderMatchesAgeRank is a property test of the scan's keyed
// serve order: over random populations (sizes, registration orders,
// idle/active mixes, ages) the order scanOrder keeps across steps
// equals the stable AgeRank sort of the registration order, the order
// the scan used to rebuild every step. It holds on a fresh population,
// at every step of a run, and after ages are set by hand, AddMachine,
// Reset and a snapshot restore, each of which leaves the kept order
// stale.
func TestScanOrderMatchesAgeRank(t *testing.T) {
	names := func(ms []*Machine) string {
		var b strings.Builder
		for _, m := range ms {
			fmt.Fprintf(&b, " %s(%d)", m.Name, m.Age)
			if !m.InInitial() {
				b.WriteString("*")
			}
		}
		return b.String()
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := scanOrderModel(rng, rng.Intn(16)+1)
		check := func(when string) {
			t.Helper()
			want := slices.Clone(d.Machines())
			sort.SliceStable(want, func(i, j int) bool { return AgeRank(want[i], want[j]) })
			if got := d.scanOrder(); !slices.Equal(got, want) {
				t.Fatalf("seed %d, %s: scan order%s, want%s (* = active)", seed, when, names(got), names(want))
			}
		}
		steps := func(when string, n int) {
			t.Helper()
			for k := 0; k < n; k++ {
				if err := d.Step(); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s, step %d", when, k+1))
			}
		}
		pokeActive(rng, d.Machines())
		d.nextAge = uint64(2 * len(d.Machines()))
		check("fresh population")
		steps("run", 6)
		pokeActive(rng, d.Machines())
		check("poked mid-run")
		steps("after the poke", 4)

		late := []*Machine{NewMachine("late0", d.Machines()[0].Initial), NewMachine("late1", d.Machines()[0].Initial)}
		pokeActive(rng, late)
		d.AddMachine(late...)
		check("after AddMachine")
		steps("after AddMachine", 4)

		w := snap.NewWriter()
		if err := d.Snapshot(w); err != nil {
			t.Fatal(err)
		}
		saved := slices.Clone(d.scanOrder())
		d.Reset()
		check("after Reset")
		steps("after Reset", 4)
		if err := d.Restore(snap.NewReader(w.Bytes())); err != nil {
			t.Fatal(err)
		}
		check("after Restore")
		if got := d.scanOrder(); !slices.Equal(got, saved) {
			t.Fatalf("seed %d: restored order%s, snapshot's%s", seed, names(got), names(saved))
		}
		steps("after Restore", 4)
	}
}

func TestDirectorRestartPolicy(t *testing.T) {
	// Same scenario as TestDirectorRestartUnblocksHigherRank, but the
	// restart is gated by a policy: when the policy rejects the
	// junior's releasing edge, the senior stalls a step exactly as
	// with NoRestart; when it accepts, the senior moves in-step.
	build := func(allow bool) string {
		i, w1, h := NewState("I"), NewState("W1"), NewState("H")
		res := NewUnitManager("res", 1)
		i.Connect("s0", w1)
		w1.Connect("s1", h, Alloc(res, 0))
		i2, j1 := NewState("I2"), NewState("J1")
		i2.Connect("j0", j1, Alloc(res, 0))
		j1.Connect("j1", i2, Release(res, 0))

		d := NewDirector()
		d.RestartPolicy = func(m *Machine, e *Edge) bool {
			return allow && e.Name == "j1"
		}
		d.AddManager(res)
		senior := NewMachine("senior", i)
		junior := NewMachine("junior", i2)
		d.Rank = func(a, b *Machine) bool { return a == senior && b != senior }
		d.AddMachine(senior, junior)
		for k := 0; k < 2; k++ {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return senior.State().Name
	}
	if got := build(true); got != "H" {
		t.Errorf("policy-allowed restart: senior in %s, want H", got)
	}
	if got := build(false); got != "W1" {
		t.Errorf("policy-denied restart: senior in %s, want W1", got)
	}
}
