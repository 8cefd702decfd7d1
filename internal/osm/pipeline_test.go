package osm

import "testing"

// This file exercises the complete §4 modeling scheme of the paper on
// a generic 5-stage pipeline (the paper's Figures 5 and 6): operation
// flow, structure hazards, data hazards, variable latency and control
// hazards, all expressed as state transitions and token transactions.

// pinstr is the toy operation format flowing through the test pipeline.
type pinstr struct {
	op   string // "add", "nop", "br"
	dst  int
	src1 int
	imm  uint64
	v1   uint64 // operand value latched at D->E
}

// pipe5 is a generic in-order 5-stage pipeline model.
type pipe5 struct {
	d                  *Director
	mf, md, me, mb, mw *UnitManager
	rf                 *RegFileManager
	reset              *ResetManager
	prog               []pinstr
	pc                 int
	done               int // operations retired
}

func newPipe5(nops int, prog []pinstr) *pipe5 {
	p := &pipe5{
		mf:    NewUnitManager("IF", 1),
		md:    NewUnitManager("ID", 1),
		me:    NewUnitManager("EX", 1),
		mb:    NewUnitManager("BF", 1),
		mw:    NewUnitManager("WB", 1),
		rf:    NewRegFileManager("RF", 8),
		reset: NewResetManager("RESET"),
		prog:  prog,
	}
	i := NewState("I")
	f := NewState("F")
	d := NewState("D")
	e := NewState("E")
	b := NewState("B")
	w := NewState("W")

	fetch := i.Connect("e0", f, Alloc(p.mf, 0))
	fetch.When = func(m *Machine) bool { return p.pc < len(p.prog) }
	fetch.Action = func(m *Machine) {
		ins := p.prog[p.pc]
		p.pc++
		m.Ctx = &ins
	}

	dst := func(m *Machine) TokenID { return UpdateToken(m.Ctx.(*pinstr).dst) }
	src := func(m *Machine) TokenID { return TokenID(m.Ctx.(*pinstr).src1) }

	f.Connect("e1", d, Release(p.mf, 0), Alloc(p.md, 0))

	toE := d.Connect("e2", e,
		Release(p.md, 0), Alloc(p.me, 0),
		InquireF(p.rf, src), AllocF(p.rf, dst))
	toE.Action = func(m *Machine) {
		ins := m.Ctx.(*pinstr)
		ins.v1 = p.rf.Read(ins.src1)
	}

	toB := e.Connect("e3", b, Release(p.me, 0), Alloc(p.mb, 0))
	toB.Action = func(m *Machine) {
		ins := m.Ctx.(*pinstr)
		if err := m.SetData(p.rf, UpdateToken(ins.dst), ins.v1+ins.imm); err != nil {
			panic(err)
		}
	}

	b.Connect("e4", w, Release(p.mb, 0), Alloc(p.mw, 0))

	retire := w.Connect("e5", i, Release(p.mw, 0), ReleaseF(p.rf, dst))
	retire.Action = func(m *Machine) { p.done++ }

	// Reset edges for control-hazard squashing on the two
	// speculative states.
	ResetEdge(f, i, p.reset)
	ResetEdge(d, i, p.reset)

	p.d = NewDirector()
	p.d.CheckDeadlock = true
	p.d.AddManager(p.mf, p.md, p.me, p.mb, p.mw, p.rf, p.reset)
	for k := 0; k < nops; k++ {
		p.d.AddMachine(NewMachine("op"+string(rune('0'+k)), i))
	}
	return p
}

func (p *pipe5) run(t *testing.T, maxSteps int) int {
	t.Helper()
	for s := 0; s < maxSteps; s++ {
		if err := p.d.Step(); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if p.done >= len(p.prog) {
			return s + 1
		}
	}
	t.Fatalf("program did not finish in %d steps (done=%d/%d)", maxSteps, p.done, len(p.prog))
	return 0
}

func TestPipelineSingleOperationLatency(t *testing.T) {
	p := newPipe5(1, []pinstr{{op: "add", dst: 1, src1: 0, imm: 7}})
	steps := p.run(t, 20)
	if steps != 6 {
		t.Fatalf("single-op latency = %d steps, want 6 (I->F->D->E->B->W->I)", steps)
	}
	if got := p.rf.Read(1); got != 7 {
		t.Fatalf("r1 = %d, want 7", got)
	}
}

func TestPipelineThroughputOneOpPerCycle(t *testing.T) {
	// Independent operations should stream: N ops retire in 5+N
	// steps, proving structure hazards resolve with same-step
	// handoff and no artificial bubbles.
	var prog []pinstr
	for k := 0; k < 8; k++ {
		prog = append(prog, pinstr{op: "add", dst: k % 4, src1: 4 + k%4, imm: uint64(k)})
	}
	p := newPipe5(8, prog)
	steps := p.run(t, 50)
	if steps != 5+len(prog) {
		t.Fatalf("throughput: %d ops in %d steps, want %d", len(prog), steps, 5+len(prog))
	}
}

func TestPipelineStructureHazard(t *testing.T) {
	// With only 2 machines available the fetch stage can still
	// saturate; the structural limit is the stage occupancy token.
	// Two machines on an 8-op program must interleave correctly and
	// the program still completes (slower).
	var prog []pinstr
	for k := 0; k < 8; k++ {
		prog = append(prog, pinstr{op: "add", dst: 1, src1: 0, imm: 1})
	}
	// dst=src chains force full serialization: each op reads r0 and
	// writes r1, so only the r1-update token serializes... use
	// distinct regs to isolate the structural effect.
	for k := range prog {
		prog[k].dst = 1 + k%2
		prog[k].src1 = 0
	}
	p := newPipe5(2, prog)
	steps := p.run(t, 100)
	// With 2 machines, at most 2 operations are in flight; each pair
	// takes ~6 cycles with overlap. Just assert completion and that
	// it is slower than the fully machined case.
	if steps <= 13 {
		t.Fatalf("2-machine run finished in %d steps; expected structural slowdown", steps)
	}
}

func TestPipelineDataHazardStalls(t *testing.T) {
	// op1 writes r1; op2 reads r1. op2 must stall in D until op1's
	// update token retires at W.
	prog := []pinstr{
		{op: "add", dst: 1, src1: 0, imm: 5},
		{op: "add", dst: 2, src1: 1, imm: 3},
	}
	p := newPipe5(2, prog)
	steps := p.run(t, 30)
	if got := p.rf.Read(2); got != 8 {
		t.Fatalf("r2 = %d, want 8 (dependent value)", got)
	}
	// Independent pair would finish in 7; the dependence must cost
	// extra cycles (op2 waits in D until op1 retires in step 6, then
	// E,B,W,I in 7,8,9).
	if steps != 9 {
		t.Fatalf("dependent pair took %d steps, want 9", steps)
	}
}

func TestPipelineVariableLatency(t *testing.T) {
	// An instruction-cache miss: the fetch manager turns down the
	// token release until the access finishes, so the operation
	// stalls in F (the paper's variable-latency example).
	prog := []pinstr{{op: "add", dst: 1, src1: 0, imm: 1}}
	p := newPipe5(1, prog)
	if err := p.d.Step(); err != nil { // enters F
		t.Fatal(err)
	}
	p.mf.SetBusy(0, 3) // miss penalty: 3 more cycles in F
	steps := p.run(t, 30)
	if steps+1 != 6+3 {
		t.Fatalf("latency with 3-cycle miss = %d total steps, want 9", steps+1)
	}
}

func TestPipelineControlHazard(t *testing.T) {
	// Let two speculative operations enter F and D, then squash them
	// via the reset manager; they must discard their tokens and the
	// stages must be free next step.
	prog := []pinstr{
		{op: "add", dst: 1, src1: 0, imm: 1},
		{op: "add", dst: 2, src1: 0, imm: 2},
		{op: "add", dst: 3, src1: 0, imm: 3},
	}
	p := newPipe5(3, prog)
	p.d.Step() // op0 -> F
	p.d.Step() // op0 -> D, op1 -> F
	var spec []*Machine
	for _, m := range p.d.Machines() {
		if !m.InInitial() {
			spec = append(spec, m)
			p.reset.Mark(m)
		}
	}
	if len(spec) != 2 {
		t.Fatalf("expected 2 speculative ops in flight, got %d", len(spec))
	}
	pcBefore := p.pc
	if err := p.d.Step(); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec {
		if !m.InInitial() || len(m.Tokens()) != 0 {
			t.Fatalf("machine %s not squashed cleanly", m.Name)
		}
	}
	if p.reset.MarkedCount() != 0 {
		t.Fatal("reset marks must clear as the reset edges fire")
	}
	// The squash step also refetches: the highest-priority reset
	// edges fire first, freeing IF, and an idle machine may allocate
	// it in the same step. Either way the stages must not be leaked.
	if p.mf.Free()+p.md.Free() < 1 {
		t.Fatal("squashed stage tokens were not reclaimed")
	}
	_ = pcBefore
}

func TestPipelineResetEdgeOutranksNormalFlow(t *testing.T) {
	// A squashed operation in D whose D->E condition is also
	// satisfied must take the reset edge (higher static priority).
	prog := []pinstr{{op: "add", dst: 1, src1: 0, imm: 1}}
	p := newPipe5(1, prog)
	p.d.Step() // F
	p.d.Step() // D
	m := p.d.Machines()[0]
	if m.State().Name != "D" {
		t.Fatalf("setup: machine in %s, want D", m.State().Name)
	}
	p.reset.Mark(m)
	p.d.Step()
	if !m.InInitial() {
		t.Fatal("marked machine must take the reset edge, not advance to E")
	}
	if p.rf.Pending(1) != 0 {
		t.Fatal("squashed op must not leave a pending register update")
	}
}

func TestPipelineModelValidates(t *testing.T) {
	p := newPipe5(1, nil)
	init := p.d.Machines()[0].Initial
	if issues := Validate(init, 16); len(issues) != 0 {
		t.Fatalf("pipeline model should validate cleanly, got %v", issues)
	}
}

func TestPipelineMultithreadTags(t *testing.T) {
	// Section 6: thread-tagged machines; the tag is part of the
	// identifier, so each thread allocates its own unit and the
	// threads do not interfere.
	i, f := NewState("I"), NewState("F")
	u := NewUnitManager("ctx", 2)
	tag := func(m *Machine) TokenID { return TokenID(m.Tag) }
	i.Connect("go", f, AllocF(u, tag))
	f.Connect("back", i, ReleaseF(u, tag))

	d := NewDirector()
	d.AddManager(u)
	t0 := NewMachine("t0", i)
	t0.Tag = 0
	t1 := NewMachine("t1", i)
	t1.Tag = 1
	t0b := NewMachine("t0b", i)
	t0b.Tag = 0
	d.AddMachine(t0, t1, t0b)
	if err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if u.Holder(0) != t0 || u.Holder(1) != t1 {
		t.Fatalf("per-thread units misallocated: %v %v", u.Holder(0), u.Holder(1))
	}
	if !t0b.InInitial() {
		t.Fatal("second thread-0 machine must be blocked by its thread's unit")
	}
}
