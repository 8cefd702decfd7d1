package hwcentric

import (
	"slices"
	"testing"

	"repro/internal/isa/ppc"
	"repro/internal/mem"
	"repro/internal/sim/ppc750"
	"repro/internal/workload"
)

func TestKernelSignalsSettle(t *testing.T) {
	k := NewKernel()
	a := k.NewSignal("a")
	b := k.NewSignal("b")
	k.Add(modFunc{name: "m", eval: func() { b.Write(a.Read() + 1) }})
	a.Write(10)
	k.Step()
	if b.Read() != 11 {
		t.Fatalf("b = %d, want 11 (value propagated through deltas)", b.Read())
	}
	if k.Cycle() != 1 {
		t.Fatalf("cycle = %d", k.Cycle())
	}
	if ops, evals := k.Activity(); ops == 0 || evals == 0 {
		t.Fatal("activity counters must record signal traffic")
	}
	if k.SignalCount() != 2 {
		t.Fatalf("wires = %d", k.SignalCount())
	}
}

type modFunc struct {
	name string
	eval func()
}

func (m modFunc) Name() string { return m.name }
func (m modFunc) Eval()        { m.eval() }

func TestKernelsCorrectUnderHWModel(t *testing.T) {
	for _, w := range workload.All() {
		n := w.DefaultN / 5
		p, err := w.PPCProgram(n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Run(1_000_000_000)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(s.ISS.Reported) != 1 || s.ISS.Reported[0] != w.Ref(n) {
			t.Errorf("%s: checksum %v, want %#x", w.Name, s.ISS.Reported, w.Ref(n))
		}
		if cpi := st.CPI(); cpi < 0.5 || cpi > 8 {
			t.Errorf("%s: implausible CPI %.2f", w.Name, cpi)
		}
	}
}

// The paper validates the OSM 750 model against the SystemC model and
// finds timing differences within 3%. Our two independent
// implementations must agree to within a few percent on every kernel.
func TestTimingCloseToOSMModel(t *testing.T) {
	const tolerance = 0.08
	for _, w := range workload.All() {
		n := w.DefaultN / 2
		p, err := w.PPCProgram(n)
		if err != nil {
			t.Fatal(err)
		}
		osmSim, err := ppc750.New(p, ppc750.Config{})
		if err != nil {
			t.Fatal(err)
		}
		osmStats, err := osmSim.Run(1_000_000_000)
		if err != nil {
			t.Fatalf("%s (osm): %v", w.Name, err)
		}
		hw, err := New(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		hwStats, err := hw.Run(1_000_000_000)
		if err != nil {
			t.Fatalf("%s (hw): %v", w.Name, err)
		}
		diff := (float64(hwStats.Cycles) - float64(osmStats.Cycles)) / float64(osmStats.Cycles)
		if diff < -tolerance || diff > tolerance {
			t.Errorf("%s: OSM=%d HW=%d cycles (%.1f%% apart, tolerance %.0f%%)",
				w.Name, osmStats.Cycles, hwStats.Cycles, 100*diff, 100*tolerance)
		}
	}
}

func TestActivityCountersExposeComplexity(t *testing.T) {
	w := workload.ByName("g721/dec")
	p, err := w.PPCProgram(50)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(1_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Wires < 10 {
		t.Errorf("expected a port-rich design, got %d wires", st.Wires)
	}
	if st.SignalOps < st.Cycles*10 {
		t.Errorf("expected heavy signal traffic: %d ops over %d cycles", st.SignalOps, st.Cycles)
	}
	if st.ModuleEvals < st.Cycles*8 {
		t.Errorf("every module must evaluate every cycle: %d evals over %d cycles",
			st.ModuleEvals, st.Cycles)
	}
}

func TestHWRunCycleLimit(t *testing.T) {
	p, err := ppc.Assemble("loop: b loop")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2000); err == nil {
		t.Fatal("infinite loop must exhaust the cycle budget")
	}
}

// Decoding at the top of the address space yields no instruction
// instead of panicking: pc+4 must not wrap around the RAM bounds
// check.
func TestDecodeTopOfAddressSpace(t *testing.T) {
	p, err := workload.ByName("gsm/dec").PPCProgram(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.decode(0xfffffffc); d.ok {
		t.Fatal("a word beyond the RAM image decoded as an instruction")
	}
}

// TestRefetchAfterCodeStore: a word rewritten in RAM after it was
// fetched is decoded afresh at its next fetch, so the op's instruction,
// class and register operands describe the word the ISS executes, not
// the one first decoded at that PC.
func TestRefetchAfterCodeStore(t *testing.T) {
	p, err := ppc.Assemble(`
	li r6, 3
	li r7, 4
	li r4, 200
	mtctr r4
loop:
	addi r3, r3, 1
	bdnz loop
	li r0, 1
	sc
`)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := ppc.Assemble("\tadd r5, r6, r7\n")
	if err != nil {
		t.Fatal(err)
	}
	word := repl.Words[0]
	ins, err := ppc.Decode(word)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, Config{Hier: mem.HierarchyConfig{DisableCaches: true, DisableTLBs: true}})
	if err != nil {
		t.Fatal(err)
	}
	target := p.Org + 16 // the loop's addi
	seen := map[*hwOp]bool{}
	// fetched returns an op at target in the fetch queue that no
	// earlier call returned, if any.
	fetched := func() *hwOp {
		for _, o := range s.iq {
			if o.pc == target && !seen[o] {
				seen[o] = true
				return o
			}
		}
		return nil
	}
	step := func(until func() bool) {
		t.Helper()
		for i := 0; !until(); i++ {
			if i == 200 {
				t.Fatal("condition not reached within 200 cycles")
			}
			s.K.Step()
			if s.execErr != nil {
				t.Fatal(s.execErr)
			}
		}
	}
	var o *hwOp
	step(func() bool { o = fetched(); return o != nil })
	if o.ins.Raw == word {
		t.Fatal("the original word already decodes as the replacement")
	}
	for fetched() != nil { // everything queued now predates the store
	}
	s.ISS.RAM.Write32(target, word)
	step(func() bool { o = fetched(); return o != nil })
	if o.ins.Raw != word || o.ins.Op != ppc.ADD || o.ins.RT != 5 || o.class != ins.Class() {
		t.Fatalf("refetched op carries %#x (%v r%d), want the rewritten %#x", o.ins.Raw, o.ins.Op, o.ins.RT, word)
	}
	dsts, gprs := dstIdx(&ins)
	if !slices.Equal(o.srcs, srcIdx(&ins)) || !slices.Equal(o.dsts, dsts) || o.gprs != gprs {
		t.Fatalf("refetched op reads %v and writes %v, want %v and %v", o.srcs, o.dsts, srcIdx(&ins), dsts)
	}
	step(func() bool { return s.ISS.CPU.R[5] == 7 })
}

// TestDecodeTableLineCollision: the fetch-time decode table is
// direct-mapped by word address, as the OSM models' tables are, so a
// PC beyond the text can share a line with a program word. The loop
// calls a routine the test writes at such PCs: each fetch there evicts
// the loop's line, and the next fetch of the loop word decodes it
// afresh. Every in-flight op must carry the decoding of the word RAM
// holds at its PC.
func TestDecodeTableLineCollision(t *testing.T) {
	p, err := ppc.Assemble(`
	li r6, 3
	li r7, 4
	lis r8, 1
	addi r8, r8, 24
	li r9, 0
	mtctr r8
loop:
	bctrl
	addi r9, r9, 1
	cmpwi r9, 3
	bne loop
	li r0, 1
	sc
`)
	if err != nil {
		t.Fatal(err)
	}
	routine, err := ppc.Assemble("\tadd r5, r6, r7\n\tblr\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, Config{Hier: mem.HierarchyConfig{DisableCaches: true, DisableTLBs: true}})
	if err != nil {
		t.Fatal(err)
	}
	line := func(pc uint32) uint32 { return pc >> 2 & uint32(len(s.decodeTable)-1) }
	const at = 0x10018 // the routine; the loop starts at 24
	if p.Org != 0 || line(at) != line(24) || line(at+4) != line(28) {
		t.Fatalf("the routine at %#x does not share the loop's decode-table lines", at)
	}
	for i, w := range routine.Words {
		s.ISS.RAM.Write32(at+uint32(4*i), w)
	}
	calls := 0
	for i := 0; !s.ISS.CPU.Halted; i++ {
		if i == 10_000 {
			t.Fatal("the program did not halt within 10,000 cycles")
		}
		s.K.Step()
		if s.execErr != nil {
			t.Fatal(s.execErr)
		}
		for _, q := range [][]*hwOp{s.iq, s.cq} {
			for _, o := range q {
				if !o.decodeOK {
					continue
				}
				if want := s.ISS.RAM.Read32(o.pc); o.ins.Raw != want {
					t.Fatalf("cycle %d: op at %#x carries %#x, RAM holds %#x", i, o.pc, o.ins.Raw, want)
				}
				if o.pc == at {
					calls++
				}
			}
		}
	}
	if calls == 0 || s.ISS.CPU.R[9] != 3 || s.ISS.CPU.R[5] != 7 {
		t.Fatalf("routine seen in flight %d times, r9=%d r5=%d; want r9=3 r5=7", calls, s.ISS.CPU.R[9], s.ISS.CPU.R[5])
	}
}
