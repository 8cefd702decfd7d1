package ppc750

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/isa/ppc"
	"repro/internal/mem"
	"repro/internal/osm/invariant"
	"repro/internal/workload"
)

func perfect() Config {
	return Config{Hier: mem.HierarchyConfig{DisableCaches: true, DisableTLBs: true}}
}

func runSrc(t *testing.T, src string, cfg Config) Stats {
	t.Helper()
	p, err := ppc.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every timing test doubles as a differential run of the OSM
	// invariant checker: a violation fails the run.
	invariant.Attach(s.Director())
	st, err := s.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

const exit = "\tli r0, 1\n\tsc\n"

func TestDualIssueIPC(t *testing.T) {
	// A long stream of independent simple-integer operations should
	// sustain close to 2 instructions per cycle (dispatch width 2,
	// IU1+IU2 in parallel).
	src := ""
	for i := 0; i < 400; i++ {
		src += fmt.Sprintf("\taddi r%d, r%d, 1\n", 3+i%8, 3+i%8)
	}
	// Every 8th instruction targets the same register; dependence
	// chains are 50 long but 8 run in parallel, plenty for IPC 2.
	st := runSrc(t, src+exit, perfect())
	if ipc := st.IPC(); ipc < 1.6 {
		t.Errorf("independent ALU stream IPC = %.2f, want near 2", ipc)
	}
}

func TestSingleChainLimitsIPC(t *testing.T) {
	// A single dependence chain caps IPC at 1 regardless of width.
	src := ""
	for i := 0; i < 200; i++ {
		src += "\taddi r3, r3, 1\n"
	}
	st := runSrc(t, src+exit, perfect())
	if ipc := st.IPC(); ipc > 1.05 {
		t.Errorf("serial chain IPC = %.2f, must not exceed 1", ipc)
	}
}

func TestDivideLatencyExposed(t *testing.T) {
	// A dependent divide chain pays the 19-cycle divider each time.
	k := 8
	chain := "\tli r3, 1000000\n\tli r4, 3\n"
	for i := 0; i < k; i++ {
		chain += "\tdivw r3, r3, r4\n"
	}
	independent := "\tli r3, 1000000\n\tli r4, 3\n"
	for i := 0; i < k; i++ {
		independent += "\taddi r5, r5, 1\n"
	}
	stDiv := runSrc(t, chain+exit, perfect())
	stAdd := runSrc(t, independent+exit, perfect())
	if stDiv.Cycles < stAdd.Cycles+uint64(k*15) {
		t.Errorf("divide chain %d cycles vs add chain %d: divider latency missing",
			stDiv.Cycles, stAdd.Cycles)
	}
}

func TestReservationStationsHideLatency(t *testing.T) {
	// A long-latency divide followed by independent work: with
	// reservation stations the dependent consumer waits in the RS
	// while independent operations dispatch and execute out of order
	// behind it. Without them, dispatch blocks.
	src := "\tli r3, 1000000\n\tli r4, 3\n"
	for i := 0; i < 20; i++ {
		src += "\tdivw r5, r3, r4\n" // long-latency producer
		src += "\tadd r6, r5, r4\n"  // dependent consumer
		for j := 0; j < 6; j++ {
			src += fmt.Sprintf("\taddi r%d, r%d, 1\n", 8+j, 8+j) // independent
		}
	}
	with := runSrc(t, src+exit, perfect())
	cfg := perfect()
	cfg.NoReservationStations = true
	without := runSrc(t, src+exit, cfg)
	if with.Cycles >= without.Cycles {
		t.Errorf("reservation stations must help: with=%d without=%d",
			with.Cycles, without.Cycles)
	}
}

func TestBranchPredictionLearnsLoop(t *testing.T) {
	// A hot loop's backward branch becomes predictable; total
	// mispredicts stay O(1), not O(iterations).
	src := `
	li r3, 0
	li r4, 200
	mtctr r4
loop:
	addi r3, r3, 1
	bdnz loop
` + exit
	st := runSrc(t, src, perfect())
	if st.Mispredicts > 6 {
		t.Errorf("loop branch mispredicted %d times; BHT not learning", st.Mispredicts)
	}
	if st.BHTAccuracy < 0.9 {
		t.Errorf("BHT accuracy %.2f, want >0.9 on a hot loop", st.BHTAccuracy)
	}
}

func TestMispredictsCostCycles(t *testing.T) {
	// An input-dependent alternating branch defeats a 2-bit
	// predictor; the run must both record more mispredicts and spend
	// more cycles than a same-length predictable run.
	mk := func(alternating bool) string {
		cond := "cmpwi r5, 1000" // never equal: predictable not-taken
		if alternating {
			cond = "cmpwi r6, 0" // r6 toggles 0/1: taken every other time
		}
		return fmt.Sprintf(`
	li r3, 0
	li r4, 100
	li r6, 0
	mtctr r4
loop:
	xori r6, r6, 1
	%s
	beq skip
	addi r3, r3, 1
skip:
	addi r3, r3, 2
	bdnz loop
`, cond) + exit
	}
	stable := runSrc(t, mk(false), perfect())
	flaky := runSrc(t, mk(true), perfect())
	if flaky.Mispredicts <= stable.Mispredicts+20 {
		t.Errorf("alternating branch should mispredict often: %d vs %d",
			flaky.Mispredicts, stable.Mispredicts)
	}
	if flaky.Cycles <= stable.Cycles {
		t.Errorf("mispredicts must cost cycles: flaky=%d stable=%d",
			flaky.Cycles, stable.Cycles)
	}
}

func TestLoadLatency(t *testing.T) {
	// Dependent loads through memory cost the 2-cycle LSU each.
	k := 20
	// Build a pointer chain in memory: each cell points to itself.
	src := "\tli r4, 0x1000\n\tstw r4, 0(r4)\n"
	for i := 0; i < k; i++ {
		src += "\tlwz r4, 0(r4)\n"
	}
	dep := runSrc(t, src+exit, perfect())
	indep := runSrc(t, "\tli r4, 0x1000\n\tstw r4, 0(r4)\n"+
		func() (s string) {
			for i := 0; i < k; i++ {
				s += "\taddi r5, r5, 1\n"
			}
			return
		}()+exit, perfect())
	if dep.Cycles < indep.Cycles+uint64(k) {
		t.Errorf("load chain %d vs add chain %d: LSU latency missing", dep.Cycles, indep.Cycles)
	}
}

func TestKernelsCorrectUnderTimingModel(t *testing.T) {
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
		invariant.Attach(s.Director())
		st, err := s.Run(1_000_000_000)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(s.ISS.Reported) != 1 || s.ISS.Reported[0] != w.Ref(n) {
			t.Errorf("%s: checksum %v, want %#x", w.Name, s.ISS.Reported, w.Ref(n))
		}
		if cpi := st.CPI(); cpi < 0.5 || cpi > 6 {
			t.Errorf("%s: implausible CPI %.2f", w.Name, cpi)
		}
		if st.Dispatched != st.Instrs {
			t.Errorf("%s: dispatched %d != executed %d", w.Name, st.Dispatched, st.Instrs)
		}
	}
}

func TestSuperscalarBeatsScalarPipeline(t *testing.T) {
	// The whole point of the 750: on the same workload it should
	// need fewer cycles per instruction than a scalar 5-stage would
	// (CPI < ~1.2 on the ALU-heavy kernels with warm caches).
	w := workload.ByName("gsm/enc")
	p, err := w.PPCProgram(300)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, perfect())
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(1_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cpi := st.CPI(); cpi >= 1.1 {
		t.Errorf("gsm/enc CPI = %.2f on the 750 model, want < 1.1", cpi)
	}
}

func TestNarrowFrontEndHurts(t *testing.T) {
	w := workload.ByName("g721/enc")
	p, err := w.PPCProgram(150)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config) uint64 {
		s, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Run(1_000_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	wide := run(perfect())
	narrowCfg := perfect()
	narrowCfg.FetchQueue = 2
	narrowCfg.CompletionQueue = 2
	narrowCfg.DispatchWidth = 1
	narrowCfg.CompleteWidth = 1
	narrow := run(narrowCfg)
	if narrow <= wide {
		t.Errorf("narrow front end must cost cycles: wide=%d narrow=%d", wide, narrow)
	}
}

func TestIndirectBranchStallsFetch(t *testing.T) {
	// blr-based returns block fetch until resolution; a call-heavy
	// program has higher CPI than the equivalent inline code.
	calls := `
	li r4, 50
	mtctr r4
loop:
	bl f
	bdnz loop
	b end
f:	blr
end:
` + exit
	inline := `
	li r4, 50
	mtctr r4
loop:
	nop
	bdnz loop
` + exit
	stCalls := runSrc(t, calls, perfect())
	stInline := runSrc(t, inline, perfect())
	if stCalls.CPI() <= stInline.CPI() {
		t.Errorf("indirect returns must cost: calls CPI=%.2f inline CPI=%.2f",
			stCalls.CPI(), stInline.CPI())
	}
}

func TestRunCycleLimit(t *testing.T) {
	p, err := ppc.Assemble("loop: b loop")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, perfect())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2000); err == nil {
		t.Fatal("infinite loop must exhaust the cycle budget")
	}
}

func TestBHTAndBTICUnits(t *testing.T) {
	b := NewBHT(4)
	if b.Predict(0) {
		t.Fatal("fresh BHT must predict not-taken")
	}
	b.Update(0, true)
	b.Update(0, true)
	if !b.Predict(0) {
		t.Fatal("two taken updates must flip the prediction")
	}
	b.Update(0, true) // saturate to strongly taken
	b.Update(0, false)
	if !b.Predict(0) {
		t.Fatal("2-bit hysteresis: one not-taken must not flip a strong entry")
	}
	// Aliasing: pc 0 and pc 16 share entry 0 with 4 entries.
	if !b.Predict(16) {
		t.Fatal("aliased index must share the counter")
	}

	c := NewBTIC(2)
	if _, hit := c.Lookup(4); hit {
		t.Fatal("fresh BTIC must miss")
	}
	c.Insert(4, 100)
	if tgt, hit := c.Lookup(4); !hit || tgt != 100 {
		t.Fatal("BTIC must return the inserted target")
	}
	c.Insert(12, 200) // same index (2 entries): evicts
	if _, hit := c.Lookup(4); hit {
		t.Fatal("direct-mapped conflict must evict")
	}
}

// Rename-buffer exhaustion: lwzu needs two buffers (RT and the
// updated RA); with only 2 buffers total, dispatch serializes on
// completion.
func TestRenameBufferBackpressure(t *testing.T) {
	src := "\tli r4, 0x1000\n"
	for i := 0; i < 12; i++ {
		src += "\tlwzu r5, 4(r4)\n"
	}
	cfg2 := perfect()
	cfg2.RenameBuffers = 2
	narrow := runSrc(t, src+exit, cfg2)
	wide := runSrc(t, src+exit, perfect())
	if narrow.Cycles <= wide.Cycles {
		t.Errorf("2 rename buffers (%d cyc) must cost more than 6 (%d cyc)",
			narrow.Cycles, wide.Cycles)
	}
}

// Completion-queue backpressure: a long-latency op at the head holds
// every younger completion; a 1-entry queue amplifies this.
func TestCompletionQueueBackpressure(t *testing.T) {
	src := "\tli r3, 1000000\n\tli r4, 3\n\tdivw r5, r3, r4\n"
	for i := 0; i < 10; i++ {
		src += fmt.Sprintf("\taddi r%d, r%d, 1\n", 6+i%4, 6+i%4)
	}
	tiny := perfect()
	tiny.CompletionQueue = 1
	small := runSrc(t, src+exit, tiny)
	normal := runSrc(t, src+exit, perfect())
	if small.Cycles <= normal.Cycles {
		t.Errorf("1-entry completion queue (%d) must cost more than 6 (%d)",
			small.Cycles, normal.Cycles)
	}
}

// CTR serialization: bctr consumes CTR written by mtctr; the chain
// mtctr -> bctr must stall fetch until the indirect target resolves.
func TestMtctrBctrSerialization(t *testing.T) {
	st := runSrc(t, `
	li r4, next
	mtctr r4
	bctr
	li r3, 99
`+exit+`
next:
	li r3, 7
`+exit, perfect())
	if st.Instrs != 6 {
		t.Fatalf("instrs=%d, want 6 (the wrong-path li never executes)", st.Instrs)
	}
}

// A minimal machine population must still complete programs (slower,
// but without wedging).
func TestSmallMachinePopulation(t *testing.T) {
	w := workload.ByName("g721/dec")
	p, err := w.PPCProgram(40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := perfect()
	cfg.Machines = 4
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(p, perfect())
	if err != nil {
		t.Fatal(err)
	}
	normal, err := s2.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if small.Cycles < normal.Cycles {
		t.Errorf("4 machines (%d cyc) should not beat 16 (%d cyc)", small.Cycles, normal.Cycles)
	}
	if s.ISS.Reported[0] != w.Ref(40) {
		t.Error("checksum wrong with small population")
	}
}

// TestRefetchAfterCodeStore: a word rewritten in RAM after it was
// fetched is decoded afresh at its next fetch, so the op's instruction,
// class and scoreboard operands describe the word the ISS executes,
// not the one first decoded at that PC.
func TestRefetchAfterCodeStore(t *testing.T) {
	p, err := ppc.Assemble(`
	li r6, 3
	li r7, 4
	li r4, 200
	mtctr r4
loop:
	addi r3, r3, 1
	bdnz loop
` + exit)
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
	s, err := New(p, perfect())
	if err != nil {
		t.Fatal(err)
	}
	target := p.Org + 16 // the loop's addi
	// fetched returns the newest in-flight op at target fetched after
	// age, if any.
	fetched := func(after uint64) (*op, uint64) {
		var found *op
		var age uint64
		for i := range s.ops {
			o := &s.ops[i]
			if !o.m.InInitial() && o.pc == target && o.m.Age > after && o.m.Age > age {
				found, age = o, o.m.Age
			}
		}
		return found, age
	}
	step := func(until func() bool) {
		t.Helper()
		for i := 0; !until(); i++ {
			if i == 200 {
				t.Fatal("no fetch of the rewritten word within 200 cycles")
			}
			if err := s.StepCycle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var first uint64
	step(func() bool { _, first = fetched(0); return first != 0 })
	if o, _ := fetched(0); o.ins.Raw == word {
		t.Fatal("the original word already decodes as the replacement")
	}
	s.ISS.RAM.Write32(target, word)
	var o *op
	step(func() bool { o, _ = fetched(first); return o != nil })
	if o.ins.Raw != word || o.ins.Op != ppc.ADD || o.ins.RT != 5 || o.class != ins.Class() {
		t.Fatalf("refetched op carries %#x (%v r%d), want the rewritten %#x", o.ins.Raw, o.ins.Op, o.ins.RT, word)
	}
	dsts, gprs := trackedDsts(&ins)
	if !slices.Equal(o.srcs, trackedSrcs(&ins)) || !slices.Equal(o.dsts, dsts) || o.gprDsts != gprs {
		t.Fatalf("refetched op reads %v and writes %v, want %v and %v", o.srcs, o.dsts, trackedSrcs(&ins), dsts)
	}
	step(func() bool { return s.ISS.CPU.R[5] == 7 })
}

// TestDecodeTableLineCollision: the fetch-time decode table is
// direct-mapped by word address, so a PC beyond the text can share a
// line with a program word. The loop calls a routine the test writes
// at such PCs: each fetch there evicts the loop's line, and the next
// fetch of the loop word decodes it afresh. Every in-flight op must
// carry the decoding of the word RAM holds at its PC.
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
` + exit)
	if err != nil {
		t.Fatal(err)
	}
	routine, err := ppc.Assemble("\tadd r5, r6, r7\n\tblr\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, perfect())
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
	invariant.Attach(s.Director())
	calls := 0
	for !s.Done() {
		if err := s.StepCycle(); err != nil {
			t.Fatal(err)
		}
		for i := range s.ops {
			o := &s.ops[i]
			if o.m.InInitial() || !o.decodeOK {
				continue
			}
			if want := s.ISS.RAM.Read32(o.pc); o.ins.Raw != want {
				t.Fatalf("cycle %d: op at %#x carries %#x, RAM holds %#x", s.Cycle(), o.pc, o.ins.Raw, want)
			}
			if o.pc == at {
				calls++
			}
		}
	}
	if _, err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if calls == 0 || s.ISS.CPU.R[9] != 3 || s.ISS.CPU.R[5] != 7 {
		t.Fatalf("routine seen in flight %d times, r9=%d r5=%d; want r9=3 r5=7", calls, s.ISS.CPU.R[9], s.ISS.CPU.R[5])
	}
}
