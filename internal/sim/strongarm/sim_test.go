package strongarm

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/isa/arm"
	"repro/internal/mem"
	"repro/internal/osm"
	"repro/internal/osm/invariant"
	"repro/internal/workload"
)

// perfect returns a config with an ideal memory subsystem so tests
// can reason about pipeline timing exactly.
func perfect() Config {
	return Config{Hier: mem.HierarchyConfig{DisableCaches: true, DisableTLBs: true}}
}

func runSrc(t *testing.T, src string, cfg Config) Stats {
	t.Helper()
	p, err := arm.Assemble(src)
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

// The exit sequence costs 2 instructions.
const exit = "\tmov r0, #0\n\tswi #0\n"

// With a perfect memory subsystem, a straight-line program of N
// instructions costs exactly N+5 cycles: N issues at CPI 1 plus the
// 5-cycle drain of the last instruction (F..W of the final SWI plus
// the retire step).
func TestStraightLineCPIOne(t *testing.T) {
	for _, k := range []int{1, 4, 16, 64} {
		src := ""
		for i := 0; i < k; i++ {
			src += fmt.Sprintf("\tadd r%d, r%d, #1\n", 1+i%8, 1+i%8)
		}
		st := runSrc(t, src+exit, perfect())
		want := uint64(k+2) + 5
		if st.Cycles != want {
			t.Errorf("k=%d: cycles=%d, want %d (CPI 1)", k, st.Cycles, want)
		}
		if st.Instrs != uint64(k+2) {
			t.Errorf("k=%d: instrs=%d, want %d", k, st.Instrs, k+2)
		}
	}
}

// Forwarding: a dependent chain of ALU operations must still run at
// CPI 1 — results forward from E to the next operation's issue.
func TestALUForwardingNoStall(t *testing.T) {
	src := ""
	for i := 0; i < 20; i++ {
		src += "\tadd r1, r1, #1\n"
	}
	st := runSrc(t, src+exit, perfect())
	if want := uint64(22 + 5); st.Cycles != want {
		t.Errorf("dependent ALU chain: cycles=%d, want %d", st.Cycles, want)
	}
}

// Load-use: a load's value is available after the buffer stage, so an
// immediately dependent instruction stalls exactly one cycle.
func TestLoadUseStall(t *testing.T) {
	pairs := 10
	dep := "\tmov r8, #0x1000\n"
	indep := dep
	for i := 0; i < pairs; i++ {
		dep += "\tldr r2, [r8]\n\tadd r3, r2, #1\n"
		indep += "\tldr r2, [r8]\n\tadd r3, r4, #1\n"
	}
	stDep := runSrc(t, dep+exit, perfect())
	stIndep := runSrc(t, indep+exit, perfect())
	if stDep.Instrs != stIndep.Instrs {
		t.Fatalf("instruction counts differ: %d vs %d", stDep.Instrs, stIndep.Instrs)
	}
	if got := stDep.Cycles - stIndep.Cycles; got != uint64(pairs) {
		t.Errorf("load-use stalls = %d, want %d (one per pair)", got, pairs)
	}
}

// Taken branches squash the two speculative operations behind them:
// a 2-cycle penalty each.
func TestTakenBranchPenalty(t *testing.T) {
	iters := 10
	src := fmt.Sprintf("\tmov r0, #%d\nloop:\tsubs r0, r0, #1\n\tbne loop\n", iters)
	st := runSrc(t, src+exit, perfect())
	// instrs: mov + iters*(subs+bne) + 2 exit.
	wantInstr := uint64(1 + 2*iters + 2)
	if st.Instrs != wantInstr {
		t.Fatalf("instrs=%d, want %d", st.Instrs, wantInstr)
	}
	// bne is taken iters-1 times, each costing 2 bubbles.
	want := wantInstr + 5 + 2*uint64(iters-1)
	if st.Cycles != want {
		t.Errorf("cycles=%d, want %d (2-cycle taken-branch penalty)", st.Cycles, want)
	}
	if st.Redirects != uint64(iters-1) {
		t.Errorf("redirects=%d, want %d", st.Redirects, iters-1)
	}
}

// Untaken conditional branches cost nothing.
func TestUntakenBranchFree(t *testing.T) {
	k := 10
	src := "\tmovs r1, #1\n" // clear Z
	for i := 0; i < k; i++ {
		src += "\tbeq nowhere\n"
	}
	src += exit + "nowhere:" + exit
	st := runSrc(t, src, perfect())
	want := uint64(1+k+2) + 5
	if st.Cycles != want {
		t.Errorf("cycles=%d, want %d (untaken branches are free)", st.Cycles, want)
	}
}

// Flag forwarding: cmp immediately followed by a conditional must not
// stall (flags forward like ALU results).
func TestFlagForwarding(t *testing.T) {
	k := 10
	src := ""
	for i := 0; i < k; i++ {
		src += "\tcmp r1, #5\n\taddge r2, r2, #1\n"
	}
	st := runSrc(t, src+exit, perfect())
	want := uint64(2*k+2) + 5
	if st.Cycles != want {
		t.Errorf("cycles=%d, want %d (flag forwarding)", st.Cycles, want)
	}
}

// Multiplier early termination: a multiply by a wide value holds EX
// two extra cycles; dependents wait for the multiplier.
func TestMultiplierTiming(t *testing.T) {
	smallRs := "\tmov r2, #3\n\tmov r3, #100\n"
	bigRs := "\tldr r2, =0x12345678\n\tmov r3, #100\n"
	k := 5
	body := ""
	for i := 0; i < k; i++ {
		body += "\tmul r4, r3, r2\n" // Rs = r2
	}
	stSmall := runSrc(t, smallRs+body+exit, perfect())
	stBig := runSrc(t, bigRs+body+exit, perfect())
	if got := stBig.Cycles - stSmall.Cycles; got != uint64(2*k) {
		t.Errorf("wide-multiplier extra cycles = %d, want %d", got, 2*k)
	}
	// FixedMul charges the worst case even for narrow multipliers.
	cfg := perfect()
	cfg.FixedMul = true
	stFixed := runSrc(t, smallRs+body+exit, cfg)
	if got := stFixed.Cycles - stSmall.Cycles; got != uint64(2*k) {
		t.Errorf("FixedMul extra cycles = %d, want %d", got, 2*k)
	}
}

// Block transfers occupy the buffer stage one cycle per extra word.
func TestBlockTransferBurst(t *testing.T) {
	one := "\tmov r8, #0x1000\n\tstmia r8, {r0}\n" + exit
	four := "\tmov r8, #0x1000\n\tstmia r8, {r0-r3}\n" + exit
	st1 := runSrc(t, one, perfect())
	st4 := runSrc(t, four, perfect())
	if got := st4.Cycles - st1.Cycles; got != 3 {
		t.Errorf("4-word burst extra cycles = %d, want 3", got)
	}
}

// Instruction-cache misses stall fetch; a cold run with caches is
// slower than the perfect-memory run, and a second iteration of the
// same loop benefits from a warm cache.
func TestCacheEffects(t *testing.T) {
	w := workload.ByName("gsm/enc")
	p, err := w.ARMProgram(50)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(cfg Config) Stats {
		s, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Run(100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	stPerfect := mk(perfect())
	stCold := mk(Config{}) // default SA-1100 hierarchy
	if stCold.Cycles <= stPerfect.Cycles {
		t.Errorf("cold caches (%d) must cost more than perfect memory (%d)",
			stCold.Cycles, stPerfect.Cycles)
	}
	if stCold.ICache.Misses == 0 || stCold.ICache.Hits == 0 {
		t.Errorf("expected both icache hits and misses, got %+v", stCold.ICache)
	}
	if stCold.ICache.HitRate() < 0.9 {
		t.Errorf("loopy kernel should have a high icache hit rate, got %v", stCold.ICache.HitRate())
	}
}

// The full Table-1 kernels execute correctly under the timing model:
// checksums match the Go references exactly and the CPI is plausible.
func TestKernelsCorrectUnderTimingModel(t *testing.T) {
	for _, w := range workload.All() {
		n := w.DefaultN / 5
		p, err := w.ARMProgram(n)
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
		cpi := st.CPI()
		if cpi < 1.0 || cpi > 4.0 {
			t.Errorf("%s: implausible CPI %.2f", w.Name, cpi)
		}
	}
}

// The paper's case-study optimization: with age-based ranking the
// outer-loop restart never changes the schedule, so NoRestart must
// produce identical cycle counts.
func TestNoRestartEquivalence(t *testing.T) {
	w := workload.ByName("g721/enc")
	p, err := w.ARMProgram(100)
	if err != nil {
		t.Fatal(err)
	}
	run := func(restart bool) uint64 {
		s, err := New(p, Config{Restart: restart})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Run(100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("restart=%d norestart=%d: cycle counts must match", a, b)
	}
}

// More machines than pipeline stages cannot change the timing of a
// single-issue pipeline.
func TestMachineCountInsensitive(t *testing.T) {
	w := workload.ByName("gsm/dec")
	p, err := w.ARMProgram(50)
	if err != nil {
		t.Fatal(err)
	}
	cycles := make([]uint64, 0, 2)
	for _, n := range []int{6, 10} {
		s, err := New(p, Config{Machines: n, Hier: mem.HierarchyConfig{DisableCaches: true, DisableTLBs: true}})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Run(100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, st.Cycles)
	}
	if cycles[0] != cycles[1] {
		t.Errorf("machine count changed timing: %v", cycles)
	}
}

// The model's state graph validates cleanly under the static token-
// discipline checker (paper Section 6).
func TestModelValidates(t *testing.T) {
	p, err := arm.Assemble(exit)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, perfect())
	if err != nil {
		t.Fatal(err)
	}
	init := s.director.Machines()[0].Initial
	if issues := osm.Validate(init, 16); len(issues) != 0 {
		t.Fatalf("model should validate cleanly: %v", issues)
	}
}

// Conditional instructions that fail their condition still occupy
// pipeline stages (they retire as executed instructions).
func TestConditionFailedStillCostsACycle(t *testing.T) {
	src := "\tmovs r1, #1\n" // Z clear
	for i := 0; i < 8; i++ {
		src += "\taddeq r2, r2, #1\n" // never executes
	}
	st := runSrc(t, src+exit, perfect())
	want := uint64(1+8+2) + 5
	if st.Cycles != want {
		t.Errorf("cycles=%d, want %d", st.Cycles, want)
	}
}

func TestRunCycleLimit(t *testing.T) {
	p, err := arm.Assemble("loop: b loop")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, perfect())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(500); err == nil {
		t.Fatal("infinite loop must exhaust the cycle budget")
	}
}

// Store-after-load contention: back-to-back memory operations contend
// for the single buffer stage but still pipeline at 1 per cycle when
// independent.
func TestBackToBackMemoryOps(t *testing.T) {
	k := 8
	src := "\tmov r8, #0x1000\n"
	for i := 0; i < k; i++ {
		src += "\tstr r1, [r8]\n\tldr r2, [r8, #4]\n"
	}
	st := runSrc(t, src+exit, perfect())
	want := uint64(1+2*k+2) + 5
	if st.Cycles != want {
		t.Errorf("independent mem stream: cycles=%d, want %d", st.Cycles, want)
	}
}

// A load feeding a store's data: the store waits one cycle for the
// loaded value (load-use through the store data operand).
func TestLoadToStoreData(t *testing.T) {
	k := 6
	dep := "\tmov r8, #0x1000\n"
	indep := dep
	for i := 0; i < k; i++ {
		dep += "\tldr r2, [r8]\n\tstr r2, [r8, #4]\n"
		indep += "\tldr r2, [r8]\n\tstr r3, [r8, #4]\n"
	}
	stDep := runSrc(t, dep+exit, perfect())
	stIndep := runSrc(t, indep+exit, perfect())
	if got := stDep.Cycles - stIndep.Cycles; got != uint64(k) {
		t.Errorf("load->store-data stalls = %d, want %d", got, k)
	}
}

// A literal-pool load (PC-relative) behaves like any other load.
func TestLiteralPoolLoadTiming(t *testing.T) {
	src := "\tldr r1, =0x12345678\n\tadd r2, r1, #1\n" + exit
	st := runSrc(t, src, perfect())
	// 4 instructions + 5 drain + 1 load-use stall.
	if want := uint64(4+5) + 1; st.Cycles != want {
		t.Errorf("cycles=%d, want %d", st.Cycles, want)
	}
}

// Halfword transfers flow through the pipeline like other memory ops.
func TestHalfwordTiming(t *testing.T) {
	src := `
	mov r8, #0x1000
	mov r1, #77
	strh r1, [r8]
	ldrsh r2, [r8]
	add r3, r2, #1
` + exit
	st := runSrc(t, src, perfect())
	// 7 instructions + 5 drain + 1 load-use stall on r2.
	if want := uint64(7+5) + 1; st.Cycles != want {
		t.Errorf("cycles=%d, want %d", st.Cycles, want)
	}
	if st.Instrs != 7 {
		t.Errorf("instrs=%d, want 7", st.Instrs)
	}
}

// Condition-failed memory operations still execute (and count), but
// must not touch the cache model... they do access it in this model
// since the ISS executes them as no-ops; assert at least that timing
// matches a plain ALU no-op stream.
func TestConditionFailedLoadTiming(t *testing.T) {
	src := "\tmovs r1, #1\n" // Z clear: EQ fails
	for i := 0; i < 6; i++ {
		src += "\tldreq r2, [r1]\n"
	}
	st := runSrc(t, src+exit, perfect())
	if want := uint64(1+6+2) + 5; st.Cycles != want {
		t.Errorf("cycles=%d, want %d", st.Cycles, want)
	}
}

// Condition-failed memory operations must not touch the cache model.
func TestConditionFailedLoadSkipsCache(t *testing.T) {
	src := "\tmovs r1, #1\n\tldreq r2, [r1]\n\tldreq r2, [r1]\n" + exit
	p, err := arm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.DCache.Accesses != 0 {
		t.Errorf("condition-failed loads accessed the dcache %d times", st.DCache.Accesses)
	}
}

// TestRefetchAfterCodeStore: a word rewritten in RAM after it was
// fetched is decoded afresh at its next fetch, so the operation's
// instruction and scoreboard operands describe the word the ISS
// executes, not the one first decoded at that PC.
func TestRefetchAfterCodeStore(t *testing.T) {
	p, err := arm.Assemble(`
	mov r6, #3
	mov r7, #4
	mov r1, #0
loop:
	add r1, r1, #1
	cmp r1, #100
	bne loop
` + exit)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := arm.Assemble("\tadd r5, r6, r7\n")
	if err != nil {
		t.Fatal(err)
	}
	word := repl.Words[0]
	ins, err := arm.Decode(word)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, perfect())
	if err != nil {
		t.Fatal(err)
	}
	target := p.Org + 12 // the loop's add
	// fetched returns the newest in-flight operation at target fetched
	// after age, if any.
	fetched := func(after uint64) (*opCtx, uint64) {
		var found *opCtx
		var age uint64
		for _, m := range s.director.Machines() {
			if op, _ := m.Ctx.(*opCtx); op != nil && !m.InInitial() && op.pc == target && m.Age > after && m.Age > age {
				found, age = op, m.Age
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
	if op, _ := fetched(0); op.ins.Raw == word {
		t.Fatal("the original word already decodes as the replacement")
	}
	s.ISS.RAM.Write32(target, word)
	var op *opCtx
	step(func() bool { op, _ = fetched(first); return op != nil })
	if op.ins.Raw != word || op.ins.Op != arm.ADD || op.ins.Rd != 5 {
		t.Fatalf("refetched op carries %#x (%v r%d), want the rewritten %#x", op.ins.Raw, op.ins.Op, op.ins.Rd, word)
	}
	if !slices.Equal(op.srcs, trackedSrcs(&ins)) || !slices.Equal(op.dsts, trackedDsts(&ins)) {
		t.Fatalf("refetched op reads %v and writes %v, want %v and %v",
			op.srcs, op.dsts, trackedSrcs(&ins), trackedDsts(&ins))
	}
	step(func() bool { return s.ISS.CPU.R[5] == 7 })
}

// TestDecodeTableLineCollision: the fetch-time decode table is
// direct-mapped by word address, so a PC beyond the text can share a
// line with a program word. The loop calls a routine the test writes
// at such PCs: each fetch there evicts the loop's line, and the next
// fetch of the loop word decodes it afresh. Every in-flight operation
// must carry the decoding of the word RAM holds at its PC.
func TestDecodeTableLineCollision(t *testing.T) {
	p, err := arm.Assemble(`
	mov r1, #0
	mov r6, #3
	mov r7, #4
	mov r8, #0x10000
	add r8, r8, #20
loop:
	mov lr, pc
	mov pc, r8
	add r1, r1, #1
	cmp r1, #3
	bne loop
` + exit)
	if err != nil {
		t.Fatal(err)
	}
	routine, err := arm.Assemble("\tadd r5, r6, r7\n\tmov pc, lr\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, perfect())
	if err != nil {
		t.Fatal(err)
	}
	line := func(pc uint32) uint32 { return pc >> 2 & uint32(len(s.decodeTable)-1) }
	const at = 0x10014 // the routine; the loop starts at 20
	if p.Org != 0 || line(at) != line(20) || line(at+4) != line(24) {
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
		for _, m := range s.director.Machines() {
			op, _ := m.Ctx.(*opCtx)
			if op == nil || m.InInitial() || !op.decodeOK {
				continue
			}
			if want := s.ISS.RAM.Read32(op.pc); op.ins.Raw != want {
				t.Fatalf("cycle %d: operation at %#x carries %#x, RAM holds %#x", s.Cycle(), op.pc, op.ins.Raw, want)
			}
			if op.pc == at {
				calls++
			}
		}
	}
	if _, err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if calls == 0 || s.ISS.CPU.R[1] != 3 || s.ISS.CPU.R[5] != 7 {
		t.Fatalf("routine seen in flight %d times, r1=%d r5=%d; want r1=3 r5=7", calls, s.ISS.CPU.R[1], s.ISS.CPU.R[5])
	}
}

// TestSteadyStateAllocs: once the decode table and the scheduler's
// scratch slices are warm, a 1024-cycle quantum allocates nothing.
func TestSteadyStateAllocs(t *testing.T) {
	p, err := workload.ByName("mpeg2/enc").ARMProgram(600)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []osm.Engine{osm.EngineEvent, osm.EngineGenerated} {
		s, err := New(p, Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		stepTo := func(cycle uint64) {
			for s.Cycle() < cycle {
				if s.Done() {
					t.Fatalf("program finished at cycle %d, before %d", s.Cycle(), cycle)
				}
				if err := s.StepCycle(); err != nil {
					t.Fatal(err)
				}
			}
		}
		stepTo(20_000)
		allocs := testing.AllocsPerRun(10, func() { stepTo(s.Cycle() + 1024) })
		if allocs != 0 {
			t.Errorf("%v engine: %.1f allocations per 1024-cycle quantum, want 0", eng, allocs)
		}
	}
}
