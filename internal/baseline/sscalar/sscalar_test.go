package sscalar

import (
	"fmt"
	"testing"

	"repro/internal/isa/arm"
	"repro/internal/mem"
	"repro/internal/sim/strongarm"
	"repro/internal/workload"
)

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
	st, err := s.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

const exit = "\tmov r0, #0\n\tswi #0\n"

func TestBaselineStraightLineCPIOne(t *testing.T) {
	k := 16
	src := ""
	for i := 0; i < k; i++ {
		src += "\tadd r1, r1, #1\n"
	}
	st := runSrc(t, src+exit, perfect())
	if st.Instrs != uint64(k+2) {
		t.Fatalf("instrs=%d", st.Instrs)
	}
	if st.CPI() > 1.5 {
		t.Errorf("CPI=%.2f, want ~1", st.CPI())
	}
}

func TestBaselineLoadUseStall(t *testing.T) {
	pairs := 10
	dep := "\tmov r8, #0x1000\n"
	indep := dep
	for i := 0; i < pairs; i++ {
		dep += "\tldr r2, [r8]\n\tadd r3, r2, #1\n"
		indep += "\tldr r2, [r8]\n\tadd r3, r4, #1\n"
	}
	stDep := runSrc(t, dep+exit, perfect())
	stIndep := runSrc(t, indep+exit, perfect())
	if got := stDep.Cycles - stIndep.Cycles; got != uint64(pairs) {
		t.Errorf("load-use stalls = %d, want %d", got, pairs)
	}
}

func TestBaselineTakenBranchPenalty(t *testing.T) {
	iters := 10
	src := fmt.Sprintf("\tmov r0, #%d\nloop:\tsubs r0, r0, #1\n\tbne loop\n", iters)
	st := runSrc(t, src+exit, perfect())
	if st.Redirects != uint64(iters-1) {
		t.Errorf("redirects=%d, want %d", st.Redirects, iters-1)
	}
}

// The two independent implementations of the same micro-architecture
// must agree cycle-for-cycle when configured identically — this is
// the strongest cross-validation of both models, and the reason the
// baseline can serve as the Table-1 timing oracle.
func TestBaselineMatchesOSMModelExactly(t *testing.T) {
	programs := []string{
		// ALU mix with dependences.
		"\tmov r1, #3\n\tadd r2, r1, r1\n\tadd r2, r2, r2\n\tsub r3, r2, r1\n" + exit,
		// Load-use chains.
		"\tmov r8, #0x1000\n\tstr r8, [r8]\n\tldr r1, [r8]\n\tadd r2, r1, #1\n\tldr r3, [r8]\n\tadd r4, r3, r2\n" + exit,
		// Branchy loop.
		"\tmov r0, #12\nloop:\tsubs r0, r0, #1\n\tbne loop\n" + exit,
		// Multiplies with varying widths.
		"\tldr r2, =0x00345678\n\tmov r3, #10\n\tmul r4, r3, r2\n\tmul r5, r4, r3\n\tadd r6, r5, r4\n" + exit,
		// Block transfers and bytes.
		"\tmov r8, #0x2000\n\tmov r0, #1\n\tmov r1, #2\n\tstmia r8, {r0, r1}\n\tldmia r8, {r2, r3}\n\tstrb r2, [r8, #8]\n\tldrb r4, [r8, #8]\n" + exit,
		// Conditional execution.
		"\tmovs r1, #0\n\taddeq r2, r2, #7\n\taddne r2, r2, #9\n\tcmp r2, #7\n\tbne off\n\tadd r3, r3, #1\noff:" + exit,
	}
	for pi, src := range programs {
		for _, withMem := range []bool{false, true} {
			cfgS, cfgB := strongarm.Config{}, Config{}
			if !withMem {
				h := mem.HierarchyConfig{DisableCaches: true, DisableTLBs: true}
				cfgS.Hier, cfgB.Hier = h, h
			}
			p, err := arm.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			osmSim, err := strongarm.New(p, cfgS)
			if err != nil {
				t.Fatal(err)
			}
			osmStats, err := osmSim.Run(1_000_000)
			if err != nil {
				t.Fatalf("program %d (osm): %v", pi, err)
			}
			base, err := New(p, cfgB)
			if err != nil {
				t.Fatal(err)
			}
			baseStats, err := base.Run(1_000_000)
			if err != nil {
				t.Fatalf("program %d (baseline): %v", pi, err)
			}
			if osmStats.Instrs != baseStats.Instrs {
				t.Errorf("program %d mem=%v: instrs %d vs %d", pi, withMem, osmStats.Instrs, baseStats.Instrs)
			}
			if osmStats.Cycles != baseStats.Cycles {
				t.Errorf("program %d mem=%v: cycles OSM=%d baseline=%d", pi, withMem,
					osmStats.Cycles, baseStats.Cycles)
			}
		}
	}
}

func TestBaselineMatchesOSMOnKernels(t *testing.T) {
	for _, w := range workload.All() {
		n := w.DefaultN / 10
		p, err := w.ARMProgram(n)
		if err != nil {
			t.Fatal(err)
		}
		osmSim, err := strongarm.New(p, strongarm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		osmStats, err := osmSim.Run(100_000_000)
		if err != nil {
			t.Fatalf("%s (osm): %v", w.Name, err)
		}
		base, err := New(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		baseStats, err := base.Run(100_000_000)
		if err != nil {
			t.Fatalf("%s (baseline): %v", w.Name, err)
		}
		if base.ISS.Reported[0] != w.Ref(n) {
			t.Errorf("%s: baseline checksum wrong", w.Name)
		}
		if osmStats.Cycles != baseStats.Cycles {
			t.Errorf("%s: cycles OSM=%d baseline=%d (%.2f%% apart)", w.Name,
				osmStats.Cycles, baseStats.Cycles,
				100*float64(int64(osmStats.Cycles)-int64(baseStats.Cycles))/float64(baseStats.Cycles))
		}
	}
}

func TestBaselineRunCycleLimit(t *testing.T) {
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

// A fetch at the top of the address space reads no instruction
// instead of panicking: pc+4 must not wrap around the RAM bounds
// check.
func TestFetchTopOfAddressSpace(t *testing.T) {
	p, err := arm.Assemble(exit)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, perfect())
	if err != nil {
		t.Fatal(err)
	}
	s.fetchPC = 0xfffffffc
	s.step()
	if f := s.lat[stIF]; !f.valid || f.pc != 0xfffffffc || f.decodeOK {
		t.Fatalf("top-of-memory fetch slot = %+v, want a valid slot that did not decode", f)
	}
}
