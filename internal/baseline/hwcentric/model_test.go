package hwcentric

import (
	"testing"

	"repro/internal/isa/ppc"
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
