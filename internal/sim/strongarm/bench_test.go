package strongarm

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkStepCycleStrongARM times one steady-state clock cycle of the
// whole model under the default engine: the generated state functions,
// the scoreboard, the reset edges and the ISS, which the director step
// benchmarks in internal/osm do not reach. The kernel
// is warmed past its cold caches first, and a finished run is rebuilt
// outside the timer, so the steady state allocates nothing. CI's
// bench-regression job gates it.
func BenchmarkStepCycleStrongARM(b *testing.B) {
	w := workload.ByName("gsm/dec")
	p, err := w.ARMProgram(w.DefaultN)
	if err != nil {
		b.Fatal(err)
	}
	warm := func() *Sim {
		s, err := New(p, Config{})
		if err != nil {
			b.Fatal(err)
		}
		for s.Cycle() < 2000 {
			if err := s.StepCycle(); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	s := warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Done() {
			b.StopTimer()
			s = warm()
			b.StartTimer()
		}
		if err := s.StepCycle(); err != nil {
			b.Fatal(err)
		}
	}
}
