package ppc750

import (
	"testing"

	"repro/internal/osm"
	"repro/internal/workload"
)

// BenchmarkStepCyclePPC750 times one steady-state clock cycle of the
// whole model under the default engine: the generated state functions,
// the rename manager, the rate-limited queues and the ISS, which the
// director step benchmarks in internal/osm do not reach. The kernel
// is warmed past its cold caches first, and a finished run is rebuilt
// outside the timer, so the steady state allocates nothing. CI's
// bench-regression job gates it.
func BenchmarkStepCyclePPC750(b *testing.B) { benchStepCycle(b, nil) }

// BenchmarkStepCyclePPC750Recorded times the same cycle with an
// osm.Recorder at osmserve's default retention as the tracer, as every
// served session runs it. The recorder is kept across rebuilds, so its
// ring is full and the steady state still allocates nothing.
func BenchmarkStepCyclePPC750Recorded(b *testing.B) {
	rec := osm.NewRecorder()
	rec.Limit = 4096
	benchStepCycle(b, rec)
}

func benchStepCycle(b *testing.B, tracer osm.Tracer) {
	w := workload.ByName("gsm/dec")
	p, err := w.PPCProgram(w.DefaultN)
	if err != nil {
		b.Fatal(err)
	}
	warm := func() *Sim {
		s, err := New(p, Config{})
		if err != nil {
			b.Fatal(err)
		}
		s.Director().Tracer = tracer
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
