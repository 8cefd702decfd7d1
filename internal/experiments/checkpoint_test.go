package experiments

import (
	"bytes"
	"testing"

	"repro/internal/osm"
	"repro/internal/sim/ppc750"
	"repro/internal/sim/strongarm"
	"repro/internal/workload"
)

// Differential checkpoint tests: for every workload/model pair and
// both schedulers, run-to-cycle-C → snapshot → restore-into-a-fresh-
// simulator → run-to-end must produce the same transition trace,
// cycle count, reported values and final architectural state as an
// uninterrupted run. Director step numbers are part of the snapshot,
// so the resumed trace is compared directly against the tail of the
// uninterrupted trace (transitions with Step >= C).

// checkSim is the model-independent surface the checkpoint tests
// drive; both case-study simulators implement it.
type checkSim interface {
	StepCycle() error
	Cycle() uint64
	Done() bool
	Snapshot() ([]byte, error)
	Restore([]byte) error
	Director() *osm.Director
}

// ckptFixture builds fresh identically-configured simulators on
// demand and extracts the run's observables.
type ckptFixture struct {
	label string
	build func(t *testing.T) checkSim
	final func(s checkSim) diffRun
}

func armFixture(t *testing.T, w *workload.Workload, n int) ckptFixture {
	t.Helper()
	p, err := w.ARMProgram(n)
	if err != nil {
		t.Fatal(err)
	}
	return ckptFixture{
		label: "strongarm/" + w.Name,
		build: func(t *testing.T) checkSim {
			s, err := strongarm.New(p, strongarm.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		final: func(s checkSim) diffRun {
			sim := s.(*strongarm.Sim)
			st, err := sim.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			return diffRun{
				cycles:   st.Cycles,
				instrs:   st.Instrs,
				reported: sim.ISS.Reported,
				regs:     sim.ISS.CPU.R[:],
			}
		},
	}
}

func ppcFixture(t *testing.T, w *workload.Workload, n int) ckptFixture {
	t.Helper()
	p, err := w.PPCProgram(n)
	if err != nil {
		t.Fatal(err)
	}
	return ckptFixture{
		label: "ppc750/" + w.Name,
		build: func(t *testing.T) checkSim {
			s, err := ppc750.New(p, ppc750.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		final: func(s checkSim) diffRun {
			sim := s.(*ppc750.Sim)
			st, err := sim.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			return diffRun{
				cycles:   st.Cycles,
				instrs:   st.Instrs,
				reported: sim.ISS.Reported,
				regs:     sim.ISS.CPU.R[:],
			}
		},
	}
}

func runToEnd(t *testing.T, s checkSim, limit uint64) {
	t.Helper()
	for !s.Done() {
		if s.Cycle() >= limit {
			t.Fatalf("run exceeded %d cycles", limit)
		}
		if err := s.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
}

func runCycles(t *testing.T, s checkSim, n uint64) {
	t.Helper()
	for i := uint64(0); i < n && !s.Done(); i++ {
		if err := s.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
}

const ckptLimit = 2_000_000

func checkpointResume(t *testing.T, fx ckptFixture, eng osm.Engine) {
	t.Helper()
	// Uninterrupted reference run with a full trace.
	ref := fx.build(t)
	ref.Director().Engine = eng
	refRec := osm.NewRecorder()
	ref.Director().Tracer = refRec
	runToEnd(t, ref, ckptLimit)
	refRun := fx.final(ref)
	refRun.events = refRec.Events()
	total := refRun.cycles
	if total < 8 {
		t.Fatalf("%s: reference run too short (%d cycles) to checkpoint meaningfully", fx.label, total)
	}

	for _, c := range []uint64{total / 4, total / 2, 3 * total / 4} {
		// Fresh simulator to cycle C, snapshot there.
		src := fx.build(t)
		src.Director().Engine = eng
		runCycles(t, src, c)
		blob, err := src.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot at %d: %v", fx.label, c, err)
		}
		// Snapshot must be deterministic: a second fresh run to the
		// same cycle yields identical bytes.
		src2 := fx.build(t)
		src2.Director().Engine = eng
		runCycles(t, src2, c)
		blob2, err := src2.Snapshot()
		if err != nil {
			t.Fatalf("%s: second snapshot at %d: %v", fx.label, c, err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("%s: snapshot at cycle %d is not deterministic (%d vs %d bytes)",
				fx.label, c, len(blob), len(blob2))
		}

		// Restore into a fresh simulator and run to the end.
		dst := fx.build(t)
		dst.Director().Engine = eng
		if err := dst.Restore(blob); err != nil {
			t.Fatalf("%s: restore at %d: %v", fx.label, c, err)
		}
		if dst.Cycle() != src.Cycle() {
			t.Fatalf("%s: restored at cycle %d, snapshot taken at %d", fx.label, dst.Cycle(), src.Cycle())
		}
		dstRec := osm.NewRecorder()
		dst.Director().Tracer = dstRec
		runToEnd(t, dst, ckptLimit)
		got := fx.final(dst)
		got.events = dstRec.Events()

		// The resumed trace must equal the uninterrupted trace's tail.
		var tail []osm.Event
		step := dst.Director().StepCount()
		_ = step
		for _, ev := range refRun.events {
			if ev.Step >= c {
				tail = append(tail, ev)
			}
		}
		want := refRun
		want.events = tail
		compareRuns(t, fx.label, want, got)
	}
}

func ckptWorkloadFixtures(t *testing.T) []ckptFixture {
	t.Helper()
	var fxs []ckptFixture
	for _, wl := range diffWorkloads(t) {
		fxs = append(fxs, armFixture(t, wl.w, wl.n), ppcFixture(t, wl.w, wl.n))
	}
	return fxs
}

func TestCheckpointResumeScan(t *testing.T) {
	for _, fx := range ckptWorkloadFixtures(t) {
		t.Run(fx.label, func(t *testing.T) { checkpointResume(t, fx, osm.EngineScan) })
	}
}

func TestCheckpointResumeEvent(t *testing.T) {
	for _, fx := range ckptWorkloadFixtures(t) {
		t.Run(fx.label, func(t *testing.T) { checkpointResume(t, fx, osm.EngineEvent) })
	}
}

func TestCheckpointResumeCompiled(t *testing.T) {
	for _, fx := range ckptWorkloadFixtures(t) {
		t.Run(fx.label, func(t *testing.T) { checkpointResume(t, fx, osm.EngineCompiled) })
	}
}

func TestCheckpointResumeGenerated(t *testing.T) {
	for _, fx := range ckptWorkloadFixtures(t) {
		t.Run(fx.label, func(t *testing.T) { checkpointResume(t, fx, osm.EngineGenerated) })
	}
}

// TestCheckpointCrossEngine checks that snapshots are engine-neutral
// in every direction: a snapshot taken mid-run under the compiled or
// the generated engine restores into a simulator running any of the
// four engines (compiled guard programs and generated-function
// resolutions are derived from the model, never serialized), at all
// three cut points, and the resumed run reproduces the uninterrupted
// reference trace's tail exactly. The reference runs the interpreter.
func TestCheckpointCrossEngine(t *testing.T) {
	for _, fx := range ckptWorkloadFixtures(t) {
		t.Run(fx.label, func(t *testing.T) {
			ref := fx.build(t)
			ref.Director().Engine = osm.EngineEvent
			refRec := osm.NewRecorder()
			ref.Director().Tracer = refRec
			runToEnd(t, ref, ckptLimit)
			refRun := fx.final(ref)
			refRun.events = refRec.Events()
			total := refRun.cycles

			for _, srcEng := range []osm.Engine{osm.EngineCompiled, osm.EngineGenerated} {
				for _, c := range []uint64{total / 4, total / 2, 3 * total / 4} {
					src := fx.build(t)
					src.Director().Engine = srcEng
					runCycles(t, src, c)
					blob, err := src.Snapshot()
					if err != nil {
						t.Fatalf("%v snapshot at %d: %v", srcEng, c, err)
					}
					var tail []osm.Event
					for _, ev := range refRun.events {
						if ev.Step >= c {
							tail = append(tail, ev)
						}
					}
					want := refRun
					want.events = tail
					for _, eng := range []osm.Engine{osm.EngineScan, osm.EngineEvent, osm.EngineCompiled, osm.EngineGenerated} {
						dst := fx.build(t)
						dst.Director().Engine = eng
						if err := dst.Restore(blob); err != nil {
							t.Fatalf("restore %v snapshot into %v: %v", srcEng, eng, err)
						}
						dstRec := osm.NewRecorder()
						dst.Director().Tracer = dstRec
						runToEnd(t, dst, ckptLimit)
						got := fx.final(dst)
						got.events = dstRec.Events()
						compareRuns(t, fx.label+"/"+srcEng.String()+"@"+eng.String(), want, got)
					}
				}
			}
		})
	}
}

// Snapshot overhead benchmarks; bytes/snapshot is reported as a
// custom metric (the EXPERIMENTS.md checkpoint-overhead numbers).
func BenchmarkSnapshotStrongARM(b *testing.B) {
	w := workload.ByName("gsm/dec")
	p, err := w.ARMProgram(60)
	if err != nil {
		b.Fatal(err)
	}
	s, err := strongarm.New(p, strongarm.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := s.StepCycle(); err != nil {
			b.Fatal(err)
		}
	}
	blob, err := s.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	// ResetTimer discards previously reported metrics, so report after
	// the loop.
	b.ReportMetric(float64(len(blob)), "bytes/snapshot")
}

func BenchmarkSnapshotPPC750(b *testing.B) {
	w := workload.ByName("gsm/dec")
	p, err := w.PPCProgram(60)
	if err != nil {
		b.Fatal(err)
	}
	s, err := ppc750.New(p, ppc750.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := s.StepCycle(); err != nil {
			b.Fatal(err)
		}
	}
	blob, err := s.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob)), "bytes/snapshot")
}
