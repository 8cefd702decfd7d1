package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/osm"
	"repro/internal/runner"
	"repro/internal/server"
)

// parkOne drives a session partway and waits for the janitor to park
// it, returning the session id and the cycle it parked at.
func parkOne(t *testing.T, dir string, spec runner.Spec, steps uint64) (string, uint64) {
	t.Helper()
	m := server.NewManager(server.Config{IdleTimeout: 30 * time.Millisecond, ParkDir: dir})
	m.Start()
	defer m.Close()
	s, err := m.Create(spec, 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(s, steps, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	id := s.ID
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := server.ReadParkMeta(dir, id); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never parked the session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	meta, _, err := server.LoadPark(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	return id, meta.Cycle
}

// refAt runs the spec from scratch with a recorder attached and
// returns the state at the target cycle.
func refAt(t *testing.T, spec runner.Spec, cycle uint64) ([]runner.Reg, uint64, string) {
	t.Helper()
	inst, err := runner.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := osm.NewRecorder()
	rec.Limit = 128
	inst.Director().Tracer = rec
	for inst.Cycle() < cycle && !inst.Done() {
		if err := inst.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	return inst.Registers(), rec.Total(), fmt.Sprintf("%016x", rec.Checksum())
}

// The time-travel query over a parked session must be
// indistinguishable from having run the model straight to the target
// cycle: same registers, same whole-run trace total and checksum
// (the park's trace state is carried into the replay).
func TestAtReplaysParkedSessionIdentically(t *testing.T) {
	dir := t.TempDir()
	spec := runner.Spec{Target: "strongarm", Workload: "gsm/dec", N: 60}
	id, parked := parkOne(t, dir, spec, 2500)
	target := parked + 500

	res, err := queryAt(dir, id, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoint != parked {
		t.Fatalf("replay started from cycle %d, parked at %d", res.Checkpoint, parked)
	}
	if res.Cycle != target || res.Kind != "session" {
		t.Fatalf("at = %+v, want cycle %d", res, target)
	}
	regs, total, sum := refAt(t, spec, target)
	if !reflect.DeepEqual(res.Registers, regs) {
		t.Fatalf("registers diverge from the straight run:\n  at:  %v\n  ref: %v", res.Registers, regs)
	}
	if res.TraceTotal != total || res.TraceChecksum != sum {
		t.Fatalf("trace (%d, %s) diverges from straight run (%d, %s)",
			res.TraceTotal, res.TraceChecksum, total, sum)
	}
}

// A cycle between two checkpoints of a batch job resolves to the
// nearest earlier checkpoint plus deterministic replay; the
// architectural state matches a straight run.
func TestAtReplaysBatchCheckpoint(t *testing.T) {
	dir := t.TempDir()
	job := batch.Job{Name: "q", Arch: "arm", Workload: "gsm/dec", N: 40, PanicAt: 800}
	r := &batch.Runner{Workers: 1, CheckpointDir: dir, CheckpointEvery: 200}
	if got := r.Run([]batch.Job{job}).Results[0]; got.Status != batch.StatusPanic {
		t.Fatalf("setup run: status %q (%s)", got.Status, got.Error)
	}

	const target = 750
	res, err := queryAt(dir, "q", target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "ckpt" || res.Cycle != target {
		t.Fatalf("at = %+v", res)
	}
	if res.Checkpoint >= target || res.Checkpoint == 0 {
		t.Fatalf("checkpoint cycle %d not strictly before target %d", res.Checkpoint, target)
	}
	regs, _, _ := refAt(t, runner.Spec{Target: "strongarm", Workload: "gsm/dec", N: 40}, target)
	if !reflect.DeepEqual(res.Registers, regs) {
		t.Fatalf("registers diverge from the straight run:\n  at:  %v\n  ref: %v", res.Registers, regs)
	}
}

// The CLI surface end to end: ls shows the run, stat reports totals,
// gc after consuming the park sweeps everything.
func TestCLISmoke(t *testing.T) {
	dir := t.TempDir()
	id, parked := parkOne(t, dir, runner.Spec{Target: "ppc750", Workload: "gsm/dec", N: 40}, 1500)

	var out strings.Builder
	if code := run([]string{"-dir", dir, "ls"}, &out); code != 0 {
		t.Fatalf("ls exited %d", code)
	}
	if !strings.Contains(out.String(), id) {
		t.Fatalf("ls does not list %s:\n%s", id, out.String())
	}

	out.Reset()
	if code := run([]string{"-dir", dir, "stat"}, &out); code != 0 {
		t.Fatalf("stat exited %d", code)
	}
	if !strings.Contains(out.String(), "runs:           1") {
		t.Fatalf("stat output:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-dir", dir, "at", "-run", id, "-cycle", fmt.Sprint(parked), "-json"}, &out); code != 0 {
		t.Fatalf("at exited %d", code)
	}
	if !strings.Contains(out.String(), `"kind": "session"`) {
		t.Fatalf("at output:\n%s", out.String())
	}

	// Consume the park, then a zero-grace sweep reclaims every chunk.
	if err := server.ConsumePark(dir, id); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-dir", dir, "gc", "-grace", "0s"}, &out); code != 0 {
		t.Fatalf("gc exited %d", code)
	}
	if strings.Contains(out.String(), "swept 0 chunks") {
		t.Fatalf("gc swept nothing after consume:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-dir", dir, "stat"}, &out); code != 0 {
		t.Fatalf("stat exited %d", code)
	}
	if !strings.Contains(out.String(), "chunks:         0") {
		t.Fatalf("chunks remain after gc:\n%s", out.String())
	}
	if code := run([]string{"-dir", dir, "bogus"}, &out); code == 0 {
		t.Fatal("unknown command exited 0")
	}
}
