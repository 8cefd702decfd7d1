package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/osm"
	"repro/internal/sim/ppc750"
	"repro/internal/sim/strongarm"
	"repro/internal/workload"
)

// schedulesFile pins the simulated schedule of both case studies
// across commits: the differential suites compare engines within one
// tree, this file compares a tree with the ones before it. A change
// that only makes the simulator faster leaves every byte as it is.
const (
	schedulesFile        = "testdata/schedules.txt"
	regenerateSchedules  = "go test ./internal/experiments -run '^TestSchedulesFile$' -update"
	scheduleIterationDiv = 2 // each kernel runs DefaultN/2 iterations
)

var updateSchedules = flag.Bool("update", false, "rewrite "+schedulesFile+" from the code")

// renderSchedules runs every mix kernel on every pinned model variant
// under the default engine and writes one line per run: cycles,
// instructions, transition total and whole-run trace checksum.
func renderSchedules(t *testing.T) []byte {
	t.Helper()
	ppcVariants := []struct {
		name string
		cfg  ppc750.Config
	}{
		{"default", ppc750.Config{}},
		{"no-rs", ppc750.Config{NoReservationStations: true}},
		{"4-machine", ppc750.Config{Machines: 4}},
		{"norestart", ppc750.Config{NoRestart: true}},
	}
	armVariants := []struct {
		name string
		cfg  strongarm.Config
	}{
		{"default", strongarm.Config{}},
		{"restart", strongarm.Config{Restart: true}},
	}
	var b bytes.Buffer
	line := func(model, variant string, w *workload.Workload, n int, cycles, instrs uint64, rec *osm.Recorder) {
		fmt.Fprintf(&b, "%-9s %-9s %-10s n=%-3d cycles=%-7d instrs=%-7d transitions=%-8d checksum=%#016x\n",
			model, variant, w.Name, n, cycles, instrs, rec.Total(), rec.Checksum())
	}
	for _, w := range workload.Mix() {
		n := max(1, w.DefaultN/scheduleIterationDiv)
		p, err := w.PPCProgram(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ppcVariants {
			s, err := ppc750.New(p, v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := osm.NewRecorder()
			rec.Limit = 1
			s.Director().Tracer = rec
			st, err := s.Run(20_000_000)
			if err != nil {
				t.Fatalf("ppc750 %s %s: %v", v.name, w.Name, err)
			}
			line("ppc750", v.name, w, n, st.Cycles, st.Instrs, rec)
		}
		ap, err := w.ARMProgram(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range armVariants {
			s, err := strongarm.New(ap, v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := osm.NewRecorder()
			rec.Limit = 1
			s.Director().Tracer = rec
			st, err := s.Run(20_000_000)
			if err != nil {
				t.Fatalf("strongarm %s %s: %v", v.name, w.Name, err)
			}
			line("strongarm", v.name, w, n, st.Cycles, st.Instrs, rec)
		}
	}
	return b.Bytes()
}

// TestSchedulesFile fails on any byte of the rendered schedules that
// differs from the checked-in file. A change meant to keep simulated
// behaviour (a speed or memory change) must leave the file alone; a
// change meant to alter timing regenerates it and says why.
func TestSchedulesFile(t *testing.T) {
	got := renderSchedules(t)
	if *updateSchedules {
		if err := os.WriteFile(schedulesFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(schedulesFile)
	if err != nil {
		t.Fatalf("%v; regenerate it with\n\t%s", err, regenerateSchedules)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gotLines) && i < len(wantLines) && gotLines[i] == wantLines[i] {
		i++
	}
	at := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of output)"
	}
	t.Fatalf("%s differs from the code at line %d:\n code: %q\n file: %q\nregenerate it with\n\t%s",
		schedulesFile, i+1, at(gotLines), at(wantLines), regenerateSchedules)
}
