package experiments

import (
	"bytes"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/osm"
	"repro/internal/sim/ppc750"
	"repro/internal/sim/strongarm"
	"repro/internal/workload"
)

// paperTables is the checked-in rendering of RunPaper(1), and
// regenerate is the one command that rewrites it.
const (
	paperTables = "testdata/paper_tables.txt"
	regenerate  = "go run ./cmd/osmbench -scale 1 > internal/experiments/testdata/paper_tables.txt"
)

// paperAt1 computes the scale-1 tables once per test binary: the file
// check and the shape tests below read the same rows.
var paperAt1 = sync.OnceValues(func() (*Paper, error) { return RunPaper(1) })

func paper(t *testing.T) *Paper {
	t.Helper()
	p, err := paperAt1()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPaperTablesFile pins every deterministic number of the
// evaluation. EXPERIMENTS.md quotes the checked-in file, so a change
// that moves a cycle count or a line count fails here until the file
// is regenerated and the quotes follow.
func TestPaperTablesFile(t *testing.T) {
	var got bytes.Buffer
	paper(t).Fprint(&got)
	want, err := os.ReadFile(paperTables)
	if err != nil {
		t.Fatalf("%v; regenerate it with\n\t%s", err, regenerate)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gotLines) && i < len(wantLines) && gotLines[i] == wantLines[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of output)"
	}
	t.Fatalf("%s differs from the code at line %d:\n code: %q\n file: %q\nregenerate it with\n\t%s\nand update the numbers EXPERIMENTS.md quotes from it",
		paperTables, i+1, line(gotLines), line(wantLines), regenerate)
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	rows := paper(t).Table1
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want the 6 MediaBench kernels", len(rows))
	}
	for _, r := range rows {
		// The paper's differences range from -1.5% to +3%; ours use an
		// independent oracle with slightly different memory constants,
		// so require single digits.
		if math.Abs(r.DiffPct) > 9 {
			t.Errorf("%s: difference %.2f%% too large for a validated model", r.Bench, r.DiffPct)
		}
		if r.OracleCycles == 0 || r.ModelCycles == 0 {
			t.Errorf("%s: empty measurement", r.Bench)
		}
	}
	out := Table1Table(rows).String()
	if !strings.Contains(out, "gsm/dec") || !strings.Contains(out, "difference") {
		t.Errorf("table rendering wrong:\n%s", out)
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	rows := paper(t).Table2
	var total, hw Table2Row
	for _, r := range rows {
		switch {
		case r.Part == "Total":
			total = r
		case strings.Contains(r.Part, "hwcentric"):
			hw = r
		}
	}
	if total.SA == 0 || total.PPC == 0 {
		t.Fatal("missing totals")
	}
	// Paper shape: the PPC model is larger than the SA model, and the
	// hardware-centric baseline is at least comparable in size to the
	// OSM PPC model despite approximating far less wiring than real
	// SystemC (EXPERIMENTS.md discusses the measured ratios).
	if total.PPC <= total.SA {
		t.Errorf("PPC-750 model (%d) should be larger than SA-1100 (%d)", total.PPC, total.SA)
	}
	if float64(hw.PPC) < 0.8*float64(total.PPC) {
		t.Errorf("hardware-centric baseline (%d) implausibly small next to the OSM PPC model (%d)", hw.PPC, total.PPC)
	}
	out := Table2Table(rows).String()
	if !strings.Contains(out, "Modules with TMI") {
		t.Errorf("table rendering wrong:\n%s", out)
	}
}

// TestTable2BaselineColumns: the table renders the same on every run,
// and each baseline's count sits under the processor it models — the
// ARM sscalar under SA-1100, the PPC hwcentric under PPC-750.
func TestTable2BaselineColumns(t *testing.T) {
	render := func() string {
		rows, err := Table2()
		if err != nil {
			t.Fatal(err)
		}
		return Table2Table(rows).String()
	}
	out := render()
	if again := render(); again != out {
		t.Fatalf("two renderings differ:\n%s\n%s", out, again)
	}
	lines := strings.Split(out, "\n")
	header := lines[1]
	for part, column := range map[string]string{
		"baseline: sscalar":   "SA-1100",
		"baseline: hwcentric": "PPC-750",
	} {
		found := false
		for _, l := range lines {
			if !strings.HasPrefix(l, part) {
				continue
			}
			found = true
			// The part names hold no digits, so the first digit starts
			// the count.
			at := strings.IndexAny(l, "0123456789")
			if want := strings.Index(header, column); at != want {
				t.Errorf("%s: count at column %d, want %d (under %s):\n%s", part, at, want, column, out)
			}
		}
		if !found {
			t.Errorf("no %q row:\n%s", part, out)
		}
	}
}

// TestAblationShapes pins the direction of each ablation the prose in
// EXPERIMENTS.md states; the file check pins the counts themselves.
func TestAblationShapes(t *testing.T) {
	rows := paper(t).Ablations
	delta := map[string]float64{}
	for _, r := range rows {
		delta[r.Ablation+"/"+r.Config] = r.DeltaPct
	}
	if d := delta["director restart/restart"]; d != 0 {
		t.Errorf("the outer-loop restart changed the in-order model's cycles by %+.2f%%", d)
	}
	for _, costs := range []string{"multiplier/fixed worst case", "memory hierarchy/slow memory", "750 front end/narrow"} {
		if d, ok := delta[costs]; !ok || d <= 0 {
			t.Errorf("%s: change %+.2f%% (present %v), want more cycles", costs, d, ok)
		}
	}
	for _, saves := range []string{"memory hierarchy/perfect", "back-side L2/256 KiB L2"} {
		if d, ok := delta[saves]; !ok || d >= 0 {
			t.Errorf("%s: change %+.2f%% (present %v), want fewer cycles", saves, d, ok)
		}
	}
}

func TestSpeedARMShape(t *testing.T) {
	if raceEnabled {
		t.Skip("absolute-speed floor is meaningless under the race detector")
	}
	rs, err := SpeedARM(1, osm.EngineEvent)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].CyclesPerSec <= 0 || rs[1].CyclesPerSec <= 0 {
		t.Fatalf("bad results: %+v", rs)
	}
	// Identical timing rules, so cycle counts must be close (the two
	// simulators match exactly when configured identically).
	if rs[0].Cycles != rs[1].Cycles {
		t.Errorf("cycle counts differ: %d vs %d", rs[0].Cycles, rs[1].Cycles)
	}
	// The paper reports OSM at 650k cycles/sec, 1.18x its
	// SimpleScalar baseline. Our hand-coded baseline is far leaner
	// than 2003 SimpleScalar, so we assert the weaker, honest shape
	// (documented in EXPERIMENTS.md): the OSM model stays within an
	// order of magnitude of the lean baseline and beats the paper's
	// absolute number outright.
	ratio := rs[0].CyclesPerSec / rs[1].CyclesPerSec
	if ratio < 0.1 {
		t.Errorf("speed ratio OSM/SS = %.2f; OSM model unreasonably slow", ratio)
	}
	if rs[0].CyclesPerSec < 650_000/2 {
		t.Errorf("OSM StrongARM at %.0f cycles/sec, below even the paper's 2003 hardware", rs[0].CyclesPerSec)
	}
	if out := SpeedTable("t", rs).String(); !strings.Contains(out, "cycles/sec") {
		t.Error("speed table rendering wrong")
	}
}

func TestSpeedPPCShape(t *testing.T) {
	if raceEnabled {
		t.Skip("absolute-speed floor is meaningless under the race detector")
	}
	rs, err := SpeedPPC(1, osm.EngineEvent)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports the OSM 750 model at 250k cycles/sec, 4x its
	// SystemC baseline. Our hardware-centric baseline is a compiled
	// Go approximation without SystemC's coroutine scheduler, so the
	// 4x does not reproduce (documented in EXPERIMENTS.md); we assert
	// the absolute bar instead plus a sanity bound on the ratio.
	if rs[0].CyclesPerSec < 250_000/2 {
		t.Errorf("OSM PPC-750 at %.0f cycles/sec, below even the paper's 2003 hardware", rs[0].CyclesPerSec)
	}
	ratio := rs[0].CyclesPerSec / rs[1].CyclesPerSec
	if ratio < 0.1 {
		t.Errorf("OSM/HW speed ratio = %.2f; OSM model unreasonably slow", ratio)
	}
}

// TestEnginesAgreeOnCycles runs every workload of both case studies
// under all four execution engines: speed may differ, the simulated
// cycle count must not.
func TestEnginesAgreeOnCycles(t *testing.T) {
	agree := func(target, wl string, run func(osm.Engine) (uint64, error)) {
		t.Helper()
		var ref uint64
		for _, eng := range []osm.Engine{osm.EngineScan, osm.EngineEvent, osm.EngineCompiled, osm.EngineGenerated} {
			cycles, err := run(eng)
			if err != nil {
				t.Fatalf("%s %s/%v: %v", target, wl, eng, err)
			}
			if eng == osm.EngineScan {
				ref = cycles
			} else if cycles != ref {
				t.Errorf("%s %s: %v simulated %d cycles, scan %d", target, wl, eng, cycles, ref)
			}
		}
	}
	for _, w := range workload.All() {
		agree("strongarm", w.Name, func(eng osm.Engine) (uint64, error) {
			p, err := w.ARMProgram(w.DefaultN)
			if err != nil {
				return 0, err
			}
			model, err := strongarm.New(p, strongarm.Config{Engine: eng})
			if err != nil {
				return 0, err
			}
			st, err := model.Run(10_000_000_000)
			return st.Cycles, err
		})
	}
	for _, w := range workload.Mix() {
		agree("ppc750", w.Name, func(eng osm.Engine) (uint64, error) {
			p, err := w.PPCProgram(w.DefaultN)
			if err != nil {
				return 0, err
			}
			model, err := ppc750.New(p, ppc750.Config{Engine: eng})
			if err != nil {
				return 0, err
			}
			st, err := model.Run(10_000_000_000)
			return st.Cycles, err
		})
	}
}

func TestValidatePPCWithinTolerance(t *testing.T) {
	rows := paper(t).Validate
	for _, r := range rows {
		// MediaBench-like kernels agree within 8%; spec/crc (a
		// mispredicted branch every few instructions) amplifies the
		// arbitration-order differences between the two independent
		// implementations to ~11% (EXPERIMENTS.md discusses this).
		tol := 8.0
		if strings.HasPrefix(r.Bench, "spec/") {
			tol = 12.0
		}
		if math.Abs(r.DiffPct) > tol {
			t.Errorf("%s: %.2f%% timing difference between the two 750 models", r.Bench, r.DiffPct)
		}
	}
	if out := ValidateTable(rows).String(); !strings.Contains(out, "OSM(cyc)") {
		t.Error("validate table rendering wrong")
	}
}

func TestFig2ReservationStationsHelp(t *testing.T) {
	rows := paper(t).Fig2
	helped := 0
	for _, r := range rows {
		if r.WithRS < r.WithoutRS {
			helped++
		}
		if r.WithRS > r.WithoutRS {
			t.Errorf("%s: removing reservation stations must not speed the model up (%d vs %d)",
				r.Bench, r.WithRS, r.WithoutRS)
		}
	}
	if helped == 0 {
		t.Error("reservation stations helped no kernel at all")
	}
	if out := Fig2Table(rows).String(); !strings.Contains(out, "without RS") {
		t.Error("fig2 table rendering wrong")
	}
}
