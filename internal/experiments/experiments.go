// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5). Both cmd/osmbench and the
// repository's benchmark suite drive these functions; EXPERIMENTS.md
// records paper-versus-measured for each.
package experiments

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/baseline/hwcentric"
	"repro/internal/baseline/sscalar"
	"repro/internal/mem"
	"repro/internal/osm"
	"repro/internal/sim/ppc750"
	"repro/internal/sim/strongarm"
	"repro/internal/stats"
	"repro/internal/workload"
)

// DefaultScale multiplies each kernel's default iteration count in
// the full experiment runs.
const DefaultScale = 4

// Table1Row is one row of the StrongARM validation table: the OSM
// model's cycle count against the external timing oracle, with the
// percentage difference — the analogue of the paper's iPAQ-seconds
// versus simulator-seconds comparison.
type Table1Row struct {
	Bench        string
	OracleCycles uint64
	ModelCycles  uint64
	DiffPct      float64
}

// oracleHier returns the timing oracle's memory parameters. The
// oracle stands in for the paper's iPAQ hardware: an independent
// implementation whose exact memory subsystem differs slightly from
// the model's assumptions ("since all details of the memory subsystem
// were not available, the memory modules may have contributed to the
// differences").
func oracleHier() mem.HierarchyConfig {
	h := mem.DefaultHierarchyConfig()
	h.MemLatency = 23
	h.TLBMissPenalty = 26
	return h
}

// Table1 runs the six MediaBench-like kernels on the StrongARM OSM
// model and on the oracle, at scale times each kernel's default
// iteration count.
func Table1(scale int) ([]Table1Row, error) {
	var rows []Table1Row
	for _, w := range workload.All() {
		n := w.DefaultN * scale
		p, err := w.ARMProgram(n)
		if err != nil {
			return nil, err
		}
		oracle, err := sscalar.New(p, sscalar.Config{Hier: oracleHier()})
		if err != nil {
			return nil, err
		}
		oStats, err := oracle.Run(10_000_000_000)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", w.Name, err)
		}
		if oracle.ISS.Reported[0] != w.Ref(n) {
			return nil, fmt.Errorf("oracle %s: checksum mismatch", w.Name)
		}
		model, err := strongarm.New(p, strongarm.Config{})
		if err != nil {
			return nil, err
		}
		mStats, err := model.Run(10_000_000_000)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", w.Name, err)
		}
		if model.ISS.Reported[0] != w.Ref(n) {
			return nil, fmt.Errorf("model %s: checksum mismatch", w.Name)
		}
		rows = append(rows, Table1Row{
			Bench:        w.Name,
			OracleCycles: oStats.Cycles,
			ModelCycles:  mStats.Cycles,
			DiffPct:      100 * (float64(mStats.Cycles) - float64(oStats.Cycles)) / float64(oStats.Cycles),
		})
	}
	return rows, nil
}

// Table1Table renders the rows in the paper's Table 1 layout.
func Table1Table(rows []Table1Row) *stats.Table {
	t := stats.NewTable("Table 1: StrongARM model comparison (cycles vs timing oracle)",
		"benchmark", "oracle(cyc)", "simulator(cyc)", "difference")
	for _, r := range rows {
		t.AddRowf(r.Bench, r.OracleCycles, r.ModelCycles, fmt.Sprintf("%+.2f%%", r.DiffPct))
	}
	return t
}

// Table2Row is one row of the source-code-size table.
type Table2Row struct {
	Part string
	SA   int
	PPC  int
}

// repoRoot locates the repository from this source file's path.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("experiments: cannot locate source tree")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file))), nil
}

// Table2 counts the source lines of the two OSM processor models,
// split into the paper's four categories, plus the baselines'
// sizes for the comparison made in the surrounding text.
func Table2() ([]Table2Row, map[string]int, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, nil, err
	}
	j := func(parts ...string) string { return filepath.Join(append([]string{root}, parts...)...) }

	// Category mapping (DESIGN.md documents the classification):
	//  - "Modules with TMI": the token-manager modules of each model.
	//  - "Modules without TMI": the memory subsystem and predictors
	//    (hardware layer only — shared, counted once per model use).
	//  - "Decoding and OSM init.": the per-model glue that decodes
	//    operations and initializes machine contexts and timing.
	//  - "Miscellaneous": run control and statistics (counted within
	//    the model files; zero here because the glue files carry it).
	saTMI, err := stats.CountFilesLoC(j("internal", "sim", "strongarm", "regs.go"))
	if err != nil {
		return nil, nil, err
	}
	saGlue, err := stats.CountFilesLoC(j("internal", "sim", "strongarm", "sim.go"))
	if err != nil {
		return nil, nil, err
	}
	ppcTMI, err := stats.CountFilesLoC(j("internal", "sim", "ppc750", "rename.go"))
	if err != nil {
		return nil, nil, err
	}
	ppcGlue, err := stats.CountFilesLoC(j("internal", "sim", "ppc750", "sim.go"))
	if err != nil {
		return nil, nil, err
	}
	ppcPred, err := stats.CountFilesLoC(j("internal", "sim", "ppc750", "bpred.go"))
	if err != nil {
		return nil, nil, err
	}
	memLoC, err := stats.CountDirLoC(j("internal", "mem"))
	if err != nil {
		return nil, nil, err
	}

	rows := []Table2Row{
		{Part: "Modules with TMI", SA: saTMI, PPC: ppcTMI},
		{Part: "Modules without TMI", SA: memLoC, PPC: memLoC + ppcPred},
		{Part: "Decoding and OSM init.", SA: saGlue, PPC: ppcGlue},
	}
	saTotal, ppcTotal := 0, 0
	for _, r := range rows {
		saTotal += r.SA
		ppcTotal += r.PPC
	}
	rows = append(rows, Table2Row{Part: "Total", SA: saTotal, PPC: ppcTotal})

	// Baseline sizes for the in-text comparison.
	ssLoC, err := stats.CountDirLoC(j("internal", "baseline", "sscalar"))
	if err != nil {
		return nil, nil, err
	}
	hwLoC, err := stats.CountDirLoC(j("internal", "baseline", "hwcentric"))
	if err != nil {
		return nil, nil, err
	}
	baselines := map[string]int{
		"sscalar (SimpleScalar-style ARM)": ssLoC + memLoC,
		"hwcentric (SystemC-style PPC)":    hwLoC + memLoC + ppcPred,
	}
	return rows, baselines, nil
}

// Table2Table renders the rows in the paper's Table 2 layout.
func Table2Table(rows []Table2Row, baselines map[string]int) *stats.Table {
	t := stats.NewTable("Table 2: source code line numbers", "parts", "SA-1100", "PPC-750")
	for _, r := range rows {
		t.AddRowf(r.Part, r.SA, r.PPC)
	}
	for name, loc := range baselines {
		t.AddRowf("baseline: "+name, "", loc)
	}
	return t
}

// SpeedResult reports one simulator's speed on the benchmark mix.
type SpeedResult struct {
	Name   string
	Cycles uint64
	Instrs uint64
	Wall   time.Duration
	// CyclesPerSec is the paper's figure of merit ("650k cycles/sec").
	CyclesPerSec float64
}

func speedResult(name string, cycles, instrs uint64, wall time.Duration) SpeedResult {
	return SpeedResult{
		Name: name, Cycles: cycles, Instrs: instrs, Wall: wall,
		CyclesPerSec: float64(cycles) / wall.Seconds(),
	}
}

// speedARMOSM runs the full StrongARM benchmark mix under the given
// engine, accumulating cycles, instructions and wall time.
func speedARMOSM(scale int, eng osm.Engine) (cycles, instrs uint64, wall time.Duration, err error) {
	for _, w := range workload.All() {
		p, err := w.ARMProgram(w.DefaultN * scale)
		if err != nil {
			return 0, 0, 0, err
		}
		model, err := strongarm.New(p, strongarm.Config{Engine: eng})
		if err != nil {
			return 0, 0, 0, err
		}
		start := time.Now()
		st, err := model.Run(10_000_000_000)
		if err != nil {
			return 0, 0, 0, err
		}
		wall += time.Since(start)
		cycles += st.Cycles
		instrs += st.Instrs
	}
	return cycles, instrs, wall, nil
}

// speedPPCOSM runs the PPC-750 benchmark mix under the given engine.
func speedPPCOSM(scale int, eng osm.Engine) (cycles, instrs uint64, wall time.Duration, err error) {
	for _, w := range workload.Mix() {
		p, err := w.PPCProgram(w.DefaultN * scale)
		if err != nil {
			return 0, 0, 0, err
		}
		model, err := ppc750.New(p, ppc750.Config{Engine: eng})
		if err != nil {
			return 0, 0, 0, err
		}
		start := time.Now()
		st, err := model.Run(10_000_000_000)
		if err != nil {
			return 0, 0, 0, err
		}
		wall += time.Since(start)
		cycles += st.Cycles
		instrs += st.Instrs
	}
	return cycles, instrs, wall, nil
}

// SpeedARM measures simulation speed of the StrongARM OSM model and
// the SimpleScalar-style baseline over the benchmark mix (the paper
// reports 650k versus 550k cycles/sec). The OSM model runs under eng.
func SpeedARM(scale int, eng osm.Engine) ([]SpeedResult, error) {
	osmCycles, osmInstrs, osmWall, err := speedARMOSM(scale, eng)
	if err != nil {
		return nil, err
	}
	var ssCycles, ssInstrs uint64
	var ssWall time.Duration
	for _, w := range workload.All() {
		p, err := w.ARMProgram(w.DefaultN * scale)
		if err != nil {
			return nil, err
		}
		base, err := sscalar.New(p, sscalar.Config{})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		bst, err := base.Run(10_000_000_000)
		if err != nil {
			return nil, err
		}
		ssWall += time.Since(start)
		ssCycles += bst.Cycles
		ssInstrs += bst.Instrs
	}
	return []SpeedResult{
		speedResult("OSM StrongARM", osmCycles, osmInstrs, osmWall),
		speedResult("SimpleScalar-style", ssCycles, ssInstrs, ssWall),
	}, nil
}

// SpeedPPC measures simulation speed of the PowerPC 750 OSM model
// and the SystemC-style baseline (the paper reports the OSM model at
// 4x the SystemC model's speed). The OSM model runs under eng.
func SpeedPPC(scale int, eng osm.Engine) ([]SpeedResult, error) {
	osmCycles, osmInstrs, osmWall, err := speedPPCOSM(scale, eng)
	if err != nil {
		return nil, err
	}
	var hwCycles, hwInstrs uint64
	var hwWall time.Duration
	for _, w := range workload.Mix() {
		p, err := w.PPCProgram(w.DefaultN * scale)
		if err != nil {
			return nil, err
		}
		hw, err := hwcentric.New(p, hwcentric.Config{})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		hst, err := hw.Run(10_000_000_000)
		if err != nil {
			return nil, err
		}
		hwWall += time.Since(start)
		hwCycles += hst.Cycles
		hwInstrs += hst.Instrs
	}
	return []SpeedResult{
		speedResult("OSM PPC-750", osmCycles, osmInstrs, osmWall),
		speedResult("SystemC-style", hwCycles, hwInstrs, hwWall),
	}, nil
}

// SpeedTable renders speed results with the ratio of the first row to
// each later row.
func SpeedTable(title string, rs []SpeedResult) *stats.Table {
	t := stats.NewTable(title, "simulator", "cycles", "wall", "cycles/sec", "speedup")
	for _, r := range rs {
		ratio := r.CyclesPerSec / rs[len(rs)-1].CyclesPerSec
		t.AddRowf(r.Name, r.Cycles, r.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.CyclesPerSec), fmt.Sprintf("%.2fx", ratio))
	}
	return t
}

// ValidRow is one row of the PPC-750 timing validation (the paper:
// "differences in timing are within 3% in all cases").
type ValidRow struct {
	Bench     string
	OSMCycles uint64
	HWCycles  uint64
	DiffPct   float64
}

// ValidatePPC compares the OSM 750 model against the hardware-centric
// model on the full MediaBench+SPECint-like mix (paper §5.2: "a
// benchmark mix from MediaBench and SPECint 2000").
func ValidatePPC(scale int) ([]ValidRow, error) {
	var rows []ValidRow
	for _, w := range workload.Mix() {
		n := w.DefaultN * scale
		p, err := w.PPCProgram(n)
		if err != nil {
			return nil, err
		}
		model, err := ppc750.New(p, ppc750.Config{})
		if err != nil {
			return nil, err
		}
		st, err := model.Run(10_000_000_000)
		if err != nil {
			return nil, err
		}
		hw, err := hwcentric.New(p, hwcentric.Config{})
		if err != nil {
			return nil, err
		}
		hst, err := hw.Run(10_000_000_000)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ValidRow{
			Bench:     w.Name,
			OSMCycles: st.Cycles,
			HWCycles:  hst.Cycles,
			DiffPct:   100 * (float64(st.Cycles) - float64(hst.Cycles)) / float64(hst.Cycles),
		})
	}
	return rows, nil
}

// ValidateTable renders the validation rows.
func ValidateTable(rows []ValidRow) *stats.Table {
	t := stats.NewTable("PPC-750 timing validation (OSM vs hardware-centric model)",
		"benchmark", "OSM(cyc)", "HW(cyc)", "difference")
	for _, r := range rows {
		t.AddRowf(r.Bench, r.OSMCycles, r.HWCycles, fmt.Sprintf("%+.2f%%", r.DiffPct))
	}
	return t
}

// Fig2Result quantifies the reservation-station behaviour of the
// paper's Figure 2: the multi-path OSM (dispatch directly to the unit
// or wait in the reservation station) against the single-path
// ablation.
type Fig2Result struct {
	Bench      string
	WithRS     uint64
	WithoutRS  uint64
	SpeedupPct float64
}

// Fig2 measures the reservation-station benefit per kernel.
func Fig2(scale int) ([]Fig2Result, error) {
	var rows []Fig2Result
	for _, w := range workload.Mix() {
		n := w.DefaultN * scale
		p, err := w.PPCProgram(n)
		if err != nil {
			return nil, err
		}
		withRS, err := ppc750.New(p, ppc750.Config{})
		if err != nil {
			return nil, err
		}
		a, err := withRS.Run(10_000_000_000)
		if err != nil {
			return nil, err
		}
		withoutRS, err := ppc750.New(p, ppc750.Config{NoReservationStations: true})
		if err != nil {
			return nil, err
		}
		b, err := withoutRS.Run(10_000_000_000)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig2Result{
			Bench: w.Name, WithRS: a.Cycles, WithoutRS: b.Cycles,
			SpeedupPct: 100 * (float64(b.Cycles) - float64(a.Cycles)) / float64(a.Cycles),
		})
	}
	return rows, nil
}

// Fig2Table renders the reservation-station comparison.
func Fig2Table(rows []Fig2Result) *stats.Table {
	t := stats.NewTable("Figure 2: reservation-station OSM paths (cycles with/without RS)",
		"benchmark", "with RS", "without RS", "RS benefit")
	for _, r := range rows {
		t.AddRowf(r.Bench, r.WithRS, r.WithoutRS, fmt.Sprintf("%+.2f%%", r.SpeedupPct))
	}
	return t
}
