// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5). It is the only code that computes
// the paper's deterministic numbers: cmd/osmbench prints them,
// RunPaper's rendering at scale 1 is checked in as
// testdata/paper_tables.txt, and EXPERIMENTS.md quotes that file next
// to the paper's figures.
package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/baseline/hwcentric"
	"repro/internal/baseline/sscalar"
	"repro/internal/isa/ppc"
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

// maxCycles bounds every run; no experiment comes near it.
const maxCycles = 10_000_000_000

// pctOver returns how much x exceeds ref, in percent of ref.
func pctOver(x, ref uint64) float64 {
	return 100 * (float64(x) - float64(ref)) / float64(ref)
}

// ppcCycles runs p to completion on the PPC-750 model under cfg.
func ppcCycles(p *ppc.Program, cfg ppc750.Config) (uint64, error) {
	s, err := ppc750.New(p, cfg)
	if err != nil {
		return 0, err
	}
	st, err := s.Run(maxCycles)
	return st.Cycles, err
}

// Paper holds every deterministic number of the evaluation at one
// scale: Table 1, Table 2, the §5.2 timing validation, Figure 2 and
// the ablations. Wall-clock speed is not among them; osmbench -speed
// measures it.
type Paper struct {
	Table1    []Table1Row
	Table2    []Table2Row
	Validate  []ValidRow
	Fig2      []Fig2Result
	Ablations []AblationRow
}

// RunPaper computes every deterministic table at the given scale.
func RunPaper(scale int) (*Paper, error) {
	var p Paper
	var err error
	if p.Table1, err = Table1(scale); err != nil {
		return nil, err
	}
	if p.Table2, err = Table2(); err != nil {
		return nil, err
	}
	if p.Validate, err = ValidatePPC(scale); err != nil {
		return nil, err
	}
	if p.Fig2, err = Fig2(scale); err != nil {
		return nil, err
	}
	if p.Ablations, err = Ablations(scale); err != nil {
		return nil, err
	}
	return &p, nil
}

// Fprint renders the tables in the order of the paper's evaluation,
// one blank line apart. This is osmbench's output without a mode flag.
func (p *Paper) Fprint(w io.Writer) {
	tables := []*stats.Table{
		Table1Table(p.Table1),
		Table2Table(p.Table2),
		ValidateTable(p.Validate),
		Fig2Table(p.Fig2),
		AblationTable(p.Ablations),
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		t.Fprint(w)
	}
}

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
		oStats, err := oracle.Run(maxCycles)
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
		mStats, err := model.Run(maxCycles)
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
			DiffPct:      pctOver(mStats.Cycles, oStats.Cycles),
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

// Table2Row is one row of the source-code-size table. A baseline row
// fills only the column of the processor it models.
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

// checkpointFile is the file that holds a package's checkpoint code.
const checkpointFile = "snapshot.go"

// Table2 counts the source lines of the two OSM processor models in
// the paper's categories, then the two baselines, in display order.
//
// The counting rule is one for models and baselines alike. A part's
// size is the comment- and blank-free lines of its non-test Go files
// (stats.CountFileLoC). Each simulator counts its own timing code plus
// the hardware-layer modules it runs on: the memory subsystem
// (internal/mem) and, on the PPC-750 side, the branch predictor
// (ppc750/bpred.go). Three kinds of code are left out on every side:
// instruction semantics (internal/isa, internal/iss), which all the
// simulators share and the paper does not count; checkpoint code (each
// package's snapshot.go), which neither the paper's models nor its
// baselines have; and the generated-engine bindings (gen_spec.go,
// edges_gen.go).
//
// An OSM model splits into "Modules with TMI" (its token-manager file,
// strongarm/regs.go or ppc750/rename.go), "Modules without TMI" (the
// hardware-layer modules) and "Decoding and OSM init." (its sim.go,
// which decodes operations, builds the machines and derives timing).
// A baseline counts its whole package plus the hardware-layer modules
// of the processor it models, under that processor's column.
func Table2() ([]Table2Row, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	var countErr error
	count := func(n int, err error) int {
		if err != nil && countErr == nil {
			countErr = err
		}
		return n
	}
	file := func(parts ...string) int {
		return count(stats.CountFilesLoC(filepath.Join(append([]string{root}, parts...)...)))
	}
	dir := func(parts ...string) int {
		return count(stats.CountDirLoC(filepath.Join(append([]string{root}, parts...)...), checkpointFile))
	}

	saHW := dir("internal", "mem")
	ppcHW := saHW + file("internal", "sim", "ppc750", "bpred.go")
	rows := []Table2Row{
		{Part: "Modules with TMI", SA: file("internal", "sim", "strongarm", "regs.go"), PPC: file("internal", "sim", "ppc750", "rename.go")},
		{Part: "Modules without TMI", SA: saHW, PPC: ppcHW},
		{Part: "Decoding and OSM init.", SA: file("internal", "sim", "strongarm", "sim.go"), PPC: file("internal", "sim", "ppc750", "sim.go")},
	}
	total := Table2Row{Part: "Total"}
	for _, r := range rows {
		total.SA += r.SA
		total.PPC += r.PPC
	}
	rows = append(rows, total,
		Table2Row{Part: "baseline: sscalar (SimpleScalar-style ARM)", SA: dir("internal", "baseline", "sscalar") + saHW},
		Table2Row{Part: "baseline: hwcentric (SystemC-style PPC)", PPC: dir("internal", "baseline", "hwcentric") + ppcHW},
	)
	if countErr != nil {
		return nil, countErr
	}
	return rows, nil
}

// Table2Table renders the rows in the paper's Table 2 layout. A zero
// count, the column a baseline does not model, renders blank.
func Table2Table(rows []Table2Row) *stats.Table {
	t := stats.NewTable("Table 2: source code line numbers", "parts", "SA-1100", "PPC-750")
	cell := func(n int) string {
		if n == 0 {
			return ""
		}
		return strconv.Itoa(n)
	}
	for _, r := range rows {
		t.AddRow(r.Part, cell(r.SA), cell(r.PPC))
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
		st, err := model.Run(maxCycles)
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
		st, err := model.Run(maxCycles)
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
		bst, err := base.Run(maxCycles)
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
		hst, err := hw.Run(maxCycles)
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
		p, err := w.PPCProgram(w.DefaultN * scale)
		if err != nil {
			return nil, err
		}
		osmCycles, err := ppcCycles(p, ppc750.Config{})
		if err != nil {
			return nil, err
		}
		hw, err := hwcentric.New(p, hwcentric.Config{})
		if err != nil {
			return nil, err
		}
		hst, err := hw.Run(maxCycles)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ValidRow{Bench: w.Name, OSMCycles: osmCycles, HWCycles: hst.Cycles, DiffPct: pctOver(osmCycles, hst.Cycles)})
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
		p, err := w.PPCProgram(w.DefaultN * scale)
		if err != nil {
			return nil, err
		}
		withRS, err := ppcCycles(p, ppc750.Config{})
		if err != nil {
			return nil, err
		}
		withoutRS, err := ppcCycles(p, ppc750.Config{NoReservationStations: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig2Result{Bench: w.Name, WithRS: withRS, WithoutRS: withoutRS, SpeedupPct: pctOver(withoutRS, withRS)})
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

// AblationRow is one configuration of a design-choice ablation: the
// cycles a model takes on a fixed workload under that configuration,
// and the change against the ablation's first configuration.
type AblationRow struct {
	Ablation string
	Workload string
	Config   string
	Cycles   uint64
	DeltaPct float64
}

// l2Sweep reads a 64 KiB array line by line, eight passes: a working
// set that overflows an 8 KiB first-level D-cache but fits a 256 KiB L2.
const l2Sweep = `
	li r6, 8
outer:
	lis r4, 2            ; base 0x20000
	li r5, 2048          ; 2048 lines of 32 bytes
loop:
	lwz r3, 0(r4)
	addi r4, r4, 32
	addi r5, r5, -1
	cmpwi r5, 0
	bgt loop
	addi r6, r6, -1
	cmpwi r6, 0
	bgt outer
	li r3, 0
	li r0, 1
	sc
`

// variant is one configuration of an ablation.
type variant struct {
	config string
	cycles func() (uint64, error)
}

// onARM runs the kernels at scale times their default iteration count
// on the StrongARM model under cfg and sums their cycles.
func onARM(scale int, cfg strongarm.Config, ws ...*workload.Workload) func() (uint64, error) {
	return func() (uint64, error) {
		var sum uint64
		for _, w := range ws {
			p, err := w.ARMProgram(w.DefaultN * scale)
			if err != nil {
				return 0, err
			}
			s, err := strongarm.New(p, cfg)
			if err != nil {
				return 0, err
			}
			st, err := s.Run(maxCycles)
			if err != nil {
				return 0, err
			}
			sum += st.Cycles
		}
		return sum, nil
	}
}

// onPPC runs the kernel at scale times its default iteration count on
// the PPC-750 model under cfg.
func onPPC(scale int, cfg ppc750.Config, w *workload.Workload) func() (uint64, error) {
	return func() (uint64, error) {
		p, err := w.PPCProgram(w.DefaultN * scale)
		if err != nil {
			return 0, err
		}
		return ppcCycles(p, cfg)
	}
}

// sweepOn runs l2Sweep on the PPC-750 model with hierarchy h.
func sweepOn(h mem.HierarchyConfig) func() (uint64, error) {
	return func() (uint64, error) {
		p, err := ppc.Assemble(l2Sweep)
		if err != nil {
			return 0, err
		}
		return ppcCycles(p, ppc750.Config{Hier: h})
	}
}

// Ablations measures the design choices DESIGN.md calls out as cycle
// counts: the director's outer-loop restart on the in-order model
// (cycle-identical by construction), the SA-110 multiplier's early
// termination, the memory hierarchy, the 750's front-end widths and a
// back-side L2. Each ablation's first configuration is the reference
// its DeltaPct is measured against.
func Ablations(scale int) ([]AblationRow, error) {
	gsmEnc, mpeg2Dec, g721Enc := workload.ByName("gsm/enc"), workload.ByName("mpeg2/dec"), workload.ByName("g721/enc")
	label := func(w *workload.Workload) string { return fmt.Sprintf("%s n=%d", w.Name, w.DefaultN*scale) }
	slow := mem.DefaultHierarchyConfig()
	slow.MemLatency, slow.TLBMissPenalty = 100, 100
	noL2 := mem.HierarchyConfig{
		ICacheKB: 8, DCacheKB: 8, Ways: 2, LineBytes: 32,
		MemLatency: 60, TLBEntries: 64, WriteBack: true,
	}
	withL2 := noL2
	withL2.L2KB, withL2.L2Latency = 256, 6

	ablations := []struct {
		name, workload string
		variants       []variant
	}{
		{"director restart", "6 MediaBench kernels", []variant{
			{"no restart", onARM(scale, strongarm.Config{}, workload.All()...)},
			{"restart", onARM(scale, strongarm.Config{Restart: true}, workload.All()...)},
		}},
		{"multiplier", label(gsmEnc), []variant{
			{"early termination", onARM(scale, strongarm.Config{}, gsmEnc)},
			{"fixed worst case", onARM(scale, strongarm.Config{FixedMul: true}, gsmEnc)},
		}},
		{"memory hierarchy", label(mpeg2Dec), []variant{
			{"SA-1100", onARM(scale, strongarm.Config{Hier: mem.DefaultHierarchyConfig()}, mpeg2Dec)},
			{"perfect", onARM(scale, strongarm.Config{Hier: mem.HierarchyConfig{DisableCaches: true, DisableTLBs: true}}, mpeg2Dec)},
			{"slow memory", onARM(scale, strongarm.Config{Hier: slow}, mpeg2Dec)},
		}},
		{"750 front end", label(g721Enc), []variant{
			{"750 default", onPPC(scale, ppc750.Config{}, g721Enc)},
			{"narrow", onPPC(scale, ppc750.Config{FetchQueue: 2, CompletionQueue: 2, DispatchWidth: 1, CompleteWidth: 1}, g721Enc)},
			{"wide", onPPC(scale, ppc750.Config{FetchQueue: 12, CompletionQueue: 12, RenameBuffers: 12}, g721Enc)},
		}},
		{"back-side L2", "64 KiB sweep x8", []variant{
			{"no L2", sweepOn(noL2)},
			{"256 KiB L2", sweepOn(withL2)},
		}},
	}
	var rows []AblationRow
	for _, a := range ablations {
		var ref uint64
		for i, v := range a.variants {
			cycles, err := v.cycles()
			if err != nil {
				return nil, fmt.Errorf("ablation %s, %s: %w", a.name, v.config, err)
			}
			if i == 0 {
				ref = cycles
			}
			rows = append(rows, AblationRow{
				Ablation: a.name, Workload: a.workload, Config: v.config,
				Cycles: cycles, DeltaPct: pctOver(cycles, ref),
			})
		}
	}
	return rows, nil
}

// AblationTable renders the ablation rows, naming each ablation and
// its workload on its first row only.
func AblationTable(rows []AblationRow) *stats.Table {
	t := stats.NewTable("Ablations: cycles per configuration (change vs the ablation's first row)",
		"ablation", "workload", "configuration", "cycles", "change")
	for i, r := range rows {
		if i > 0 && r.Ablation == rows[i-1].Ablation {
			t.AddRowf("", "", r.Config, r.Cycles, fmt.Sprintf("%+.2f%%", r.DeltaPct))
		} else {
			t.AddRowf(r.Ablation, r.Workload, r.Config, r.Cycles)
		}
	}
	return t
}
