// Package runner owns the target-independent construction and
// reporting logic shared by every simulation entry point: the CLI
// driver (cmd/osmsim), the batch driver (internal/batch) and the HTTP
// service (cmd/osmserve). A Spec names a target plus exactly one program
// source (built-in workload, assembly text or a loader image);
// Run executes it to completion for any target, and New builds a
// steppable Instance — step, peek, snapshot, restore — for the
// cycle-accurate OSM models that long-lived sessions are made of.
package runner

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/baseline/hwcentric"
	"repro/internal/baseline/sscalar"
	"repro/internal/isa/arm"
	"repro/internal/isa/ppc"
	"repro/internal/iss"
	"repro/internal/loader"
	"repro/internal/mem"
	"repro/internal/osm"
	"repro/internal/osm/invariant"
	"repro/internal/sim/ppc750"
	"repro/internal/sim/strongarm"
	"repro/internal/workload"
)

// Targets, in the order they are documented.
var Targets = []string{"strongarm", "sscalar", "ppc750", "hwcentric", "arm-iss", "ppc-iss"}

// ErrNotSteppable reports a target that only supports run-to-
// completion (no cycle stepping or snapshots), so it cannot back a
// long-lived session.
var ErrNotSteppable = errors.New("runner: target supports run-to-completion only")

// Spec describes one simulation: a target plus exactly one program
// source. The zero values of the optional knobs select the target's
// defaults.
type Spec struct {
	// Target selects the model: strongarm | sscalar | ppc750 |
	// hwcentric | arm-iss | ppc-iss.
	Target string `json:"target"`
	// Workload names a built-in kernel (exclusive with Src/Image).
	Workload string `json:"workload,omitempty"`
	// N is the workload iteration count (0 = kernel default). The
	// kernels count in a signed 32-bit register, so Validate refuses N
	// outside [0, 2^31-1].
	N int `json:"n,omitempty"`
	// Src is assembly source text (exclusive with Workload/Image).
	Src string `json:"src,omitempty"`
	// Image is a loader program image (exclusive with Workload/Src).
	Image []byte `json:"image,omitempty"`
	// MaxCycles bounds a Run (0 = 1G).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// Perfect disables caches and TLBs.
	Perfect bool `json:"perfect,omitempty"`
	// Engine selects the execution engine on OSM targets: "generated"
	// (monomorphic Go state functions emitted by osmgen and built into
	// the binary, served by the Figure 3 scan; what the empty default
	// runs on both case studies), "event" (the event-driven
	// interpreter), "scan" (the reference Figure 3 scheduler) or
	// "compiled" (guard programs lowered by osm.Director.Compile,
	// executed without interface dispatch under the event-driven
	// scheduler).
	Engine string `json:"engine,omitempty"`
	// Check installs the runtime OSM invariant checker on the model's
	// director: token conservation, binding consistency, scheduler
	// equivalence and livelock detection verified every control step.
	// A violation aborts the run with an *invariant.Error.
	Check bool `json:"check,omitempty"`
}

// IsARM reports whether the target executes the ARM ISA.
func (s *Spec) IsARM() bool {
	switch s.Target {
	case "strongarm", "sscalar", "arm-iss":
		return true
	}
	return false
}

func knownTarget(t string) bool {
	for _, k := range Targets {
		if t == k {
			return true
		}
	}
	return false
}

// isOSM reports whether the target is driven by an OSM director (and
// therefore has selectable execution engines).
func (s *Spec) isOSM() bool { return s.Target == "strongarm" || s.Target == "ppc750" }

// maxN is the largest workload iteration count: the kernels load N
// into a signed 32-bit register and loop while it is positive, so a
// larger N would silently run another count.
const maxN = math.MaxInt32

// Validate checks the spec for a known target, an iteration count the
// kernels can hold and an unambiguous program source. The error is a
// single line suitable for CLI and HTTP error surfaces.
func (s *Spec) Validate() error {
	if !knownTarget(s.Target) {
		return fmt.Errorf("unknown target %q (want one of %s)", s.Target, strings.Join(Targets, ", "))
	}
	if s.N < 0 || s.N > maxN {
		return fmt.Errorf("n %d out of range [0, %d] (0 selects the kernel default)", s.N, maxN)
	}
	if _, err := osm.ParseEngine(s.Engine); err != nil {
		return err
	}
	if s.Engine != "" && !s.isOSM() {
		return fmt.Errorf("engine %q: target %s has no OSM director (engines apply to strongarm and ppc750)",
			s.Engine, s.Target)
	}
	var set []string
	if s.Workload != "" {
		set = append(set, "workload")
	}
	if s.Src != "" {
		set = append(set, "src")
	}
	if len(s.Image) > 0 {
		set = append(set, "image")
	}
	switch len(set) {
	case 0:
		return fmt.Errorf("exactly one of workload, src or image is required")
	case 1:
		return nil
	default:
		return fmt.Errorf("ambiguous program source: %s are all set; provide exactly one of workload, src or image",
			strings.Join(set, " and "))
	}
}

// Programs resolves the spec's program source into a program for the
// target's ISA (one of the two results is nil).
func (s *Spec) Programs() (*arm.Program, *ppc.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	switch {
	case s.Workload != "":
		w := workload.ByName(s.Workload)
		if w == nil {
			return nil, nil, fmt.Errorf("unknown workload %q", s.Workload)
		}
		n := s.N
		if n == 0 {
			n = w.DefaultN
		}
		if s.IsARM() {
			p, err := w.ARMProgram(n)
			return p, nil, err
		}
		p, err := w.PPCProgram(n)
		return nil, p, err
	case s.Src != "":
		if s.IsARM() {
			p, err := arm.Assemble(s.Src)
			return p, nil, err
		}
		p, err := ppc.Assemble(s.Src)
		return nil, p, err
	default:
		im, err := loader.Unmarshal(s.Image)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case im.Arch == loader.ArchARM && s.IsARM():
			return &arm.Program{Org: im.Org, Entry: im.Entry, Words: im.Words}, nil, nil
		case im.Arch == loader.ArchPPC && !s.IsARM():
			return nil, &ppc.Program{Org: im.Org, Entry: im.Entry, Words: im.Words}, nil
		}
		return nil, nil, fmt.Errorf("image architecture %s does not match target %s", im.Arch, s.Target)
	}
}

func (s *Spec) hier() mem.HierarchyConfig {
	if s.Perfect {
		return mem.HierarchyConfig{DisableCaches: true, DisableTLBs: true}
	}
	return mem.HierarchyConfig{}
}

func (s *Spec) maxCycles() uint64 {
	if s.MaxCycles == 0 {
		return 1_000_000_000
	}
	return s.MaxCycles
}

// Result is the shared result struct every entry point reports: the
// CLI prints it (or marshals it with -json), the batch manifest and
// the HTTP service embed it.
type Result struct {
	Target string `json:"target"`
	// Arch is the ISA: "arm" or "ppc".
	Arch   string `json:"arch"`
	Instrs uint64 `json:"instructions"`
	// Cycles is zero for functional (ISS-only) targets.
	Cycles   uint64   `json:"cycles,omitempty"`
	Reported []uint32 `json:"reported,omitempty"`
	// Extra holds the target-specific metrics (CPI, cache lines,
	// mispredict counts...), already formatted.
	Extra map[string]string `json:"extra,omitempty"`
	// WallNS is the caller-measured wall time in nanoseconds.
	WallNS int64 `json:"wall_ns,omitempty"`
}

// Report writes the human-readable form (the historical osmsim
// output, with deterministic extra-key order).
func (r *Result) Report(w io.Writer) {
	fmt.Fprintf(w, "instructions: %d\n", r.Instrs)
	if r.Cycles > 0 {
		fmt.Fprintf(w, "cycles:       %d\n", r.Cycles)
		if r.WallNS > 0 {
			fmt.Fprintf(w, "speed:        %.0f cycles/sec\n", float64(r.Cycles)/(float64(r.WallNS)/1e9))
		}
	}
	if r.WallNS > 0 {
		fmt.Fprintf(w, "wall time:    %.3fms\n", float64(r.WallNS)/1e6)
	}
	if len(r.Reported) > 0 {
		vals := make([]string, len(r.Reported))
		for i, v := range r.Reported {
			vals[i] = fmt.Sprintf("%#x", v)
		}
		fmt.Fprintf(w, "reported:     %s\n", strings.Join(vals, " "))
	}
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-13s %s\n", k+":", r.Extra[k])
	}
}

func cacheLine(s mem.CacheStats) string {
	return fmt.Sprintf("%d acc, %.2f%% hit", s.Accesses, 100*s.HitRate())
}

// Reg is one named architectural register value.
type Reg struct {
	Name  string `json:"name"`
	Value uint32 `json:"value"`
}

func armRegs(is *iss.ARM) []Reg {
	regs := make([]Reg, 0, 18)
	for i, v := range is.CPU.R {
		regs = append(regs, Reg{Name: fmt.Sprintf("r%d", i), Value: v})
	}
	regs = append(regs, Reg{Name: "nzcv", Value: is.CPU.Flags()})
	return regs
}

func ppcRegs(is *iss.PPC) []Reg {
	c := is.CPU
	regs := make([]Reg, 0, 37)
	for i, v := range c.R {
		regs = append(regs, Reg{Name: fmt.Sprintf("r%d", i), Value: v})
	}
	regs = append(regs,
		Reg{Name: "cr", Value: c.CR},
		Reg{Name: "lr", Value: c.LR},
		Reg{Name: "ctr", Value: c.CTR},
		Reg{Name: "xer", Value: c.XER},
		Reg{Name: "pc", Value: c.NextPC})
	return regs
}

func ramReader(ram *mem.RAM) func(addr, n uint32) ([]byte, error) {
	return func(addr, n uint32) ([]byte, error) {
		size := ram.Size()
		if n > size || addr > size-n {
			return nil, fmt.Errorf("range [%#x,+%d) exceeds %d-byte RAM", addr, n, size)
		}
		out := make([]byte, n)
		for i := uint32(0); i < n; i++ {
			out[i] = ram.Read8(addr + i)
		}
		return out, nil
	}
}

// Instance is a steppable simulation: the surface a long-lived
// session (batch job, HTTP session) drives. Only the cycle-accurate
// OSM targets (strongarm, ppc750) support it.
type Instance struct {
	spec     Spec
	arch     string
	director *osm.Director

	step     func() error
	cycle    func() uint64
	done     func() bool
	snapshot func() ([]byte, error)
	restore  func([]byte) error
	finalize func() (Result, error)
	regs     func() []Reg
	readMem  func(addr, n uint32) ([]byte, error)
}

// Spec returns the instance's originating spec.
func (in *Instance) Spec() Spec { return in.spec }

// Arch returns the ISA: "arm" or "ppc".
func (in *Instance) Arch() string { return in.arch }

// Director exposes the model's director (for tracing).
func (in *Instance) Director() *osm.Director { return in.director }

// StepCycle advances the simulation one clock cycle.
func (in *Instance) StepCycle() error { return in.step() }

// Cycle returns the number of completed clock cycles.
func (in *Instance) Cycle() uint64 { return in.cycle() }

// Done reports whether the program has exited and the pipeline
// drained.
func (in *Instance) Done() bool { return in.done() }

// Snapshot encodes the full simulation state (internal/snap format).
func (in *Instance) Snapshot() ([]byte, error) { return in.snapshot() }

// Restore fills a freshly built instance with a snapshot's state. An
// instance that has stepped is refused: models restore by filling in
// what a fresh build leaves at its initial values, so a restore over
// a run would mix the two. After a failed restore the instance is
// half-filled; discard it.
func (in *Instance) Restore(blob []byte) error {
	if c := in.cycle(); c != 0 {
		return fmt.Errorf("runner: restore into an instance already at cycle %d (build a fresh one)", c)
	}
	return in.restore(blob)
}

// Finalize checks end-of-run invariants and returns the result.
func (in *Instance) Finalize() (Result, error) { return in.finalize() }

// Registers returns the named architectural register values.
func (in *Instance) Registers() []Reg { return in.regs() }

// ReadMem copies n bytes of simulated memory starting at addr.
func (in *Instance) ReadMem(addr, n uint32) ([]byte, error) { return in.readMem(addr, n) }

// MaxCycles returns the spec's cycle budget (with the default
// applied).
func (in *Instance) MaxCycles() uint64 { return in.spec.maxCycles() }

// CheckInvariants runs a one-shot structural invariant check over the
// model right now: token conservation and binding consistency as of
// the current control step. It works whether or not the per-step
// checker was enabled, so debug surfaces can probe any session.
func (in *Instance) CheckInvariants() []invariant.Violation {
	return invariant.New(in.director).CheckNow()
}

// Hooks assembles an Instance from caller-supplied callbacks — the
// seam drivers use to script instances in tests (a deliberately slow
// model for deadline coverage, a failing Snapshot, ...). Nil hooks get
// inert defaults.
type Hooks struct {
	Spec      Spec
	Arch      string
	Director  *osm.Director
	Step      func() error
	Cycle     func() uint64
	Done      func() bool
	Snapshot  func() ([]byte, error)
	Restore   func([]byte) error
	Finalize  func() (Result, error)
	Registers func() []Reg
	ReadMem   func(addr, n uint32) ([]byte, error)
}

// NewFromHooks builds an Instance whose behavior is entirely defined
// by the hooks.
func NewFromHooks(h Hooks) *Instance {
	if h.Director == nil {
		h.Director = osm.NewDirector()
	}
	if h.Step == nil {
		h.Step = func() error { return nil }
	}
	if h.Cycle == nil {
		h.Cycle = func() uint64 { return 0 }
	}
	if h.Done == nil {
		h.Done = func() bool { return false }
	}
	if h.Snapshot == nil {
		h.Snapshot = func() ([]byte, error) { return nil, fmt.Errorf("runner: no snapshot hook") }
	}
	if h.Restore == nil {
		h.Restore = func([]byte) error { return fmt.Errorf("runner: no restore hook") }
	}
	if h.Finalize == nil {
		h.Finalize = func() (Result, error) { return Result{Target: h.Spec.Target, Arch: h.Arch}, nil }
	}
	if h.Registers == nil {
		h.Registers = func() []Reg { return nil }
	}
	if h.ReadMem == nil {
		h.ReadMem = func(addr, n uint32) ([]byte, error) { return nil, fmt.Errorf("runner: no mem hook") }
	}
	return &Instance{
		spec: h.Spec, arch: h.Arch, director: h.Director,
		step: h.Step, cycle: h.Cycle, done: h.Done,
		snapshot: h.Snapshot, restore: h.Restore, finalize: h.Finalize,
		regs: h.Registers, readMem: h.ReadMem,
	}
}

// New builds a steppable Instance for the spec. Targets without a
// step/snapshot surface return ErrNotSteppable.
func New(spec Spec) (*Instance, error) {
	armProg, ppcProg, err := spec.Programs()
	if err != nil {
		return nil, err
	}
	eng, _ := osm.ParseEngine(spec.Engine)
	var in *Instance
	// The per-cycle hooks are method values on the concrete model, so
	// StepCycle costs one indirect call and no interface dispatch.
	switch spec.Target {
	case "strongarm":
		s, err := strongarm.New(armProg, strongarm.Config{Hier: spec.hier(), Engine: eng})
		if err != nil {
			return nil, err
		}
		in = &Instance{
			arch:     "arm",
			director: s.Director(),
			step:     s.StepCycle,
			cycle:    s.Cycle,
			done:     s.Done,
			snapshot: s.Snapshot,
			restore:  s.Restore,
			finalize: func() (Result, error) {
				st, err := s.Finalize()
				return armResult(spec.Target, st, s.ISS), err
			},
			regs:    func() []Reg { return armRegs(s.ISS) },
			readMem: ramReader(s.ISS.RAM),
		}
	case "ppc750":
		s, err := ppc750.New(ppcProg, ppc750.Config{Hier: spec.hier(), Engine: eng})
		if err != nil {
			return nil, err
		}
		in = &Instance{
			arch:     "ppc",
			director: s.Director(),
			step:     s.StepCycle,
			cycle:    s.Cycle,
			done:     s.Done,
			snapshot: s.Snapshot,
			restore:  s.Restore,
			finalize: func() (Result, error) {
				st, err := s.Finalize()
				return ppcResult(spec.Target, st, s.ISS), err
			},
			regs:    func() []Reg { return ppcRegs(s.ISS) },
			readMem: ramReader(s.ISS.RAM),
		}
	default:
		// Programs validated the target, so it is a known one.
		return nil, fmt.Errorf("%w: %s", ErrNotSteppable, spec.Target)
	}
	in.spec = spec
	// Lower eagerly so model errors surface at construction, not on
	// the first step; only the compiled engine builds a program.
	if err := in.director.Lower(); err != nil {
		return nil, err
	}
	if spec.Check {
		invariant.Attach(in.director)
	}
	return in, nil
}

func armResult(target string, st strongarm.Stats, is *iss.ARM) Result {
	return Result{
		Target: target, Arch: "arm",
		Cycles: st.Cycles, Instrs: st.Instrs, Reported: is.Reported,
		Extra: map[string]string{
			"CPI":       fmt.Sprintf("%.3f", st.CPI()),
			"redirects": fmt.Sprint(st.Redirects),
			"icache":    cacheLine(st.ICache),
			"dcache":    cacheLine(st.DCache),
		},
	}
}

func ppcResult(target string, st ppc750.Stats, is *iss.PPC) Result {
	return Result{
		Target: target, Arch: "ppc",
		Cycles: st.Cycles, Instrs: st.Instrs, Reported: is.Reported,
		Extra: map[string]string{
			"IPC":         fmt.Sprintf("%.3f", st.IPC()),
			"mispredicts": fmt.Sprint(st.Mispredicts),
			"bht":         fmt.Sprintf("%.1f%%", 100*st.BHTAccuracy),
			"icache":      cacheLine(st.ICache),
			"dcache":      cacheLine(st.DCache),
		},
	}
}

// RunOptions tune a Run.
type RunOptions struct {
	// Trace, if non-nil, receives one line per executed instruction.
	Trace io.Writer
	// Out receives program console output (default: discarded).
	Out io.Writer
}

// Run builds the spec's simulator, runs it to completion and returns
// the result. It supports every target, including the run-to-
// completion-only baselines and functional ISSes.
func Run(spec Spec, opts RunOptions) (Result, error) {
	armProg, ppcProg, err := spec.Programs()
	if err != nil {
		return Result{}, err
	}
	armTrace := func(pc uint32, ins arm.Instr) {
		fmt.Fprintf(opts.Trace, "%08x:  %s\n", pc, ins.String())
	}
	ppcTrace := func(pc uint32, ins ppc.Instr) {
		fmt.Fprintf(opts.Trace, "%08x:  %s\n", pc, ins.String())
	}
	switch spec.Target {
	case "strongarm":
		eng, _ := osm.ParseEngine(spec.Engine)
		s, err := strongarm.New(armProg, strongarm.Config{Hier: spec.hier(), Engine: eng})
		if err != nil {
			return Result{}, err
		}
		if spec.Check {
			invariant.Attach(s.Director())
		}
		if opts.Trace != nil {
			s.ISS.Trace = armTrace
		}
		if opts.Out != nil {
			s.ISS.Out = opts.Out
		}
		st, err := s.Run(spec.maxCycles())
		if err != nil {
			return Result{}, err
		}
		return armResult(spec.Target, st, s.ISS), nil
	case "sscalar":
		s, err := sscalar.New(armProg, sscalar.Config{Hier: spec.hier()})
		if err != nil {
			return Result{}, err
		}
		if opts.Trace != nil {
			s.ISS.Trace = armTrace
		}
		if opts.Out != nil {
			s.ISS.Out = opts.Out
		}
		st, err := s.Run(spec.maxCycles())
		if err != nil {
			return Result{}, err
		}
		return Result{
			Target: spec.Target, Arch: "arm",
			Cycles: st.Cycles, Instrs: st.Instrs, Reported: s.ISS.Reported,
			Extra: map[string]string{"CPI": fmt.Sprintf("%.3f", st.CPI())},
		}, nil
	case "ppc750":
		eng, _ := osm.ParseEngine(spec.Engine)
		s, err := ppc750.New(ppcProg, ppc750.Config{Hier: spec.hier(), Engine: eng})
		if err != nil {
			return Result{}, err
		}
		if spec.Check {
			invariant.Attach(s.Director())
		}
		if opts.Trace != nil {
			s.ISS.Trace = ppcTrace
		}
		if opts.Out != nil {
			s.ISS.Out = opts.Out
		}
		st, err := s.Run(spec.maxCycles())
		if err != nil {
			return Result{}, err
		}
		return ppcResult(spec.Target, st, s.ISS), nil
	case "hwcentric":
		s, err := hwcentric.New(ppcProg, hwcentric.Config{Hier: spec.hier()})
		if err != nil {
			return Result{}, err
		}
		if opts.Trace != nil {
			s.ISS.Trace = ppcTrace
		}
		if opts.Out != nil {
			s.ISS.Out = opts.Out
		}
		st, err := s.Run(spec.maxCycles())
		if err != nil {
			return Result{}, err
		}
		return Result{
			Target: spec.Target, Arch: "ppc",
			Cycles: st.Cycles, Instrs: st.Instrs, Reported: s.ISS.Reported,
			Extra: map[string]string{
				"CPI":   fmt.Sprintf("%.3f", st.CPI()),
				"wires": fmt.Sprint(st.Wires),
				"evals": fmt.Sprint(st.ModuleEvals),
			},
		}, nil
	case "arm-iss":
		s, err := iss.NewARM(armProg, 1024)
		if err != nil {
			return Result{}, err
		}
		if opts.Trace != nil {
			s.Trace = armTrace
		}
		if opts.Out != nil {
			s.Out = opts.Out
		}
		if err := s.Run(spec.maxCycles()); err != nil {
			return Result{}, err
		}
		return Result{Target: spec.Target, Arch: "arm", Instrs: s.Stats.Instrs, Reported: s.Reported}, nil
	case "ppc-iss":
		s, err := iss.NewPPC(ppcProg, 1024)
		if err != nil {
			return Result{}, err
		}
		if opts.Trace != nil {
			s.Trace = ppcTrace
		}
		if opts.Out != nil {
			s.Out = opts.Out
		}
		if err := s.Run(spec.maxCycles()); err != nil {
			return Result{}, err
		}
		return Result{Target: spec.Target, Arch: "ppc", Instrs: s.Stats.Instrs, Reported: s.Reported}, nil
	default:
		return Result{}, fmt.Errorf("unknown target %q", spec.Target)
	}
}
