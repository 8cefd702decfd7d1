package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"repro/internal/de"
	"repro/internal/mem"
	"repro/internal/osm"
	"repro/internal/runner"
	"repro/internal/sim/ppc750"
	"repro/internal/sim/strongarm"
	"repro/internal/workload"
)

// sa-mix and ppc-mix run whole passes over the nine-kernel mix on one
// OSM model with the default engine, through the path osmsim takes:
// runner.New, StepCycle until Done, Finalize. The StrongARM pipeline
// spends its host time in ISS execution and the cache model; the
// out-of-order PPC-750 spends it in guard evaluation in the director.
// One workload per model lets a change to either side show on one and
// not the other.

const (
	// stepQuantum is the bulk step of the fabric workloads, the
	// server's scheduling quantum.
	stepQuantum = 4096
	// mixQuantum is the slice of StepCycle calls the mix workloads
	// time. A pass over the mix is 0.25–0.45M cycles, so this gives the
	// hundred-plus quanta a p90 needs.
	mixQuantum = 1024
)

// scaledQuantum shrinks a step size for the smoke test.
func scaledQuantum(q uint64, cfg config) uint64 {
	return uint64(max(64, math.Round(float64(q)*cfg.scale)))
}

type modelBench struct {
	cfg     config
	target  string
	prefix  string
	specs   []runner.Spec
	refs    []reference
	quantum uint64

	// Traced-pass observations, fixed by the inputs: cache hits and
	// accesses over one mix pass (checked equal across passes) and
	// director transitions per simulated cycle.
	ic, dc      mem.CacheStats
	transitions uint64
	cycles      uint64
}

// reference is a run's outcome computed in-process at setup, the
// yardstick every later run of the same spec is checked against.
type reference struct {
	cycles, instrs  uint64
	reported        []uint32
	regs            []runner.Reg
	checksum, total uint64
}

// referenceRun runs spec to completion in-process with a trace
// recorder, and checks the reported value against the workload's Go
// reference.
func referenceRun(spec runner.Spec) (reference, error) {
	inst, err := runner.New(spec)
	if err != nil {
		return reference{}, err
	}
	rec := osm.NewRecorder()
	rec.Limit = 1
	inst.Director().Tracer = rec
	limit := inst.MaxCycles()
	for !inst.Done() {
		if inst.Cycle() >= limit {
			return reference{}, fmt.Errorf("%s %s: not done within %d cycles", spec.Target, spec.Workload, limit)
		}
		if err := inst.StepCycle(); err != nil {
			return reference{}, err
		}
	}
	res, err := inst.Finalize()
	if err != nil {
		return reference{}, err
	}
	if !reportOK(spec, res.Reported) {
		return reference{}, fmt.Errorf("%s %s n=%d: reported %x, want the workload reference", spec.Target, spec.Workload, spec.N, res.Reported)
	}
	return reference{
		cycles: res.Cycles, instrs: res.Instrs, reported: res.Reported,
		regs: inst.Registers(), checksum: rec.Checksum(), total: rec.Total(),
	}, nil
}

// reportOK checks a run's reported values against the workload's Go
// reference implementation.
func reportOK(spec runner.Spec, reported []uint32) bool {
	w := workload.ByName(spec.Workload)
	return w != nil && len(reported) == 1 && reported[0] == w.Ref(spec.N)
}

func setupModel(cfg config, target string) (bench, error) {
	prefix := "sa."
	if target == "ppc750" {
		prefix = "ppc."
	}
	b := &modelBench{cfg: cfg, target: target, prefix: prefix, quantum: scaledQuantum(mixQuantum, cfg)}
	// One N factor for the whole mix keeps every kernel's share of a
	// pass the same across seeds; the seed also sets the kernel order.
	rng := rand.New(rand.NewPCG(cfg.seed, 1))
	f := 0.9 + 0.2*rng.Float64()
	mix := workload.Mix()
	for _, i := range rng.Perm(len(mix)) {
		w := mix[i]
		n := max(1, int(math.Round(float64(w.DefaultN)*f*cfg.scale)))
		spec := runner.Spec{Target: target, Workload: w.Name, N: n}
		ref, err := referenceRun(spec)
		if err != nil {
			return nil, err
		}
		b.specs = append(b.specs, spec)
		b.refs = append(b.refs, ref)
	}
	return b, nil
}

func (b *modelBench) fingerprint() string {
	h := fnv.New64a()
	for i, ref := range b.refs {
		fmt.Fprintf(h, "%s %d %d %d %x;", b.specs[i].Workload, ref.cycles, ref.instrs, ref.checksum, ref.reported)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (b *modelBench) close() {}

// heapMB runs one more pass over the mix, untimed and checked, and
// measures the live heap with its nine finished models resident. The
// timed passes keep no model past its run, as osmsim does: finished
// models kept resident would make every later kernel of a pass pay
// for marking them, a cost that depends on the seeded kernel order.
func (b *modelBench) heapMB(r *report) float64 {
	var resident []*runner.Instance
	for i, sp := range b.specs {
		inst, res, _, err := b.runKernel(sp)
		if !r.op(err, sp.Target+" "+sp.Workload) {
			continue
		}
		b.checkRun(i, res.Cycles, res.Instrs, res.Reported, r)
		resident = append(resident, inst)
	}
	mb := liveHeapMB()
	runtime.KeepAlive(resident)
	return mb
}

// liveHeapMB forces a collection and returns the live heap in MB. The
// second collection frees what sync.Pool victim caches kept through
// the first, which would otherwise count or not by the timing of the
// last requests.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// checkRun compares one kernel run with its reference: the cycle and
// instruction counts must repeat exactly and the reported value must
// be the workload's.
func (b *modelBench) checkRun(i int, cycles, instrs uint64, reported []uint32, r *report) {
	ref := b.refs[i]
	sp := b.specs[i]
	r.check(cycles == ref.cycles && instrs == ref.instrs,
		"%s %s: %d cycles %d instrs, reference %d/%d", sp.Target, sp.Workload, cycles, instrs, ref.cycles, ref.instrs)
	r.check(reportOK(sp, reported), "%s %s: reported %x", sp.Target, sp.Workload, reported)
}

// run repeats whole passes over the mix until d has passed. Every pass
// simulates exactly the same work, so each kernel run and each quantum
// of cycles is timed once per pass and keeps its best time: other
// tenants of a shared host slow single passes by up to a half, and
// the best of a run's passes is what repeats from run to run. The
// throughputs are the mix's cycles and instructions over the sum of
// the kernels' best times; the step latencies are the percentiles of
// the quanta's best times.
func (b *modelBench) run(d time.Duration, tr *Tracer, r *report) pass {
	if tr != nil {
		return b.tracedRun(d, tr, r)
	}
	best := make([]time.Duration, len(b.specs))
	bestQ := make([][]float64, len(b.specs))
	var passes int
	for deadline := time.Now().Add(d); passes == 0 || time.Now().Before(deadline); passes++ {
		for i, sp := range b.specs {
			t0 := time.Now()
			_, res, quanta, err := b.runKernel(sp)
			el := time.Since(t0)
			if !r.op(err, sp.Target+" "+sp.Workload) {
				continue
			}
			b.checkRun(i, res.Cycles, res.Instrs, res.Reported, r)
			if best[i] == 0 || el < best[i] {
				best[i] = el
			}
			if bestQ[i] == nil {
				bestQ[i] = quanta
			}
			for j, q := range quanta {
				bestQ[i][j] = min(bestQ[i][j], q)
			}
		}
	}
	var cycles, instrs uint64
	var total time.Duration
	var steps []float64
	for i, ref := range b.refs {
		cycles += ref.cycles
		instrs += ref.instrs
		total += best[i]
		steps = append(steps, bestQ[i]...)
	}
	return pass{
		cyclesPerSec: float64(cycles) / total.Seconds(),
		opsPerSec:    float64(instrs) / total.Seconds(),
		n:            passes,
		stepsUS:      steps,
		samples:      fmt.Sprintf("best of %d passes; %d-cycle quanta (us) %s", passes, b.quantum, Describe(steps)),
	}
}

// runKernel runs one spec to completion through runner.New and
// returns the time of every full quantum of StepCycle calls, in
// microseconds. The cycle count is fixed by the spec, so every run
// returns the same number of quanta.
func (b *modelBench) runKernel(sp runner.Spec) (*runner.Instance, runner.Result, []float64, error) {
	inst, err := runner.New(sp)
	if err != nil {
		return nil, runner.Result{}, nil, err
	}
	limit := inst.MaxCycles()
	var quanta []float64
	var inQuantum uint64
	t := time.Now()
	for !inst.Done() {
		if inst.Cycle() >= limit {
			return nil, runner.Result{}, nil, fmt.Errorf("not done within %d cycles", limit)
		}
		if err := inst.StepCycle(); err != nil {
			return nil, runner.Result{}, nil, err
		}
		if inQuantum++; inQuantum == b.quantum {
			now := time.Now()
			quanta = append(quanta, float64(now.Sub(t).Nanoseconds())/1e3)
			t, inQuantum = now, 0
		}
	}
	res, err := inst.Finalize()
	return inst, res, quanta, err
}

// model is the part of a directly built simulator the traced pass
// drives: runner.Instance does not expose the DE kernel, whose OnEdge
// hook is where the director's control step is timed.
type model struct {
	kernel   *de.Kernel
	director *osm.Director
	done     func() bool
	finalize func() (cycles, instrs uint64, ic, dc mem.CacheStats, reported []uint32, err error)
}

// newModel builds the spec's simulator the way runner.New does, with
// the default memory hierarchy and engine.
func newModel(sp runner.Spec) (*model, error) {
	armProg, ppcProg, err := sp.Programs()
	if err != nil {
		return nil, err
	}
	if sp.Target == "strongarm" {
		s, err := strongarm.New(armProg, strongarm.Config{})
		if err != nil {
			return nil, err
		}
		return &model{kernel: s.Kernel, director: s.Director(), done: s.Done,
			finalize: func() (uint64, uint64, mem.CacheStats, mem.CacheStats, []uint32, error) {
				st, err := s.Finalize()
				return st.Cycles, st.Instrs, st.ICache, st.DCache, s.ISS.Reported, err
			}}, nil
	}
	s, err := ppc750.New(ppcProg, ppc750.Config{})
	if err != nil {
		return nil, err
	}
	return &model{kernel: s.Kernel, director: s.Director(), done: s.Done,
		finalize: func() (uint64, uint64, mem.CacheStats, mem.CacheStats, []uint32, error) {
			st, err := s.Finalize()
			return st.Cycles, st.Instrs, st.ICache, st.DCache, s.ISS.Reported, err
		}}, nil
}

// tracedRun is the traced pass: per kernel, a runner.New span (the
// construction cost every pass pays), then a kernel.run span over a
// directly built model, with one de.quantum span per quantum of
// cycles. Its cycle rate uses the timed pass's estimator, the best
// kernel runs over the sum of their times, so the two compare as the
// tracing overhead; the extra runner.New is left out of it.
func (b *modelBench) tracedRun(d time.Duration, tr *Tracer, r *report) pass {
	best := make([]time.Duration, len(b.specs))
	var passes int
	for deadline := time.Now().Add(d); passes == 0 || time.Now().Before(deadline); passes++ {
		var cycles, trans uint64
		var ic, dc mem.CacheStats
		for i, sp := range b.specs {
			req := uint64(passes*len(b.specs) + i + 1)
			id := tr.Begin("runner.new", 0, req)
			_, err := runner.New(sp)
			tr.End(id, 0)
			if !r.op(err, "runner.New") {
				continue
			}
			t0 := time.Now()
			res, err := b.tracedKernel(sp, tr, req)
			el := time.Since(t0)
			if !r.op(err, sp.Target+" "+sp.Workload+" (traced)") {
				continue
			}
			b.checkRun(i, res.cycles, res.instrs, res.reported, r)
			if best[i] == 0 || el < best[i] {
				best[i] = el
			}
			cycles += res.cycles
			trans += res.transitions
			ic = addCache(ic, res.ic)
			dc = addCache(dc, res.dc)
		}
		if passes == 0 {
			b.ic, b.dc, b.transitions, b.cycles = ic, dc, trans, cycles
		} else {
			r.check(ic == b.ic && dc == b.dc && trans == b.transitions,
				"%s: cache statistics or transition count differ between traced passes", b.target)
		}
	}
	var cycles uint64
	var total time.Duration
	for i, ref := range b.refs {
		cycles += ref.cycles
		total += best[i]
	}
	return pass{cyclesPerSec: float64(cycles) / total.Seconds(), samples: fmt.Sprintf("best of %d traced passes", passes)}
}

func addCache(a, b mem.CacheStats) mem.CacheStats {
	return mem.CacheStats{
		Accesses: a.Accesses + b.Accesses, Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses,
		Evictions: a.Evictions + b.Evictions, Writebacks: a.Writebacks + b.Writebacks,
	}
}

type tracedResult struct {
	cycles, instrs, transitions uint64
	ic, dc                      mem.CacheStats
	reported                    []uint32
}

// tracedKernel runs one spec on a directly built model. A span per
// cycle would cost more than the cycle, so cycles are grouped: each
// de.quantum span covers one quantum of StepCycle calls, and its
// osm.step child is an aggregate span whose duration is the summed
// time of that quantum's OnEdge calls (the director's control steps),
// laid from the quantum's start. The quantum's self time is then the
// DE kernel's share, plus the clock reads that time OnEdge.
func (b *modelBench) tracedKernel(sp runner.Spec, tr *Tracer, req uint64) (tracedResult, error) {
	var res tracedResult
	run := tr.Begin("kernel.run", 0, req)
	m, err := newModel(sp)
	if err != nil {
		return res, err
	}
	m.director.Tracer = osm.TracerFunc(func(uint64, *osm.Machine, *osm.Edge) { res.transitions++ })
	onEdge := m.kernel.OnEdge
	var edge time.Duration
	m.kernel.OnEdge = func(c uint64) error {
		t0 := time.Now()
		err := onEdge(c)
		edge += time.Since(t0)
		return err
	}
	const limit = 1_000_000_000
	var q int
	var inQuantum uint64
	closeQuantum := func() {
		tr.End(q, inQuantum)
		tr.Child(q, "osm.step", edge, inQuantum)
		q, inQuantum, edge = 0, 0, 0
	}
	for !m.done() {
		if m.kernel.Cycle() >= limit {
			return res, fmt.Errorf("not done within %d cycles", limit)
		}
		if q == 0 {
			q = tr.Begin("de.quantum", run, req)
		}
		if err := m.kernel.StepCycle(); err != nil {
			return res, err
		}
		if inQuantum++; inQuantum == b.quantum {
			closeQuantum()
		}
	}
	if q != 0 {
		closeQuantum()
	}
	res.cycles, res.instrs, res.ic, res.dc, res.reported, err = m.finalize()
	tr.End(run, res.cycles)
	return res, err
}

// probeSpecs are the programs of the layer probes: the mix itself, or
// a quarter of each kernel in a companion pass.
func (b *modelBench) probeSpecs() []runner.Spec {
	if !b.cfg.short {
		return b.specs
	}
	out := make([]runner.Spec, len(b.specs))
	for i, sp := range b.specs {
		sp.N = max(1, sp.N/4)
		out[i] = sp
	}
	return out
}

// variant is one way of running the probe programs through
// runner.Run: a span name, an edit of the spec, and the work its spans
// count.
type variant struct {
	name  string
	edit  func(*runner.Spec)
	count func(runner.Result) uint64
}

// probe runs every spec once per variant, rounds times. The variants
// are interleaved, in alternating order from spec to spec, so drift in
// the host's speed spreads evenly over them. A span's request id is
// its spec's index, so bestOf can keep each spec's fastest run.
func (b *modelBench) probe(tr *Tracer, r *report, rounds int, vs ...variant) {
	specs := b.probeSpecs()
	for round := 0; round < rounds; round++ {
		for i, base := range specs {
			for j := range vs {
				v := vs[j]
				if i%2 == 1 {
					v = vs[len(vs)-1-j]
				}
				sp := base
				v.edit(&sp)
				id := tr.Begin(v.name, 0, uint64(i+1))
				res, err := runner.Run(sp, runner.RunOptions{})
				if !r.op(err, v.name+" "+sp.Workload) {
					continue
				}
				tr.End(id, v.count(res))
				r.check(reportOK(sp, res.Reported), "%s %s: reported %x", v.name, sp.Workload, res.Reported)
			}
		}
	}
}

// best is a probe variant's best-of-rounds total: the fastest run of
// each spec, summed, with the work those runs counted.
type best struct {
	ns    int64
	work  uint64
	specs int
}

func (b best) perSec() float64 { return float64(b.work) / (float64(b.ns) / 1e9) }

// bestOf returns the best-of-rounds totals of the named probe variants.
func bestOf(spans []Span, names ...string) map[string]best {
	type key struct {
		name string
		req  uint64
	}
	fastest := make(map[key]Span)
	for _, s := range spans {
		k := key{s.Name, s.Req}
		if s.End == 0 || !slices.Contains(names, s.Name) {
			continue
		}
		if f, ok := fastest[k]; !ok || s.Dur() < f.Dur() {
			fastest[k] = s
		}
	}
	out := make(map[string]best, len(names))
	for k, s := range fastest {
		b := out[k.name]
		b.ns += s.Dur()
		b.work += s.Count
		b.specs++
		out[k.name] = b
	}
	return out
}

var engines = []string{"scan", "event", "compiled", "generated"}

// layers runs the model probes (functional ISS, perfect memory, each
// engine) and derives the model's per-layer metrics. The ISS and
// memory shares of a cycle are measured by whole-run differences,
// because neither layer is reachable from outside the director's
// control step.
func (b *modelBench) layers(tr *Tracer, r *report) {
	instrs := func(res runner.Result) uint64 { return res.Instrs }
	cycles := func(res runner.Result) uint64 { return res.Cycles }
	iss := "ppc-iss"
	if b.target == "strongarm" {
		iss = "arm-iss"
	}
	vs := []variant{
		{"iss.run", func(sp *runner.Spec) { sp.Target = iss }, instrs},
		{"mem.cached", func(*runner.Spec) {}, instrs},
		{"mem.perfect", func(sp *runner.Spec) { sp.Perfect = true }, instrs},
	}
	for _, e := range engines {
		vs = append(vs, variant{"engine." + e, func(sp *runner.Spec) { sp.Engine = e }, cycles})
	}
	rounds := 3
	if b.cfg.short {
		rounds = 2
	}
	b.probe(tr, r, rounds, vs...)
	var names []string
	for _, v := range vs {
		names = append(names, v.name)
	}
	probes := bestOf(tr.Spans(), names...)

	get := tr.Layers().Get
	set := func(name, unit string, v float64, n int) { r.set(b.prefix+name, unit, v, n) }

	var refCycles, refInstrs uint64
	for _, ref := range b.refs {
		refCycles += ref.cycles
		refInstrs += ref.instrs
	}
	set("runner.new_ms", "ms", Median(get("runner.new").Durs)/1e6, get("runner.new").N())
	set("sim.cycles", "count", float64(refCycles), len(b.refs))
	set("sim.instrs", "count", float64(refInstrs), len(b.refs))
	set("mem.icache.hit_rate", "%", 100*float64(b.ic.Hits)/float64(b.ic.Accesses), int(b.ic.Accesses))
	set("mem.dcache.hit_rate", "%", 100*float64(b.dc.Hits)/float64(b.dc.Accesses), int(b.dc.Accesses))

	issRun := probes["iss.run"]
	set("iss.instrs_per_s", "1/s", issRun.perSec(), issRun.specs)
	// The memory hierarchy's share: the time perfect memory saves, per
	// instruction. It includes the stall cycles perfect memory removes.
	cached, perfect := probes["mem.cached"], probes["mem.perfect"]
	memNS := float64(cached.ns-perfect.ns) / float64(cached.work)
	set("mem.ns_per_instr", "ns", memNS, cached.specs)

	step, quantum := get("osm.step"), get("de.quantum")
	osmNS := float64(step.Total) / float64(step.Count)
	set("osm.step_ns_per_cycle", "ns", osmNS, int(step.Count))
	set("de.ns_per_cycle", "ns", float64(quantum.Self)/float64(quantum.Count), int(quantum.Count))
	set("osm.transitions_per_cycle", "count", float64(b.transitions)/float64(b.cycles), int(b.cycles))
	// Derived residual: the control step minus the ISS and memory
	// estimates, spread over the cycle by instructions per cycle.
	ipc := float64(refInstrs) / float64(refCycles)
	set("osm.sched_ns_per_cycle", "ns", osmNS-(1e9/issRun.perSec()+memNS)*ipc, int(step.Count))
	for _, e := range engines {
		p := probes["engine."+e]
		set("osm.engine."+e+".cycles_per_s", "1/s", p.perSec(), p.specs)
	}
	run := get("kernel.run")
	set("recon.sim_pct", "%", 100*float64(quantum.Total)/float64(run.Total), run.N())
}
