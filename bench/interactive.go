package main

import (
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// fabric-interactive is a single-stepping debugger load: a closed loop
// of two clients, each owning four sessions that never finish, sends
// one-cycle steps and state peeks through the gateway. A request costs
// tens of microseconds of protocol, scheduling and proxying around
// about one microsecond of simulation, so this workload exercises the
// wire and HTTP planes, the server's run queue and the gateway hop
// while bypassing the simulator layers. Steps go through the run
// queue; peeks bypass it.

const (
	numClients        = 2
	sessionsPerClient = 4
	// neverDone is an iteration count no interactive session reaches.
	neverDone = 1_000_000
	// directEvery sends every tenth request straight to the owning
	// worker, so the gateway hop is the difference of two medians.
	directEvery = 10
	// helloEvery replaces every fiftieth request with a wire Hello to
	// the owning worker: the bare wire round trip.
	helloEvery = 50
	peekBytes  = 256
)

// Request classes, named plane.op.route; each is one span name.
const (
	clsWireStepGate   = "wire.step.gate"
	clsWireStepDirect = "wire.step.direct"
	clsWireRegsGate   = "wire.regs.gate"
	clsWireRegsDirect = "wire.regs.direct"
	clsWireMemGate    = "wire.mem.gate"
	clsWireMemDirect  = "wire.mem.direct"
	clsHTTPStepGate   = "http.step.gate"
	clsHTTPStepDirect = "http.step.direct"
	clsHello          = "wire.hello.direct"
)

// counts are client-side tallies, reconciled with /metrics.
type counts struct {
	creates, ops                               uint64
	wireGate, wireDirect, httpGate, httpDirect uint64
	steps, cycles                              uint64
}

func (c *counts) add(o counts) {
	c.creates += o.creates
	c.ops += o.ops
	c.wireGate += o.wireGate
	c.wireDirect += o.wireDirect
	c.httpGate += o.httpGate
	c.httpDirect += o.httpDirect
	c.steps += o.steps
	c.cycles += o.cycles
}

type isession struct {
	id, worker string
	spec       runner.Spec
	cycle      uint64
	nregs      int
}

type iclient struct {
	*client
	idx      int
	rng      *rand.Rand
	sessions []*isession
	n        counts
	lat      map[string][]float64
	rep      *report
}

type interactiveBench struct {
	cfg     config
	f       *fabric
	clients []*iclient
	total   counts
	quanta  float64
	proxied float64
}

func setupInteractive(cfg config) (bench, error) {
	f, err := startFabric(server.Config{}, "")
	if err != nil {
		return nil, err
	}
	b := &interactiveBench{cfg: cfg, f: f}
	rng := rand.New(rand.NewPCG(cfg.seed, 3))
	mix := workload.Mix()
	for ci := 0; ci < numClients; ci++ {
		c, err := f.newClient()
		if err != nil {
			b.close()
			return nil, err
		}
		ic := &iclient{client: c, idx: ci, rng: rand.New(rand.NewPCG(cfg.seed, uint64(10+ci)))}
		b.clients = append(b.clients, ic)
		// Half of each client's sessions run each model, so the
		// target mix of the request stream is the same for every seed.
		for k := 0; k < sessionsPerClient; k++ {
			spec := runner.Spec{Target: "strongarm", Workload: mix[rng.IntN(len(mix))].Name, N: neverDone}
			if k%2 == 1 {
				spec.Target = "ppc750"
			}
			inst, err := runner.New(spec)
			if err != nil {
				b.close()
				return nil, err
			}
			id, wk, err := c.create(spec)
			if err != nil {
				b.close()
				return nil, err
			}
			ic.n.creates++
			ic.sessions = append(ic.sessions, &isession{id: id, worker: wk, spec: spec, nregs: len(inst.Registers())})
		}
	}
	for _, c := range b.clients {
		b.total.add(c.n)
		c.n = counts{}
	}
	return b, nil
}

func (b *interactiveBench) fingerprint() string {
	var specs []string
	for _, c := range b.clients {
		for _, s := range c.sessions {
			specs = append(specs, s.spec.Target+" "+s.spec.Workload)
		}
	}
	return strings.Join(specs, ",")
}

func (b *interactiveBench) close() {
	for _, c := range b.clients {
		c.close()
	}
	b.f.close()
}

func (b *interactiveBench) heapMB(r *report) float64 {
	for _, c := range b.clients {
		for _, s := range c.sessions {
			r.op(c.delete(s.id), "delete "+s.id)
		}
		c.sessions = nil
	}
	return liveHeapMB()
}

func (b *interactiveBench) run(d time.Duration, tr *Tracer, r *report) pass {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range b.clients {
		c.lat = make(map[string][]float64)
		c.rep = newReport()
		wg.Add(1)
		go func(c *iclient) {
			defer wg.Done()
			c.loop(deadline, tr)
		}(c)
	}
	wg.Wait()
	el := time.Since(start).Seconds()

	var n counts
	lat := make(map[string][]float64)
	for _, c := range b.clients {
		r.merge(c.rep)
		n.add(c.n)
		c.n = counts{}
		for k, v := range c.lat {
			lat[k] = append(lat[k], v...)
		}
		c.lat = nil
	}
	b.total.add(n)
	b.reconcile(r)
	var classes []string
	for _, k := range []string{clsWireStepGate, clsWireRegsGate, clsWireMemGate, clsHTTPStepGate} {
		classes = append(classes, k+" "+Describe(lat[k]))
	}
	return pass{
		cyclesPerSec: float64(n.cycles) / el,
		opsPerSec:    float64(n.ops) / el,
		n:            int(n.ops),
		stepsUS:      lat[clsWireStepGate],
		samples:      strings.Join(classes, ", "),
	}
}

// loop is one closed-loop client: the next request goes out when the
// previous one has completed.
func (c *iclient) loop(deadline time.Time, tr *Tracer) {
	for i := 1; time.Now().Before(deadline); i++ {
		s := c.sessions[c.rng.IntN(len(c.sessions))]
		x := c.rng.Float64()
		direct := i%directEvery == 0
		req := uint64(c.idx+1)<<40 | uint64(i)
		switch {
		case i%helloEvery == 0:
			c.timed(tr, clsHello, req, func() (uint64, error) {
				c.n.wireDirect++
				resp, err := c.direct[s.worker].Hello("bench")
				if err == nil {
					c.rep.check(resp.Server == "osmserve", "hello answered by %q", resp.Server)
				}
				return 0, err
			})
		case x < 0.60:
			c.timed(tr, pick(direct, clsWireStepDirect, clsWireStepGate), req, func() (uint64, error) {
				c.countWire(direct)
				resp, err := c.wireFor(s, direct).Step(s.id, 1, 0)
				if err != nil {
					return 0, err
				}
				c.stepped(s, resp.Stepped, resp.Cycle)
				return resp.Stepped, nil
			})
		case x < 0.85:
			c.timed(tr, pick(direct, clsWireRegsDirect, clsWireRegsGate), req, func() (uint64, error) {
				c.countWire(direct)
				resp, err := c.wireFor(s, direct).Registers(s.id)
				if err == nil {
					c.rep.check(resp.Cycle == s.cycle && len(resp.Regs) == s.nregs,
						"%s registers: cycle %d (%d regs), want %d (%d)", s.id, resp.Cycle, len(resp.Regs), s.cycle, s.nregs)
				}
				return 0, err
			})
		case x < 0.90:
			addr := uint32(c.rng.IntN((1<<20-peekBytes)/4)) * 4
			c.timed(tr, pick(direct, clsWireMemDirect, clsWireMemGate), req, func() (uint64, error) {
				c.countWire(direct)
				resp, err := c.wireFor(s, direct).ReadMem(s.id, addr, peekBytes)
				if err == nil {
					c.rep.check(resp.Addr == addr && len(resp.Data) == peekBytes,
						"%s mem: %d bytes at %#x, want %d at %#x", s.id, len(resp.Data), resp.Addr, peekBytes, addr)
				}
				return uint64(len(resp.Data)), err
			})
		default:
			c.timed(tr, pick(direct, clsHTTPStepDirect, clsHTTPStepGate), req, func() (uint64, error) {
				base := c.f.gwURL
				if direct {
					base = c.f.worker(s.worker).url
					c.n.httpDirect++
				} else {
					c.n.httpGate++
				}
				res, err := c.httpStep(base, s.id, 1)
				if err != nil {
					return 0, err
				}
				c.stepped(s, res.Stepped, res.Cycle)
				return res.Stepped, nil
			})
		}
	}
}

func pick(direct bool, d, g string) string {
	if direct {
		return d
	}
	return g
}

func (c *iclient) wireFor(s *isession, direct bool) *wire.Client {
	if direct {
		return c.direct[s.worker]
	}
	return c.gw
}

func (c *iclient) countWire(direct bool) {
	if direct {
		c.n.wireDirect++
	} else {
		c.n.wireGate++
	}
}

// stepped checks a one-cycle step: the session is this client's
// alone, so it must land exactly one cycle further.
func (c *iclient) stepped(s *isession, n, cycle uint64) {
	c.n.steps++
	c.n.cycles += n
	c.rep.check(n == 1 && cycle == s.cycle+1, "%s step: %d cycles to %d, want 1 to %d", s.id, n, cycle, s.cycle+1)
	s.cycle = cycle
}

// timed runs one request, recording its latency under class and, when
// traced, a span.
func (c *iclient) timed(tr *Tracer, class string, req uint64, fn func() (uint64, error)) {
	id := tr.Begin(class, 0, req)
	t0 := time.Now()
	work, err := fn()
	lat := time.Since(t0)
	tr.End(id, work)
	c.n.ops++
	if c.rep.op(err, class) {
		c.lat[class] = append(c.lat[class], float64(lat.Nanoseconds())/1e3)
	}
}

// reconcile checks that the workers' and the gateway's counters agree
// exactly with what the clients did.
func (b *interactiveBench) reconcile(r *report) {
	c := b.clients[0]
	w, err := c.workerTotals("osmserve_step_requests_total", "osmserve_cycles_simulated_total",
		"osmserve_step_quanta_total", "osmserve_wire_requests_total",
		"osmserve_steps_rejected_total", "osmserve_wire_nacks_total")
	if !r.op(err, "scraping worker metrics") {
		return
	}
	g, err := c.scrape(b.f.gwURL)
	if !r.op(err, "scraping gateway metrics") {
		return
	}
	t := b.total
	eq := func(what string, got float64, want uint64) {
		r.check(got == float64(want), "%s: /metrics says %v, clients counted %d", what, got, want)
	}
	eq("worker step requests", w["osmserve_step_requests_total"], t.steps)
	eq("worker cycles simulated", w["osmserve_cycles_simulated_total"], t.cycles)
	eq("worker step quanta", w["osmserve_step_quanta_total"], t.steps)
	eq("worker wire requests", w["osmserve_wire_requests_total"], t.wireGate+t.wireDirect)
	eq("worker steps rejected", w["osmserve_steps_rejected_total"], 0)
	eq("worker wire nacks", w["osmserve_wire_nacks_total"], 0)
	eq("gateway wire proxied", g[`osmgate_proxied_requests_total{plane="wire"}`], t.wireGate)
	eq("gateway http proxied", g[`osmgate_proxied_requests_total{plane="http"}`], t.creates+t.httpGate)
	eq("gateway http backpressure", g[`osmgate_backpressure_total{plane="http"}`], 0)
	eq("gateway wire backpressure", g[`osmgate_backpressure_total{plane="wire"}`], 0)
	eq("gateway proxy errors", g["osmgate_proxy_errors_total"], 0)
	b.quanta = w["osmserve_step_quanta_total"]
	b.proxied = g[`osmgate_proxied_requests_total{plane="wire"}`] + g[`osmgate_proxied_requests_total{plane="http"}`]
}

// schedProbeSeconds is the in-process scheduler probe's length.
const schedProbeSeconds = 1.0

func (b *interactiveBench) layers(tr *Tracer, r *report) {
	schedProbe(tr, r, time.Duration(schedProbeSeconds*b.cfg.scale*float64(time.Second)))
	ls := tr.Layers()
	med := func(name string) (float64, int) { l := ls.Get(name); return l.MedianUS(), l.N() }
	set := func(metric, class string) float64 {
		v, n := med(class)
		r.set(metric, "us", v, n)
		return v
	}
	echo := set("wire.echo_us", clsHello)
	stepDirect := set("wire.step_direct_us", clsWireStepDirect)
	set("wire.peek_direct_us", clsWireRegsDirect)
	httpDirect := set("http.step_direct_us", clsHTTPStepDirect)
	httpGate := set("http.step_gate_us", clsHTTPStepGate)
	set("peek_p50_us", clsWireRegsGate)
	r.percentile("peek_p99_us", "us", ls.Get(clsWireRegsGate).Durs, 99, 1e3)
	r.percentile("step_p99_us", "us", ls.Get(clsWireStepGate).Durs, 99, 1e3)
	sched := set("sched.step_us", "sched.step")
	bulk := ls.Get("sched.bulk")
	r.set("server.bulk_cycles_per_s", "1/s", bulk.PerSec(), bulk.N())

	stepGate, n := med(clsWireStepGate)
	hop := stepGate - stepDirect
	r.set("gate.hop_wire_us", "us", hop, n)
	r.set("gate.hop_http_us", "us", httpGate-httpDirect, ls.Get(clsHTTPStepGate).N())
	// The layer numbers that should add up to a gateway wire step:
	// the bare wire round trip, the scheduler's submit→complete and
	// the gateway hop.
	r.set("recon.step_pct", "%", 100*(echo+sched+hop)/stepGate, n)
	r.set("server.step_quanta", "count", b.quanta, 1)
	r.set("gate.proxied_total", "count", b.proxied, 1)
}
