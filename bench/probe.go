package main

import (
	"time"

	"repro/internal/runner"
	"repro/internal/server"
)

// The server-layer probes drive an in-process server.Manager with no
// transport in front of it, so a layer's own cost can be told apart
// from the wire, HTTP and gateway hops measured by the fabric passes.

// probeSpec is a StrongARM session that never finishes within a
// probe.
var probeSpec = runner.Spec{Target: "strongarm", Workload: "gsm/dec", N: 1_000_000}

// traceLimit is the server's default trace retention, given to the
// sessions the probes create in-process.
const traceLimit = 4096

// schedProbe times Manager.Step: one-cycle steps (scheduler
// submit→complete with a trivial quantum) for half of d, then
// full-quantum bulk steps.
func schedProbe(tr *Tracer, r *report, d time.Duration) {
	mgr := server.NewManager(server.Config{Workers: 1})
	defer mgr.Close()
	s, err := mgr.Create(probeSpec, traceLimit)
	if !r.op(err, "sched probe create") {
		return
	}
	for _, p := range []struct {
		name   string
		cycles uint64
	}{{"sched.step", 1}, {"sched.bulk", stepQuantum}} {
		end := time.Now().Add(d / 2)
		for time.Now().Before(end) {
			id := tr.Begin(p.name, 0, 0)
			res, err := mgr.Step(s, p.cycles, 0)
			tr.End(id, res.Stepped)
			if r.op(err, p.name) {
				r.check(res.Stepped == p.cycles, "%s stepped %d cycles, want %d", p.name, res.Stepped, p.cycles)
			}
		}
	}
}

// snapProbe times Manager.Snapshot of a session partway through its
// run and Manager.Restore of that snapshot into a fresh session, k
// times each, and checks every restore lands on the snapshot's cycle.
func snapProbe(tr *Tracer, r *report, k int) {
	mgr := server.NewManager(server.Config{Workers: 1})
	defer mgr.Close()
	s, err := mgr.Create(probeSpec, traceLimit)
	if !r.op(err, "snap probe create") {
		return
	}
	if _, err := mgr.Step(s, 5*stepQuantum, 0); !r.op(err, "snap probe step") {
		return
	}
	for i := 0; i < k; i++ {
		id := tr.Begin("snap.encode", 0, uint64(i+1))
		blob, cycle, err := mgr.Snapshot(s)
		tr.End(id, uint64(len(blob)))
		if !r.op(err, "snapshot") {
			continue
		}
		fresh, err := mgr.Create(probeSpec, traceLimit)
		if !r.op(err, "snap probe create") {
			continue
		}
		id = tr.Begin("snap.decode", 0, uint64(i+1))
		got, err := mgr.Restore(fresh, blob)
		tr.End(id, uint64(len(blob)))
		if r.op(err, "restore") {
			r.check(got == cycle, "restore landed on cycle %d, snapshot taken at %d", got, cycle)
		}
		r.op(mgr.Evict(fresh.ID), "evict")
	}
}
