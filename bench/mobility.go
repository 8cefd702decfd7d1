package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/workload"
)

// mobility moves sessions around the fabric: a closed loop of one
// client with up to eight sessions in flight runs every session from
// creation to a verified finish while taking a checkpoint chain into
// a bench-owned chunk store, forcing three live migrations, and
// letting the session idle until its worker parks it so the next
// touch resurrects it. It exercises snapshots, the store, gateway
// migration and server parking; per-request overhead hardly matters
// here.
//
// One client, not two: each worker steps sessions on a single
// goroutine, so two clients' bulk steps landing on one worker queue
// behind each other about half the time. That made the step latency
// bimodal, and its median swung between 5 and 9 ms from run to run.

const (
	// mobilityInFlight is the client's session count in flight.
	mobilityInFlight = 8
	// idleTimeout is the workers' idle-eviction timeout; an evicted
	// session is parked in the shared park directory. A worker evicts
	// the session before its park is written, and a touch landing in
	// between is answered not-found, so a session in use must never
	// idle this long: the timeout sits far above the slowest request,
	// which a busy host stretches to hundreds of milliseconds.
	idleTimeout = 2 * time.Second
	// keepAlive is the idle time after which the client peeks a session
	// it is not waiting to see parked, as a debugger polling state
	// would, so no session in use reaches idleTimeout.
	keepAlive = idleTimeout / 2
	// ckptEvery is the checkpoint spacing in simulated cycles: every
	// fourth bulk step. A checkpoint after every step made the loop
	// store-bound: each put wrote most of its chunks anew (26% reuse),
	// checkpoints took 20–35 ms at the median and over 120 ms at p90,
	// and fewer than 25 sessions finished in 20 s, leaving too few
	// migrations and resurrections to measure.
	ckptEvery = 4 * stepQuantum
	// migrationsPerSession forced at seeded cycles.
	migrationsPerSession = 3
	// parkPoll is how long the client sleeps when every session it has
	// in flight is waiting to be parked.
	parkPoll = 5 * time.Millisecond
)

// Span and latency class names.
const (
	clsMobStepSA  = "mob.step.sa"
	clsMobStepPPC = "mob.step.ppc"
	clsMobFinal   = "mob.step.final"
	clsCkpt       = "ckpt"
	clsMigrate    = "mob.migrate"
	clsResurrect  = "mob.resurrect"
)

type poolSpec struct {
	spec runner.Spec
	ref  reference
}

type msession struct {
	id       string
	ps       *poolSpec
	pi       int
	seq      uint64
	root     int
	cycle    uint64
	nextCkpt uint64
	cuts     []uint64
	parkAt   uint64
	waiting  bool
	parked   bool
	ckptDue  bool
	done     bool
	wait     int
	lastCkpt uint64
	lastSum  string
	// lastUsed is when the session's last request completed.
	lastUsed time.Time
}

type mobilityBench struct {
	cfg     config
	tmp     string
	parkDir string
	f       *fabric
	c       *client
	st      *store.Store
	pool    []poolSpec
	order   []int
	bulk    uint64

	// The client's sessions in flight, carried from one pass to the
	// next, and the last session sequence number handed out.
	active []*msession
	seq    uint64

	// One pass's tallies.
	r          *report
	lat        map[string][]float64
	ops        uint64
	bulkCycles uint64

	// Tallies over the bench's life, reconciled with the gateway.
	migrations uint64
	resurrects uint64
	ckptKeys   map[string]bool
	putChunks  int
	putNew     int
	gateMoves  float64
}

func setupMobility(cfg config) (bench, error) {
	tmp, err := os.MkdirTemp("", "bench-mobility-*")
	if err != nil {
		return nil, err
	}
	b := &mobilityBench{cfg: cfg, tmp: tmp, parkDir: filepath.Join(tmp, "park"),
		bulk: scaledQuantum(stepQuantum, cfg), ckptKeys: make(map[string]bool)}
	if b.st, err = store.Open(filepath.Join(tmp, "ckpt"), store.Options{}); err != nil {
		b.close()
		return nil, err
	}
	if err := b.buildPool(); err != nil {
		b.close()
		return nil, err
	}
	if b.f, err = startFabric(server.Config{IdleTimeout: idleTimeout}, b.parkDir); err != nil {
		b.close()
		return nil, err
	}
	if b.c, err = b.f.newClient(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// buildPool picks, per kernel and model, an iteration count that runs
// a seeded 20k–60k cycles, and computes each spec's reference run.
// Every kernel runs on both models, so the mix of session sizes and
// targets is the same for every seed.
func (b *mobilityBench) buildPool() error {
	rng := rand.New(rand.NewPCG(b.cfg.seed, 4))
	for _, w := range workload.Mix() {
		for _, target := range []string{"strongarm", "ppc750"} {
			iss := "arm-iss"
			if target == "ppc750" {
				iss = "ppc-iss"
			}
			// Scale the default count by the functional instruction
			// count, which is cheap to get and within a small factor
			// of the cycle count.
			res, err := runner.Run(runner.Spec{Target: iss, Workload: w.Name}, runner.RunOptions{})
			if err != nil {
				return err
			}
			goal := (20_000 + 30_000*rng.Float64()) * b.cfg.scale
			n := max(1, int(math.Round(float64(w.DefaultN)*goal/float64(res.Instrs))))
			spec := runner.Spec{Target: target, Workload: w.Name, N: n}
			ref, err := referenceRun(spec)
			if err != nil {
				return err
			}
			b.pool = append(b.pool, poolSpec{spec: spec, ref: ref})
		}
	}
	b.order = rng.Perm(len(b.pool))
	return nil
}

func (b *mobilityBench) fingerprint() string {
	var parts []string
	for _, p := range b.pool {
		parts = append(parts, fmt.Sprintf("%s %s %d %d %016x", p.spec.Target, p.spec.Workload, p.spec.N, p.ref.cycles, p.ref.checksum))
	}
	return strings.Join(parts, ",")
}

func (b *mobilityBench) close() {
	if b.c != nil {
		b.c.close()
	}
	if b.f != nil {
		b.f.close()
	}
	os.RemoveAll(b.tmp)
}

// newSession creates the next session of the seeded sequence through
// the gateway. Its migration cuts and park point come from its
// sequence number.
func (b *mobilityBench) newSession(tr *Tracer) *msession {
	b.seq++
	pi := b.order[int(b.seq-1)%len(b.order)]
	ps := &b.pool[pi]
	rng := rand.New(rand.NewPCG(b.cfg.seed, 1000+b.seq))
	total := ps.ref.cycles
	s := &msession{ps: ps, pi: pi, seq: b.seq, nextCkpt: b.ckptEvery()}
	for i := 0; i < migrationsPerSession; i++ {
		s.cuts = append(s.cuts, uint64((0.05+0.85*rng.Float64())*float64(total)))
	}
	slices.Sort(s.cuts)
	s.parkAt = min(uint64((0.3+0.3*rng.Float64())*float64(total)), total-min(total, b.bulk+1))
	s.root = tr.Begin("session", 0, s.seq)
	b.timed(tr, "gate.create", s, func() (uint64, error) {
		id, _, err := b.c.create(ps.spec)
		s.id = id
		return 0, err
	})
	if s.id == "" {
		tr.End(s.root, 0)
		return nil
	}
	return s
}

// timed runs one client request as a child span of the session and
// records its latency under class.
func (b *mobilityBench) timed(tr *Tracer, class string, s *msession, fn func() (uint64, error)) bool {
	id := tr.Begin(class, s.root, s.seq)
	t0 := time.Now()
	work, err := fn()
	lat := time.Since(t0)
	tr.End(id, work)
	s.lastUsed = time.Now()
	b.ops++
	if !b.r.op(err, class+" "+s.id) {
		return false
	}
	b.lat[class] = append(b.lat[class], float64(lat.Nanoseconds())/1e3)
	return true
}

func (b *mobilityBench) run(d time.Duration, tr *Tracer, r *report) pass {
	b.r, b.lat = r, make(map[string][]float64)
	b.ops, b.bulkCycles = 0, 0
	start := time.Now()
	b.loop(start.Add(d), tr)
	el := time.Since(start).Seconds()
	b.reconcile(r)
	lat := b.lat
	b.lat = nil
	var bulkUS float64
	for _, k := range []string{clsMobStepSA, clsMobStepPPC, clsMobFinal} {
		for _, v := range lat[k] {
			bulkUS += v
		}
	}
	var classes []string
	for _, k := range []string{clsMobStepSA, clsMobStepPPC, clsCkpt, clsMigrate, clsResurrect} {
		classes = append(classes, k+" "+Describe(lat[k]))
	}
	return pass{
		cyclesPerSec: float64(b.bulkCycles) / (bulkUS / 1e6),
		opsPerSec:    float64(b.ops) / el,
		n:            int(b.ops),
		stepsUS:      lat[clsMobStepSA],
		samples:      strings.Join(classes, ", "),
	}
}

// loop keeps up to mobilityInFlight sessions in flight, giving each
// one request per round; sessions waiting to be parked are skipped
// until their park appears.
func (b *mobilityBench) loop(deadline time.Time, tr *Tracer) {
	for time.Now().Before(deadline) {
		for len(b.active) < mobilityInFlight {
			s := b.newSession(tr)
			if s == nil {
				return
			}
			b.active = append(b.active, s)
		}
		progressed := false
		live := b.active[:0]
		for _, s := range b.active {
			done := false
			if time.Now().Before(deadline) {
				b.keepAlive(tr)
				var moved bool
				moved, done = b.advance(s, tr)
				progressed = progressed || moved
			}
			if !done {
				live = append(live, s)
			}
		}
		b.active = live
		if !progressed {
			time.Sleep(parkPoll)
		}
	}
}

// keepAlive peeks every session in use that has idled past keepAlive.
func (b *mobilityBench) keepAlive(tr *Tracer) {
	for _, s := range b.active {
		if s.waiting || time.Since(s.lastUsed) < keepAlive {
			continue
		}
		b.timed(tr, "keepalive", s, func() (uint64, error) {
			resp, err := b.c.gw.Registers(s.id)
			if err == nil {
				b.r.check(resp.Cycle == s.cycle, "%s at cycle %d, client saw %d", s.id, resp.Cycle, s.cycle)
			}
			return 0, err
		})
	}
}

// advance gives one session its next request — one per visit, so a
// slow request on one session delays the other sessions by at most
// that request, far below the idle timeout. It reports whether the
// session made progress and whether it is finished (verified and
// deleted, or failed).
func (b *mobilityBench) advance(s *msession, tr *Tracer) (moved, finished bool) {
	switch {
	case s.waiting:
		if _, err := server.ReadParkMeta(b.parkDir, s.id); err != nil {
			return false, false
		}
		tr.End(s.wait, 0)
		// The touch goes through the gateway, whose stale route
		// answers not-found and resurrects the session from its park.
		ok := b.timed(tr, clsResurrect, s, func() (uint64, error) {
			resp, err := b.c.gw.Registers(s.id)
			if err == nil {
				b.r.check(resp.Cycle == s.cycle, "%s resurrected at cycle %d, parked at %d", s.id, resp.Cycle, s.cycle)
			}
			return 0, err
		})
		s.waiting, s.parked = false, true
		b.resurrects++
		return true, !ok
	case s.ckptDue:
		s.ckptDue = false
		return true, !b.checkpoint(s, tr)
	case len(s.cuts) > 0 && (s.cycle >= s.cuts[0] || s.done):
		s.cuts = s.cuts[1:]
		return true, !b.migrate(s, tr)
	case s.done:
		b.r.check(s.parked, "%s finished without being parked", s.id)
		b.finish(s, tr)
		return true, true
	case !s.parked && s.cycle >= s.parkAt:
		s.waiting = true
		s.wait = tr.Begin("park.wait", s.root, s.seq)
		return false, false
	}
	return true, !b.step(s, tr)
}

// step advances the session by one bulk step through the gateway's
// wire plane.
func (b *mobilityBench) step(s *msession, tr *Tracer) bool {
	// The class is known before the request: the reference run says
	// whether this step will reach the end of the program.
	cls := clsMobStepPPC
	switch {
	case s.cycle+b.bulk >= s.ps.ref.cycles:
		cls = clsMobFinal
	case s.ps.spec.Target == "strongarm":
		cls = clsMobStepSA
	}
	var resp wire.StepResponse
	ok := b.timed(tr, cls, s, func() (uint64, error) {
		var err error
		resp, err = b.c.gw.Step(s.id, b.bulk, 0)
		return resp.Stepped, err
	})
	if !ok {
		return false
	}
	b.r.check(resp.Stepped == b.bulk || resp.Done && resp.Cycle == s.ps.ref.cycles,
		"%s: stepped %d cycles to %d, done=%v", s.id, resp.Stepped, resp.Cycle, resp.Done)
	s.cycle = resp.Cycle
	b.bulkCycles += resp.Stepped
	if s.cycle >= s.nextCkpt {
		s.ckptDue = true
		every := b.ckptEvery()
		s.nextCkpt = (s.cycle/every + 1) * every
	}
	if resp.Done {
		s.done = true
		b.r.check(resp.HasResult && resp.Instrs == s.ps.ref.instrs && slices.Equal(resp.Reported, s.ps.ref.reported),
			"%s: finished with %d instrs reporting %x, reference %d reporting %x",
			s.id, resp.Instrs, resp.Reported, s.ps.ref.instrs, s.ps.ref.reported)
	}
	return true
}

// checkpoint downloads the session's snapshot through the gateway and
// stores it in the bench's chunk store under (session, cycle).
func (b *mobilityBench) checkpoint(s *msession, tr *Tracer) bool {
	return b.timed(tr, clsCkpt, s, func() (uint64, error) {
		id := tr.Begin("gate.snapshot", s.root, s.seq)
		status, hdr, blob, err := b.c.do(http.MethodGet, b.f.gwURL+"/v1/sessions/"+s.id+"/snapshot", nil)
		tr.End(id, uint64(len(blob)))
		if err := want(status, http.StatusOK, blob, err); err != nil {
			return 0, err
		}
		b.r.check(hdr.Get("X-Osm-Cycle") == strconv.FormatUint(s.cycle, 10),
			"%s snapshot at cycle %s, session at %d", s.id, hdr.Get("X-Osm-Cycle"), s.cycle)
		id = tr.Begin("store.put", s.root, s.seq)
		st, err := b.st.Put(s.id, s.cycle, blob)
		tr.End(id, uint64(len(blob)))
		if err != nil {
			return 0, err
		}
		b.ckptKeys[fmt.Sprintf("%d@%d", s.pi, s.cycle)] = true
		b.putChunks += st.Chunks
		b.putNew += st.NewChunks
		s.lastCkpt, s.lastSum = s.cycle, server.BlobChecksum(blob)
		return uint64(len(blob)), nil
	})
}

func (b *mobilityBench) ckptEvery() uint64 { return max(1, uint64(ckptEvery*b.cfg.scale)) }

// migrate forces a live migration of the session to another worker.
func (b *mobilityBench) migrate(s *msession, tr *Tracer) bool {
	b.migrations++
	return b.timed(tr, clsMigrate, s, func() (uint64, error) {
		body, _ := json.Marshal(map[string]string{"session": s.id})
		status, _, data, err := b.c.do(http.MethodPost, b.f.gwURL+"/v1/admin/migrate", body)
		if err := want(status, http.StatusOK, data, err); err != nil {
			return 0, err
		}
		var moved struct{ From, To string }
		if err := json.Unmarshal(data, &moved); err != nil {
			return 0, err
		}
		b.r.check(moved.From != moved.To && moved.To != "", "%s migrated from %q to %q", s.id, moved.From, moved.To)
		return 0, nil
	})
}

// finish checks a finished session against its in-process reference
// run (registers and whole-run trace), reads its last checkpoint back
// from the store, and deletes the session.
func (b *mobilityBench) finish(s *msession, tr *Tracer) {
	ref := s.ps.ref
	b.timed(tr, "verify.registers", s, func() (uint64, error) {
		resp, err := b.c.gw.Registers(s.id)
		if err == nil {
			b.r.check(resp.Cycle == ref.cycles && regsMatch(resp.Regs, ref.regs), "%s: registers differ from the reference run", s.id)
		}
		return 0, err
	})
	b.timed(tr, "verify.trace", s, func() (uint64, error) {
		resp, err := b.c.gw.Trace(s.id, math.MaxUint64)
		if err == nil {
			b.r.check(resp.Checksum == ref.checksum && resp.Total == ref.total,
				"%s: trace %016x/%d, reference %016x/%d", s.id, resp.Checksum, resp.Total, ref.checksum, ref.total)
		}
		return 0, err
	})
	if s.lastSum != "" {
		b.timed(tr, "store.get", s, func() (uint64, error) {
			blob, err := b.st.Get(s.id, s.lastCkpt)
			if err == nil {
				b.r.check(server.BlobChecksum(blob) == s.lastSum, "%s: checkpoint at %d reads back changed", s.id, s.lastCkpt)
			}
			return uint64(len(blob)), err
		})
	}
	b.timed(tr, "gate.delete", s, func() (uint64, error) { return 0, b.c.delete(s.id) })
	tr.End(s.root, ref.cycles)
}

// reconcile checks the gateway's migration counters against the
// client's tallies. Resurrections can exceed the planned ones: a
// session left idle between two requests longer than the idle timeout
// is parked and resurrected on the next touch, which is correct.
func (b *mobilityBench) reconcile(r *report) {
	g, err := b.c.scrape(b.f.gwURL)
	if !r.op(err, "scraping gateway metrics") {
		return
	}
	rebalance := g[`osmgate_migrations_total{reason="rebalance"}`]
	resurrect := g[`osmgate_migrations_total{reason="resurrect"}`]
	r.check(rebalance == float64(b.migrations), "gateway counted %v migrations, client %d", rebalance, b.migrations)
	r.check(resurrect >= float64(b.resurrects), "gateway counted %v resurrections, client %d", resurrect, b.resurrects)
	r.check(g["osmgate_migration_failures_total"] == 0, "gateway counted %v failed migrations", g["osmgate_migration_failures_total"])
	r.check(g["osmgate_proxy_errors_total"] == 0, "gateway counted %v proxy errors", g["osmgate_proxy_errors_total"])
	b.gateMoves = rebalance + resurrect
}

// heapMB deletes every session still in flight and then measures the
// heap. Sessions in use go first, before they idle long enough to be
// evicted. A session waiting to be parked is deleted once its park is
// written: before that, its worker has evicted it and the gateway
// finds no park to consume.
func (b *mobilityBench) heapMB(r *report) float64 {
	for _, waiting := range []bool{false, true} {
		for _, s := range b.active {
			if s.waiting != waiting || waiting && !r.check(b.awaitPark(s.id), "%s: no park written", s.id) {
				continue
			}
			r.op(b.c.delete(s.id), "delete "+s.id)
		}
	}
	b.active = nil
	return liveHeapMB()
}

// awaitPark waits for a session's park record, up to twice the idle
// timeout.
func (b *mobilityBench) awaitPark(id string) bool {
	for end := time.Now().Add(2 * idleTimeout); time.Now().Before(end); time.Sleep(parkPoll) {
		if _, err := server.ReadParkMeta(b.parkDir, id); err == nil {
			return true
		}
	}
	return false
}

func (b *mobilityBench) layers(tr *Tracer, r *report) {
	k := 20
	if b.cfg.short {
		k = 8
	}
	snapProbe(tr, r, k)
	ls := tr.Layers()
	ms := func(metric, class string) {
		l := ls.Get(class)
		r.set(metric, "ms", l.MedianMS(), l.N())
	}
	ms("migrate_p50_ms", clsMigrate)
	ms("resurrect_p50_ms", clsResurrect)
	ms("ckpt_p50_ms", clsCkpt)
	ms("store.put_ms", "store.put")
	ms("store.get_ms", "store.get")
	ms("snap.encode_ms", "snap.encode")
	ms("snap.decode_ms", "snap.decode")
	enc := ls.Get("snap.encode")
	r.set("snap.bytes", "bytes", float64(enc.Count)/float64(enc.N()), enc.N())

	// Identical sessions produce identical checkpoints, so disk cost
	// is per distinct (spec, cycle) checkpoint; once every pool spec
	// has finished a chain it depends on the seed alone.
	st, err := b.st.Stat()
	if r.op(err, "store stat") {
		r.set("ckpt_disk_bytes", "bytes", float64(st.ChunkBytes)/float64(len(b.ckptKeys)), len(b.ckptKeys))
	}
	r.set("store.dedup_pct", "%", 100*float64(b.putChunks-b.putNew)/float64(b.putChunks), b.putChunks)
	r.set("gate.migrations_total", "count", b.gateMoves, 1)
	ppc := ls.Get(clsMobStepPPC)
	r.set("mobility.ppc_step_p50_us", "us", ppc.MedianUS(), ppc.N())
	// A session's self time is the part of its life spent in none of
	// its requests nor its park wait: waiting for the client, which
	// was busy with another session.
	sess := ls.Get("session")
	r.set("mobility.client_wait_pct", "%", 100*float64(sess.Self)/float64(sess.Total), sess.N())
}
