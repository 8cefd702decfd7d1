package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/osm"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/wire"
)

// diffSpecs mirrors the server package's differential matrix: both
// case studies, long enough to cross many scheduler quanta.
var diffSpecs = []runner.Spec{
	{Target: "strongarm", Workload: "gsm/dec", N: 60},
	{Target: "ppc750", Workload: "spec/crc", N: 50},
}

// ---- in-process reference runs ----

type refRun struct {
	cycles   uint64
	reported []uint32
	regs     []runner.Reg
	checksum string
}

func runRef(t testing.TB, spec runner.Spec) refRun {
	t.Helper()
	inst, err := runner.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := osm.NewRecorder()
	rec.Limit = 1024
	inst.Director().Tracer = rec
	for !inst.Done() {
		if inst.Cycle() > 20_000_000 {
			t.Fatal("reference run too long")
		}
		if err := inst.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := inst.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return refRun{
		cycles:   res.Cycles,
		reported: res.Reported,
		regs:     inst.Registers(),
		checksum: fmt.Sprintf("%016x", rec.Checksum()),
	}
}

// ---- fabric harness: real workers, real gateway, both planes ----

type testWorker struct {
	id       string
	mgr      *server.Manager
	hs       *httptest.Server
	wireAddr string
}

func startWorker(t testing.TB, id string, cfg server.Config) *testWorker {
	t.Helper()
	mgr := server.NewManager(cfg)
	mgr.Start()
	hs := httptest.NewServer(mgr.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := server.NewWireServer(mgr)
	go ws.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		ws.Shutdown(ctx)
		cancel()
		hs.Close()
		mgr.Close()
	})
	return &testWorker{id: id, mgr: mgr, hs: hs, wireAddr: ln.Addr().String()}
}

type fabric struct {
	g        *Gateway
	hs       *httptest.Server
	wireAddr string
	cl       *gclient
}

func startFabric(t testing.TB, cfg Config, workers ...*testWorker) *fabric {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	cfg.Logf = t.Logf
	g := New(cfg)
	g.Start()
	hs := httptest.NewServer(g.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wp := NewWireProxy(g)
	go wp.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		wp.Shutdown(ctx)
		cancel()
		hs.Close()
		g.Close()
	})
	for _, w := range workers {
		wk, err := g.Register(w.id, w.hs.URL, w.wireAddr)
		if err != nil {
			t.Fatal(err)
		}
		if wk.State != WorkerHealthy {
			t.Fatalf("worker %s registered in state %s, want healthy", w.id, wk.State)
		}
	}
	f := &fabric{g: g, hs: hs, wireAddr: ln.Addr().String()}
	f.cl = &gclient{t: t, base: hs.URL, hc: hs.Client()}
	return f
}

func dialWire(t testing.TB, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 60 * time.Second
	t.Cleanup(func() { c.Close() })
	return c
}

// gclient drives the gateway's HTTP plane.
type gclient struct {
	t    testing.TB
	base string
	hc   *http.Client
}

func (c *gclient) do(method, path string, body []byte, contentType string) (*http.Response, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, data
}

func (c *gclient) doJSON(method, path string, reqBody, out any) (*http.Response, []byte) {
	c.t.Helper()
	var body []byte
	if reqBody != nil {
		var err error
		body, err = json.Marshal(reqBody)
		if err != nil {
			c.t.Fatal(err)
		}
	}
	resp, data := c.do(method, path, body, "application/json")
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			c.t.Fatalf("%s %s: bad JSON %q: %v", method, path, data, err)
		}
	}
	return resp, data
}

func (c *gclient) create(spec runner.Spec) (server.Info, string) {
	c.t.Helper()
	var info server.Info
	resp, data := c.doJSON("POST", "/v1/sessions", server.CreateRequest{Spec: spec}, &info)
	if resp.StatusCode != http.StatusCreated {
		c.t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}
	return info, resp.Header.Get(WorkerHeader)
}

func (c *gclient) step(id string, cycles uint64) server.StepResult {
	c.t.Helper()
	var res server.StepResult
	resp, data := c.doJSON("POST", "/v1/sessions/"+id+"/step", server.StepRequest{Cycles: cycles}, &res)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("step %s: status %d: %s", id, resp.StatusCode, data)
	}
	return res
}

// infoAt returns the session info plus the worker that served it.
func (c *gclient) infoAt(id string) (server.Info, string) {
	c.t.Helper()
	var info server.Info
	resp, data := c.doJSON("GET", "/v1/sessions/"+id, nil, &info)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("info %s: status %d: %s", id, resp.StatusCode, data)
	}
	return info, resp.Header.Get(WorkerHeader)
}

func (c *gclient) registers(id string) []runner.Reg {
	c.t.Helper()
	var out struct {
		Registers []runner.Reg `json:"registers"`
	}
	resp, data := c.doJSON("GET", "/v1/sessions/"+id+"/registers", nil, &out)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("registers %s: status %d: %s", id, resp.StatusCode, data)
	}
	return out.Registers
}

func (c *gclient) metrics() string {
	c.t.Helper()
	resp, data := c.do("GET", "/metrics", nil, "")
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	return string(data)
}

// metricValue extracts one metric sample (the name may carry labels).
func metricValue(t testing.TB, text, name string) uint64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, text)
	}
	v, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func compareRegs(t testing.TB, label string, want, got []runner.Reg) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d registers, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: register %s = %#x, want %s = %#x",
				label, got[i].Name, got[i].Value, want[i].Name, want[i].Value)
		}
	}
}

// ---- the differential migration test ----

// A session driven through the gateway — alternating the HTTP and
// wire planes — with one forced migration at a random cut point must
// be byte-identical to the in-process run: cycles, registers,
// reported values, and the whole-run trace checksum.
func TestDifferentialGatewayMigration(t *testing.T) {
	for _, spec := range diffSpecs {
		spec := spec
		t.Run(spec.Target, func(t *testing.T) {
			ref := runRef(t, spec)
			wA := startWorker(t, "wA", server.Config{IdleTimeout: -1})
			wB := startWorker(t, "wB", server.Config{IdleTimeout: -1})
			f := startFabric(t, Config{}, wA, wB)
			wc := dialWire(t, f.wireAddr)

			info, firstWorker := f.cl.create(spec)
			id := info.ID
			if firstWorker != "wA" && firstWorker != "wB" {
				t.Fatalf("created on unknown worker %q", firstWorker)
			}

			seed := time.Now().UnixNano()
			rnd := rand.New(rand.NewSource(seed))
			cut := 1 + uint64(rnd.Int63n(int64(ref.cycles-1)))
			t.Logf("%s: %d-cycle run, migration cut at %d (seed %d)", spec.Target, ref.cycles, cut, seed)

			// Step to the cut, alternating planes.
			cycle, useWire := uint64(0), false
			for cycle < cut {
				chunk := cut - cycle
				if chunk > 1000 {
					chunk = 1000
				}
				if useWire {
					resp, err := wc.Step(id, chunk, 0)
					if err != nil {
						t.Fatalf("wire step: %v", err)
					}
					cycle = resp.Cycle
				} else {
					cycle = f.cl.step(id, chunk).Cycle
				}
				useWire = !useWire
			}
			if cycle != cut {
				t.Fatalf("stepped to %d, want cut %d", cycle, cut)
			}

			// Force the migration.
			_, before := f.cl.infoAt(id)
			var mig struct {
				From string `json:"from"`
				To   string `json:"to"`
			}
			resp, data := f.cl.doJSON("POST", "/v1/admin/migrate",
				map[string]string{"session": id}, &mig)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("migrate: status %d: %s", resp.StatusCode, data)
			}
			if mig.From != before || mig.To == mig.From {
				t.Fatalf("migrated %s->%s, was on %s", mig.From, mig.To, before)
			}
			if _, after := f.cl.infoAt(id); after != mig.To {
				t.Fatalf("post-migration requests served by %s, want %s", after, mig.To)
			}

			// Drive to completion, still alternating planes.
			var final server.StepResult
			for i := 0; ; i++ {
				if i > 10_000 {
					t.Fatal("session did not finish")
				}
				if useWire {
					resp, err := wc.Step(id, 1000, 0)
					if err != nil {
						t.Fatalf("wire step: %v", err)
					}
					if resp.Done {
						final = server.StepResult{Cycle: resp.Cycle, Done: true,
							Result: &runner.Result{Instrs: resp.Instrs, Reported: resp.Reported}}
						break
					}
				} else {
					res := f.cl.step(id, 1000)
					if res.Done {
						final = res
						break
					}
				}
				useWire = !useWire
			}

			if final.Cycle != ref.cycles {
				t.Fatalf("gateway run took %d cycles, in-process %d", final.Cycle, ref.cycles)
			}
			if fmt.Sprint(final.Result.Reported) != fmt.Sprint(ref.reported) {
				t.Fatalf("reported %v, want %v", final.Result.Reported, ref.reported)
			}
			compareRegs(t, spec.Target, ref.regs, f.cl.registers(id))
			endInfo, _ := f.cl.infoAt(id)
			if endInfo.TraceChecksum != ref.checksum {
				t.Fatalf("trace checksum %s across migration, want %s", endInfo.TraceChecksum, ref.checksum)
			}
			// The wire plane agrees with the HTTP plane on the trace.
			tr, err := wc.Trace(id, ^uint64(0))
			if err != nil {
				t.Fatalf("wire trace: %v", err)
			}
			if got := fmt.Sprintf("%016x", tr.Checksum); got != ref.checksum {
				t.Fatalf("wire trace checksum %s, want %s", got, ref.checksum)
			}

			mtext := f.cl.metrics()
			if v := metricValue(t, mtext, `osmgate_migrations_total{reason="rebalance"}`); v != 1 {
				t.Fatalf("rebalance migrations = %d, want 1", v)
			}
			if v := metricValue(t, mtext, "osmgate_migration_failures_total"); v != 0 {
				t.Fatalf("migration failures = %d", v)
			}
		})
	}
}

// ---- drain under load ----

// driveToDone steps a session through the gateway until done,
// alternating planes and retrying on backpressure. Goroutine-safe: it
// reports failures as errors instead of t.Fatal.
func driveToDone(f *fabric, wc *wire.Client, id string, chunk uint64) (server.StepResult, error) {
	useWire := false
	for i := 0; i < 100_000; i++ {
		var (
			res  server.StepResult
			err  error
			code = 0
		)
		if useWire {
			var resp wire.StepResponse
			resp, err = wc.Step(id, chunk, 0)
			if err == nil {
				res = server.StepResult{Cycle: resp.Cycle, Done: resp.Done}
				if resp.HasResult {
					res.Result = &runner.Result{Instrs: resp.Instrs, Reported: resp.Reported}
				}
			} else {
				var nerr *wire.NackError
				if errors.As(err, &nerr) && (nerr.Code == wire.NackBackpressure || nerr.Code == wire.NackDraining) {
					code = http.StatusTooManyRequests
				}
			}
		} else {
			var body []byte
			body, err = json.Marshal(server.StepRequest{Cycles: chunk})
			if err == nil {
				req, rerr := http.NewRequest("POST", f.cl.base+"/v1/sessions/"+id+"/step", bytes.NewReader(body))
				if rerr != nil {
					return server.StepResult{}, rerr
				}
				req.Header.Set("Content-Type", "application/json")
				resp, derr := f.cl.hc.Do(req)
				if derr != nil {
					return server.StepResult{}, derr
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				code = resp.StatusCode
				if code == http.StatusOK {
					err = json.Unmarshal(data, &res)
				} else {
					err = fmt.Errorf("step %s: status %d: %s", id, code, data)
				}
			}
		}
		useWire = !useWire
		switch {
		case err == nil:
			if res.Done {
				return res, nil
			}
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			time.Sleep(20 * time.Millisecond) // backpressure: retry
		default:
			return server.StepResult{}, err
		}
	}
	return server.StepResult{}, fmt.Errorf("session %s did not finish", id)
}

// Draining one of two workers in the middle of concurrent mixed-plane
// load must lose no running session, and the gateway metrics must
// reconcile exactly afterwards.
func TestWorkerDrainLosesNoSession(t *testing.T) {
	spec := diffSpecs[0]
	ref := runRef(t, spec)
	wA := startWorker(t, "wA", server.Config{IdleTimeout: -1})
	wB := startWorker(t, "wB", server.Config{IdleTimeout: -1})
	f := startFabric(t, Config{}, wA, wB)
	wc := dialWire(t, f.wireAddr)

	const n = 6
	ids := make([]string, n)
	for i := range ids {
		info, _ := f.cl.create(spec)
		ids[i] = info.ID
	}

	var wg sync.WaitGroup
	finals := make([]server.StepResult, n)
	errs := make([]error, n)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			finals[i], errs[i] = driveToDone(f, wc, id, 500)
		}(i, id)
	}

	// Let the load get going, then pull worker A out from under it.
	time.Sleep(50 * time.Millisecond)
	var drained struct {
		Migrated int `json:"migrated"`
	}
	resp, data := f.cl.doJSON("POST", "/v1/workers/drain", map[string]string{"worker": "wA"}, &drained)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d: %s", resp.StatusCode, data)
	}
	wg.Wait()

	for i, id := range ids {
		if errs[i] != nil {
			t.Fatalf("session %s: %v", id, errs[i])
		}
		if finals[i].Cycle != ref.cycles {
			t.Fatalf("session %s finished at %d cycles, want %d", id, finals[i].Cycle, ref.cycles)
		}
		if finals[i].Result == nil || fmt.Sprint(finals[i].Result.Reported) != fmt.Sprint(ref.reported) {
			t.Fatalf("session %s reported %v, want %v", id, finals[i].Result, ref.reported)
		}
		info, at := f.cl.infoAt(id)
		if at != "wB" {
			t.Fatalf("session %s served by %s after drain, want wB", id, at)
		}
		if info.TraceChecksum != ref.checksum {
			t.Fatalf("session %s trace checksum %s, want %s", id, info.TraceChecksum, ref.checksum)
		}
	}
	if got := wA.mgr.LiveCount(); got != 0 {
		t.Fatalf("drained worker still hosts %d sessions", got)
	}

	// Metrics reconcile exactly.
	mtext := f.cl.metrics()
	if v := metricValue(t, mtext, "osmgate_sessions_created_total"); v != n {
		t.Fatalf("sessions created = %d, want %d", v, n)
	}
	if v := metricValue(t, mtext, `osmgate_migrations_total{reason="drain"}`); v != uint64(drained.Migrated) {
		t.Fatalf("drain migrations metric %d, drain response reported %d", v, drained.Migrated)
	}
	if v := metricValue(t, mtext, "osmgate_migration_failures_total"); v != 0 {
		t.Fatalf("migration failures = %d", v)
	}
	if v := metricValue(t, mtext, "osmgate_proxy_errors_total"); v != 0 {
		t.Fatalf("proxy errors = %d", v)
	}
	if v := metricValue(t, mtext, `osmgate_workers{state="healthy"}`); v != 1 {
		t.Fatalf("healthy workers = %d, want 1", v)
	}
	if v := metricValue(t, mtext, `osmgate_workers{state="gone"}`); v != 1 {
		t.Fatalf("gone workers = %d, want 1", v)
	}

	// Evict everything through the gateway: the fabric's books close.
	for _, id := range ids {
		if resp, data := f.cl.do("DELETE", "/v1/sessions/"+id, nil, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("delete %s: status %d: %s", id, resp.StatusCode, data)
		}
	}
	mtext = f.cl.metrics()
	if v := metricValue(t, mtext, "osmgate_sessions_evicted_total"); v != n {
		t.Fatalf("sessions evicted = %d, want %d", v, n)
	}
	if v := metricValue(t, mtext, "osmgate_sessions_routed"); v != 0 {
		t.Fatalf("sessions routed = %d after evicting all", v)
	}
}

// ---- backpressure propagation ----

// A create body naming the removed "scan" option is refused with 400
// by the gateway and by a worker addressed directly.
func TestCreateRejectsRemovedScanOption(t *testing.T) {
	w := startWorker(t, "w1", server.Config{IdleTimeout: -1})
	f := startFabric(t, Config{}, w)
	body := []byte(`{"target":"strongarm","workload":"dsp/fir","n":20,"scan":true}`)
	direct := &gclient{t: t, base: w.hs.URL, hc: w.hs.Client()}
	for name, c := range map[string]*gclient{"gateway": f.cl, "worker": direct} {
		resp, data := c.do("POST", "/v1/sessions", body, "application/json")
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "unknown field") {
			t.Fatalf(`%s: create with "scan": status %d: %s`, name, resp.StatusCode, data)
		}
	}
}

func TestBackpressurePropagation(t *testing.T) {
	w := startWorker(t, "w1", server.Config{MaxSessions: 1, IdleTimeout: -1})
	f := startFabric(t, Config{}, w)
	spec := runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20}

	f.cl.create(spec)
	resp, data := f.cl.doJSON("POST", "/v1/sessions", server.CreateRequest{Spec: spec}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("2nd create: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("propagated 429 without Retry-After")
	}
	if v := metricValue(t, f.cl.metrics(), `osmgate_backpressure_total{plane="http"}`); v != 1 {
		t.Fatalf("http backpressure metric = %d, want 1", v)
	}
}

// A worker-side eviction behind the gateway's back surfaces as
// not-found on both planes (no park configured), after the gateway
// drops the stale route.
func TestStaleRouteNackPassthrough(t *testing.T) {
	w := startWorker(t, "w1", server.Config{IdleTimeout: -1})
	f := startFabric(t, Config{}, w)
	wc := dialWire(t, f.wireAddr)
	spec := runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20}

	info, _ := f.cl.create(spec)
	id := info.ID
	if _, err := wc.Step(id, 10, 0); err != nil {
		t.Fatalf("wire step through gateway: %v", err)
	}

	// Evict directly on the worker, bypassing the gateway.
	req, _ := http.NewRequest("DELETE", w.hs.URL+"/v1/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil || dresp.StatusCode != http.StatusOK {
		t.Fatalf("direct evict: %v status %v", err, dresp.Status)
	}
	dresp.Body.Close()

	var nerr *wire.NackError
	if _, err := wc.Step(id, 10, 0); !errors.As(err, &nerr) || nerr.Code != wire.NackNotFound {
		t.Fatalf("wire step after eviction: %v, want not-found NACK", err)
	}
	if resp, _ := f.cl.do("GET", "/v1/sessions/"+id, nil, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP info after eviction: status %d, want 404", resp.StatusCode)
	}
	if f.g.RouteCount() != 0 {
		t.Fatalf("stale route not dropped: %d routes", f.g.RouteCount())
	}
}

// ---- park and resurrect ----

// An idle-evicted session parks its snapshot; the next touch through
// the gateway resurrects it — transparently, with full trace
// continuity — and consumes the park.
func TestParkAndResurrect(t *testing.T) {
	spec := diffSpecs[0]
	ref := runRef(t, spec)
	dir := t.TempDir()
	w := startWorker(t, "w1", server.Config{IdleTimeout: 250 * time.Millisecond, ParkDir: dir})
	f := startFabric(t, Config{ParkDir: dir}, w)

	info, _ := f.cl.create(spec)
	id := info.ID
	cut := ref.cycles / 2
	if res := f.cl.step(id, cut); res.Cycle != cut {
		t.Fatalf("stepped to %d, want %d", res.Cycle, cut)
	}

	// Wait for the janitor to evict and park.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, err := server.LoadPark(dir, id); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session was never parked")
		}
		time.Sleep(20 * time.Millisecond)
	}
	meta, blob, err := server.LoadPark(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Cycle != cut {
		t.Fatalf("parked at cycle %d, want %d", meta.Cycle, cut)
	}
	if got := server.BlobChecksum(blob); got != meta.Checksum {
		t.Fatalf("park blob checksum %s, store entry says %s", got, meta.Checksum)
	}
	if w.mgr.LiveCount() != 0 {
		t.Fatal("worker still hosts the parked session")
	}

	// Touch through the gateway: transparent resurrection.
	got, at := f.cl.infoAt(id)
	if got.Cycle != cut {
		t.Fatalf("resurrected at cycle %d, want %d", got.Cycle, cut)
	}
	if at != "w1" {
		t.Fatalf("resurrected on %q", at)
	}
	if _, _, err := server.LoadPark(dir, id); err == nil {
		t.Fatal("park not consumed by resurrection")
	}
	if v := metricValue(t, f.cl.metrics(), `osmgate_migrations_total{reason="resurrect"}`); v != 1 {
		t.Fatalf("resurrect metric = %d, want 1", v)
	}

	// Finish the run: identical to an uninterrupted in-process run.
	var final server.StepResult
	for i := 0; ; i++ {
		if i > 10_000 {
			t.Fatal("session did not finish")
		}
		final = f.cl.step(id, 2000)
		if final.Done {
			break
		}
	}
	if final.Cycle != ref.cycles {
		t.Fatalf("finished at %d cycles, want %d", final.Cycle, ref.cycles)
	}
	if fmt.Sprint(final.Result.Reported) != fmt.Sprint(ref.reported) {
		t.Fatalf("reported %v, want %v", final.Result.Reported, ref.reported)
	}
	endInfo, _ := f.cl.infoAt(id)
	if endInfo.TraceChecksum != ref.checksum {
		t.Fatalf("trace checksum %s across park+resurrect, want %s", endInfo.TraceChecksum, ref.checksum)
	}
}

// ---- gateway restart: migrate sessions the gateway did not place ----

// A gateway restarted between session creation and worker drain has
// no route table. Draining a worker through the new gateway must still
// migrate every resident session — routes are adopted from the
// worker's own session list, and each session's snapshot names its
// spec — and the finished runs must be trace-checksum-identical to
// uninterrupted in-process runs.
func TestDifferentialDrainAfterGatewayRestart(t *testing.T) {
	for _, spec := range diffSpecs {
		spec := spec
		t.Run(spec.Target, func(t *testing.T) {
			ref := runRef(t, spec)
			wA := startWorker(t, "wA", server.Config{IdleTimeout: -1})
			wB := startWorker(t, "wB", server.Config{IdleTimeout: -1})

			// Gateway #1 places sessions on both workers and steps
			// them partway.
			f1 := startFabric(t, Config{}, wA, wB)
			cut := ref.cycles / 2
			byWorker := map[string][]string{}
			var ids []string
			for i := 0; i < 16 && (len(byWorker["wA"]) == 0 || len(byWorker["wB"]) == 0); i++ {
				info, at := f1.cl.create(spec)
				byWorker[at] = append(byWorker[at], info.ID)
				ids = append(ids, info.ID)
				if res := f1.cl.step(info.ID, cut); res.Cycle != cut {
					t.Fatalf("stepped to %d, want %d", res.Cycle, cut)
				}
			}
			if len(byWorker["wA"]) == 0 || len(byWorker["wB"]) == 0 {
				t.Fatalf("placement never used both workers: %v", byWorker)
			}
			t.Logf("placed %d sessions (%d on wA, %d on wB), cut at %d",
				len(ids), len(byWorker["wA"]), len(byWorker["wB"]), cut)

			// The gateway dies. Workers keep their resident sessions.
			f1.g.Close()
			f1.hs.Close()

			// Gateway #2 starts fresh — empty route table — and the
			// workers re-register.
			f2 := startFabric(t, Config{}, wA, wB)

			// Drain wA through the new gateway: it must adopt wA's
			// resident sessions from the worker's own list and place
			// their snapshots on wB.
			moved, err := f2.g.DrainWorker("wA")
			if err != nil {
				t.Fatalf("drain after restart: %v", err)
			}
			if moved != len(byWorker["wA"]) {
				t.Fatalf("drain migrated %d sessions, wA hosted %d", moved, len(byWorker["wA"]))
			}
			if wA.mgr.LiveCount() != 0 {
				t.Fatalf("wA still hosts %d sessions after drain", wA.mgr.LiveCount())
			}
			mtext := f2.cl.metrics()
			if v := metricValue(t, mtext, `osmgate_migrations_total{reason="drain"}`); v != uint64(moved) {
				t.Fatalf("drain migrations = %d, want %d", v, moved)
			}
			if v := metricValue(t, mtext, "osmgate_migration_failures_total"); v != 0 {
				t.Fatalf("migration failures = %d", v)
			}

			// Every session — the migrated ones and the wB residents
			// the new gateway discovers on first touch — finishes
			// byte-identical to the reference.
			for _, id := range ids {
				info, at := f2.cl.infoAt(id)
				if at != "wB" {
					t.Fatalf("session %s served by %q after drain, want wB", id, at)
				}
				if info.Cycle != cut {
					t.Fatalf("session %s at cycle %d after restart+drain, want %d", id, info.Cycle, cut)
				}
				var final server.StepResult
				for i := 0; ; i++ {
					if i > 10_000 {
						t.Fatalf("session %s did not finish", id)
					}
					final = f2.cl.step(id, 2000)
					if final.Done {
						break
					}
				}
				if final.Cycle != ref.cycles {
					t.Fatalf("session %s finished at %d cycles, want %d", id, final.Cycle, ref.cycles)
				}
				if fmt.Sprint(final.Result.Reported) != fmt.Sprint(ref.reported) {
					t.Fatalf("session %s reported %v, want %v", id, final.Result.Reported, ref.reported)
				}
				compareRegs(t, id, ref.regs, f2.cl.registers(id))
				endInfo, _ := f2.cl.infoAt(id)
				if endInfo.TraceChecksum != ref.checksum {
					t.Fatalf("session %s trace checksum %s across restart+drain, want %s",
						id, endInfo.TraceChecksum, ref.checksum)
				}
			}
		})
	}
}

// ---- placement over a stale copy, and deleting a parked session ----

// A migration onto a worker that already holds a stale copy of the
// session under its id — the leftover of an earlier attempt whose
// reply was lost — overwrites that copy with the current state, and
// the run ends trace-checksum-identical to the in-process run. A
// client PUT through the gateway is refused: placement is the
// gateway's job.
func TestMigrationOverwritesStaleCopy(t *testing.T) {
	spec := diffSpecs[0]
	ref := runRef(t, spec)
	wA := startWorker(t, "wA", server.Config{IdleTimeout: -1})
	wB := startWorker(t, "wB", server.Config{IdleTimeout: -1})
	f := startFabric(t, Config{}, wA, wB)
	workers := map[string]*testWorker{"wA": wA, "wB": wB}

	info, from := f.cl.create(spec)
	id := info.ID
	to := map[string]string{"wA": "wB", "wB": "wA"}[from]
	f.cl.step(id, 1000)
	resp, stale := f.cl.do("GET", "/v1/sessions/"+id+"/snapshot", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	direct := &gclient{t: t, base: workers[to].hs.URL, hc: workers[to].hs.Client()}
	if resp, body := direct.do("PUT", "/v1/sessions/"+id, stale, "application/octet-stream"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("planting the stale copy on %s: status %d: %s", to, resp.StatusCode, body)
	}
	if resp, body := f.cl.do("PUT", "/v1/sessions/"+id, stale, "application/octet-stream"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("client PUT through the gateway: status %d (%s), want 405", resp.StatusCode, body)
	}
	cut := ref.cycles / 2
	f.cl.step(id, cut-1000)

	var mig struct{ From, To string }
	resp, data := f.cl.doJSON("POST", "/v1/admin/migrate", map[string]string{"session": id, "to": to}, &mig)
	if resp.StatusCode != http.StatusOK || mig.From != from || mig.To != to {
		t.Fatalf("migrate: status %d: %s", resp.StatusCode, data)
	}
	if got, at := f.cl.infoAt(id); got.Cycle != cut || at != to {
		t.Fatalf("after migration: cycle %d on %s, want %d on %s", got.Cycle, at, cut, to)
	}
	if n := workers[from].mgr.LiveCount(); n != 0 {
		t.Fatalf("source %s still hosts %d sessions", from, n)
	}
	var final server.StepResult
	for i := 0; !final.Done; i++ {
		if i > 10_000 {
			t.Fatal("session did not finish")
		}
		final = f.cl.step(id, 2000)
	}
	if final.Cycle != ref.cycles || fmt.Sprint(final.Result.Reported) != fmt.Sprint(ref.reported) {
		t.Fatalf("finished at %d cycles reporting %v, want %d reporting %v", final.Cycle, final.Result.Reported, ref.cycles, ref.reported)
	}
	compareRegs(t, spec.Target, ref.regs, f.cl.registers(id))
	if endInfo, _ := f.cl.infoAt(id); endInfo.TraceChecksum != ref.checksum {
		t.Fatalf("trace checksum %s after overwriting the stale copy, want %s", endInfo.TraceChecksum, ref.checksum)
	}
	if v := metricValue(t, f.cl.metrics(), "osmgate_migration_failures_total"); v != 0 {
		t.Fatalf("migration failures = %d", v)
	}
}

// DELETE through a gateway with no route for a parked session consumes
// the park (200), and a second DELETE finds nothing (404).
func TestDeleteConsumesPark(t *testing.T) {
	dir := t.TempDir()
	w := startWorker(t, "w1", server.Config{IdleTimeout: 100 * time.Millisecond, ParkDir: dir})
	f1 := startFabric(t, Config{ParkDir: dir}, w)
	info, _ := f1.cl.create(diffSpecs[0])
	id := info.ID
	f1.cl.step(id, 1000)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := server.ReadParkMeta(dir, id); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session was never parked")
		}
		time.Sleep(20 * time.Millisecond)
	}

	f2 := startFabric(t, Config{ParkDir: dir}, w)
	if resp, body := f2.cl.do("DELETE", "/v1/sessions/"+id, nil, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete of a parked session: status %d: %s", resp.StatusCode, body)
	}
	if _, err := server.ReadParkMeta(dir, id); err == nil {
		t.Fatal("park not consumed by the delete")
	}
	if resp, body := f2.cl.do("DELETE", "/v1/sessions/"+id, nil, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: status %d (%s), want 404", resp.StatusCode, body)
	}
	if w.mgr.LiveCount() != 0 || f2.g.RouteCount() != 0 {
		t.Fatalf("delete left %d sessions and %d routes", w.mgr.LiveCount(), f2.g.RouteCount())
	}
}
