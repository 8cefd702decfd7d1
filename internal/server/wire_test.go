package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/wire"
)

// newWireTestServer stands up both protocol planes over one manager:
// the HTTP handler (session creation and the JSON control plane) and
// a wire listener on a local TCP socket.
func newWireTestServer(t testing.TB, cfg Config) (*Manager, *client, *wire.Client, func()) {
	t.Helper()
	mgr, cl, httpDone := newTestServer(t, cfg)
	ws := NewWireServer(mgr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ws.Serve(ln) }()
	wc, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return mgr, cl, wc, func() {
		wc.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := ws.Shutdown(ctx); err != nil {
			t.Errorf("wire shutdown: %v", err)
		}
		cancel()
		if err := <-serveErr; err != nil {
			t.Errorf("wire serve: %v", err)
		}
		httpDone()
	}
}

// wireStepToDone drives the session to completion over the binary
// protocol in bounded chunks.
func wireStepToDone(t *testing.T, wc *wire.Client, id string, chunk uint64) wire.StepResponse {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		resp, err := wc.Step(id, chunk, 0)
		if err != nil {
			t.Fatalf("wire step: %v", err)
		}
		if resp.Done {
			return resp
		}
	}
	t.Fatalf("session %s did not finish over the wire", id)
	return wire.StepResponse{}
}

// A workload stepped to completion over the binary protocol must be
// indistinguishable from the in-process run — same cycle count, final
// registers, reported values and whole-run trace checksum — on both
// case-study targets. This is the wire twin of TestDifferentialHTTP:
// together they prove the two planes drive identical simulations.
func TestDifferentialWire(t *testing.T) {
	_, cl, wc, done := newWireTestServer(t, Config{})
	defer done()
	for _, spec := range diffSpecs {
		ref := runRef(t, spec)
		info := cl.create(spec) // control plane stays on HTTP
		final := wireStepToDone(t, wc, info.ID, 10_000)
		if final.Cycle != ref.cycles {
			t.Fatalf("%s: wire run took %d cycles, in-process %d", spec.Target, final.Cycle, ref.cycles)
		}
		if !final.HasResult {
			t.Fatalf("%s: done without a result", spec.Target)
		}
		if final.Instrs != ref.instrs {
			t.Fatalf("%s: %d instrs, want %d", spec.Target, final.Instrs, ref.instrs)
		}
		if fmt.Sprint(final.Reported) != fmt.Sprint(ref.reported) {
			t.Fatalf("%s: reported %v, want %v", spec.Target, final.Reported, ref.reported)
		}
		if final.State != string(StateDone) {
			t.Fatalf("%s: state %q after completion", spec.Target, final.State)
		}
		regs, err := wc.Registers(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]runner.Reg, len(regs.Regs))
		for i, rg := range regs.Regs {
			got[i] = runner.Reg{Name: rg.Name, Value: rg.Value}
		}
		compareRegs(t, spec.Target+"/wire", ref.regs, got)
		tr, err := wc.Trace(info.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%016x", tr.Checksum); sum != ref.checksum {
			t.Fatalf("%s: trace checksum %s, want %s", spec.Target, sum, ref.checksum)
		}
		if tr.Total == 0 || len(tr.Events) == 0 {
			t.Fatalf("%s: empty trace (total %d, %d events)", spec.Target, tr.Total, len(tr.Events))
		}
		// Both views of the same session must agree byte for byte.
		if http := cl.info(info.ID); http.TraceChecksum != fmt.Sprintf("%016x", tr.Checksum) ||
			http.Cycle != final.Cycle {
			t.Fatalf("%s: HTTP view (cycle %d, %s) disagrees with wire view (cycle %d, %016x)",
				spec.Target, http.Cycle, http.TraceChecksum, final.Cycle, tr.Checksum)
		}
		mem, err := wc.ReadMem(info.ID, 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(mem.Data) != 64 {
			t.Fatalf("%s: mem peek returned %d bytes, want 64", spec.Target, len(mem.Data))
		}
	}
}

// The NACK surface mirrors the HTTP status mapping: not-found,
// conflict, and bad-request all come back as typed codes, and the
// connection survives every one of them.
func TestWireNacks(t *testing.T) {
	mgr, cl, wc, done := newWireTestServer(t, Config{})
	defer done()

	if resp, err := wc.Hello("test"); err != nil || resp.Server != "osmserve" {
		t.Fatalf("hello: %+v, %v", resp, err)
	}

	wantNack := func(err error, code wire.NackCode) {
		t.Helper()
		var ne *wire.NackError
		if !errors.As(err, &ne) || ne.Code != code {
			t.Fatalf("err = %v, want nack %s", err, code)
		}
	}
	_, err := wc.Step("s-999999", 10, 0)
	wantNack(err, wire.NackNotFound)

	info := cl.create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20})
	_, err = wc.Step(info.ID, 0, 0)
	wantNack(err, wire.NackConflict)
	wireStepToDone(t, wc, info.ID, 5_000)
	_, err = wc.Step(info.ID, 1, 0)
	wantNack(err, wire.NackConflict)
	_, err = wc.ReadMem(info.ID, 0, 999_999_999)
	wantNack(err, wire.NackConflict)

	// A frame whose payload does not decode as its op's request gets
	// a bad-request NACK, not a dropped connection.
	raw, err := net.Dial("tcp", wc.RemoteAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := wire.WriteFrame(raw, wire.Frame{Op: wire.OpStep, ReqID: 42, Payload: []byte{0xff}}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != wire.OpNack || f.ReqID != 42 {
		t.Fatalf("garbage payload answered %+v", f)
	}
	var n wire.Nack
	if err := n.Decode(f.Payload); err != nil || n.Code != wire.NackBadRequest {
		t.Fatalf("nack = %+v, %v; want bad-request", n, err)
	}
	if got := mgr.Metrics.WireNacks.Load(); got != 5 {
		t.Fatalf("wire nacks = %d, want 5", got)
	}
}

// scriptedBuild is the Config.Build seam used by the scale and drain
// tests: a cheap scripted instance (a counter, not a simulator) whose
// per-cycle cost is configurable.
func scriptedBuild(length uint64, perCycle time.Duration) func(runner.Spec) (*runner.Instance, error) {
	return func(spec runner.Spec) (*runner.Instance, error) {
		var cycle uint64
		return runner.NewFromHooks(runner.Hooks{
			Spec: spec,
			Arch: "arm",
			Step: func() error {
				if perCycle > 0 {
					time.Sleep(perCycle)
				}
				cycle++
				return nil
			},
			Cycle: func() uint64 { return cycle },
			Done:  func() bool { return cycle >= length },
			Finalize: func() (runner.Result, error) {
				return runner.Result{Target: spec.Target, Arch: "arm", Cycles: cycle, Instrs: cycle}, nil
			},
			Registers: func() []runner.Reg {
				return []runner.Reg{{Name: "r0", Value: uint32(cycle)}}
			},
			ReadMem: func(addr, n uint32) ([]byte, error) { return make([]byte, n), nil },
		}), nil
	}
}

// Ten thousand resident idle sessions must cost parked structs, not
// goroutines: the process goroutine count stays bounded by the worker
// pool and test harness, nowhere near the session count. A mixed
// HTTP + wire load over a slice of those sessions must then reconcile
// /metrics exactly. Run under -race in CI.
func TestScaleIdleSessions(t *testing.T) {
	const (
		nSessions = 10_000
		nActive   = 64
		nRounds   = 4
		chunk     = 500
	)
	cfg := Config{
		MaxSessions: nSessions,
		IdleTimeout: -1,
		Build:       scriptedBuild(1_000_000, 0),
	}
	mgr, cl, wc, done := newWireTestServer(t, cfg)
	defer done()

	ids := make([]string, nSessions)
	for i := range ids {
		s, err := mgr.Create(runner.Spec{Target: "scripted", Workload: "idle"}, 16)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		ids[i] = s.ID
	}
	if got := mgr.LiveCount(); got != nSessions {
		t.Fatalf("%d sessions live, want %d", got, nSessions)
	}
	// The bound: workers + janitor + wire/HTTP plumbing + the test
	// harness — two orders of magnitude below the session count.
	if got, limit := runtime.NumGoroutine(), 100+4*runtime.GOMAXPROCS(0); got > limit {
		t.Fatalf("%d goroutines with %d idle sessions (limit %d): idle sessions are not free", got, nSessions, limit)
	}

	var totalStepped, stepCalls, wireCalls atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < nActive; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := ids[i*(nSessions/nActive)]
			for r := 0; r < nRounds; r++ {
				if i%2 == 0 {
					res := cl.step(id, chunk)
					totalStepped.Add(res.Stepped)
				} else {
					resp, err := wc.Step(id, chunk, 0)
					if err != nil {
						t.Errorf("wire step %s: %v", id, err)
						return
					}
					totalStepped.Add(resp.Stepped)
					wireCalls.Add(1)
				}
				stepCalls.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Still bounded after the burst (allow keep-alive connections a
	// moment to wind down).
	limit := 100 + 4*runtime.GOMAXPROCS(0)
	waitFor(t, func() bool { return runtime.NumGoroutine() <= limit })

	// Exact reconciliation across both planes, scraped like
	// Prometheus would.
	resp, body := cl.do("GET", "/metrics", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	if got := metricValue(t, text, "osmserve_cycles_simulated_total"); got != totalStepped.Load() {
		t.Fatalf("cycles_simulated_total = %d, clients stepped %d", got, totalStepped.Load())
	}
	if got := metricValue(t, text, "osmserve_step_requests_total"); got != stepCalls.Load() {
		t.Fatalf("step_requests_total = %d, clients made %d", got, stepCalls.Load())
	}
	if got := metricValue(t, text, "osmserve_wire_requests_total"); got != wireCalls.Load() {
		t.Fatalf("wire_requests_total = %d, wire clients made %d", got, wireCalls.Load())
	}
	if got := metricValue(t, text, "osmserve_sessions_live"); got != nSessions {
		t.Fatalf("sessions_live = %d, want %d", got, nSessions)
	}
	if got := metricValue(t, text, "osmserve_steps_rejected_total"); got != 0 {
		t.Fatalf("steps_rejected_total = %d, want 0", got)
	}
	if got := metricValue(t, text, "osmserve_request_panics_total"); got != 0 {
		t.Fatalf("request_panics_total = %d, want 0", got)
	}
	if got := metricValue(t, text, "osmserve_step_queue_depth"); got != 0 {
		t.Fatalf("step_queue_depth = %d after quiesce, want 0", got)
	}
	if got := mgr.Metrics.StepLatency.Count(); got != stepCalls.Load() {
		t.Fatalf("step latency histogram holds %d observations, want %d", got, stepCalls.Load())
	}
	quanta := metricValue(t, text, "osmserve_step_quanta_total")
	if quanta < stepCalls.Load() {
		t.Fatalf("step_quanta_total = %d, below the request count %d", quanta, stepCalls.Load())
	}
}

// A full run queue sheds load with a typed refusal on both planes —
// HTTP 429 and wire NackBackpressure — and counts every refusal.
func TestStepBackpressure(t *testing.T) {
	// One worker, queue of one, slow scripted sessions: the second
	// concurrent step occupies the queue slot and the third must be
	// refused.
	cfg := Config{
		MaxSessions:    8,
		IdleTimeout:    -1,
		Workers:        1,
		MaxQueuedSteps: 1,
		Build:          scriptedBuild(1_000_000, time.Millisecond),
	}
	mgr, cl, wc, done := newWireTestServer(t, cfg)
	defer done()
	s, err := mgr.Create(runner.Spec{Target: "scripted"}, 16)
	if err != nil {
		t.Fatal(err)
	}

	// Park one long step on the only queue slot.
	started := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		close(started)
		_, err := mgr.Step(s, 500, time.Minute)
		finished <- err
	}()
	<-started
	waitFor(t, func() bool { return mgr.sched.depth() == 1 })

	// Both planes must now refuse instantly.
	resp, _ := cl.doJSON("POST", "/v1/sessions/"+s.ID+"/step", StepRequest{Cycles: 10}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP step on full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	_, err = wc.Step(s.ID, 10, 0)
	var ne *wire.NackError
	if !errors.As(err, &ne) || ne.Code != wire.NackBackpressure {
		t.Fatalf("wire step on full queue: %v, want NackBackpressure", err)
	}
	if got := mgr.Metrics.StepsRejected.Load(); got != 2 {
		t.Fatalf("steps_rejected = %d, want 2", got)
	}
	if err := <-finished; err != nil {
		t.Fatalf("parked step: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// Shutdown must flush in-flight responses before closing connections:
// a step executing when the drain starts still delivers its complete
// response frame, and only then does the connection die.
func TestWireShutdownFlushesInFlight(t *testing.T) {
	cfg := Config{
		MaxSessions: 4,
		IdleTimeout: -1,
		Build:       scriptedBuild(1_000_000, 100*time.Microsecond),
	}
	mgr, _, httpDone := newTestServer(t, cfg)
	defer httpDone()
	ws := NewWireServer(mgr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ws.Serve(ln) }()
	wc, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	s, err := mgr.Create(runner.Spec{Target: "scripted"}, 16)
	if err != nil {
		t.Fatal(err)
	}

	type stepOut struct {
		resp wire.StepResponse
		err  error
	}
	out := make(chan stepOut, 1)
	go func() {
		// ~100ms of scripted work: comfortably in flight when the
		// drain begins, comfortably inside its deadline.
		resp, err := wc.Step(s.ID, 1000, time.Minute)
		out <- stepOut{resp, err}
	}()
	waitFor(t, func() bool { return mgr.sched.depth() > 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ws.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	got := <-out
	if got.err != nil {
		t.Fatalf("in-flight step lost to shutdown: %v", got.err)
	}
	if got.resp.Stepped != 1000 {
		t.Fatalf("in-flight step returned %d cycles, want 1000", got.resp.Stepped)
	}
	// The drained listener accepts nothing further.
	if _, err := wire.Dial(ln.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	// And the existing connection is closed once flushed.
	if _, err := wc.Step(s.ID, 1, 0); err == nil {
		t.Fatal("request succeeded on a drained connection")
	}
}

// Concurrent steps on one session interleave through the scheduler
// (they used to queue on the session mutex): all succeed, and the
// session's cycle accounting stays exact.
func TestConcurrentStepsOneSession(t *testing.T) {
	cfg := Config{
		MaxSessions: 2,
		IdleTimeout: -1,
		Build:       scriptedBuild(1_000_000, 0),
	}
	mgr, _, wc, done := newWireTestServer(t, cfg)
	defer done()
	s, err := mgr.Create(runner.Spec{Target: "scripted"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	const (
		nClients = 8
		chunk    = 5000 // larger than the 4096-cycle quantum: forces requeues
	)
	var stepped atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := wc.Step(s.ID, chunk, 0)
			if err != nil {
				t.Errorf("concurrent step: %v", err)
				return
			}
			stepped.Add(resp.Stepped)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := stepped.Load(); got != nClients*chunk {
		t.Fatalf("clients stepped %d cycles total, want %d", got, nClients*chunk)
	}
	info := mgr.Info(s)
	if info.Cycle != nClients*chunk || info.CyclesStepped != nClients*chunk {
		t.Fatalf("session at cycle %d (stepped %d), want %d", info.Cycle, info.CyclesStepped, nClients*chunk)
	}
	if info.State != StatePaused {
		t.Fatalf("state %q after concurrent steps, want paused", info.State)
	}
}

// The wire metrics render under their documented names.
func TestWireMetricsRender(t *testing.T) {
	m := NewMetrics()
	m.WireRequests.Add(2)
	m.WireNacks.Add(1)
	m.WireConnections.Add(1)
	m.StepsRejected.Add(4)
	m.StepQuanta.Add(9)
	m.QueueDepth = func() int { return 3 }
	var b strings.Builder
	m.Render(&b)
	out := b.String()
	for _, want := range []string{
		"osmserve_wire_requests_total 2",
		"osmserve_wire_nacks_total 1",
		"osmserve_wire_connections_total 1",
		"osmserve_steps_rejected_total 4",
		"osmserve_step_quanta_total 9",
		"# TYPE osmserve_step_queue_depth gauge",
		"osmserve_step_queue_depth 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// A simulator panic on the step scheduler's worker goroutine is
// isolated like a request panic on either protocol plane: the step
// gets an explicit error, the session reads broken, and the worker
// keeps serving other sessions. Sessions of the source "panic" build,
// through Config.Build, a model whose step panics mid-cycle; every
// other spec builds the real model.
func TestStepPanicIsolated(t *testing.T) {
	const bad = "panic"
	build := func(spec runner.Spec) (*runner.Instance, error) {
		if spec.Src != bad {
			return runner.New(spec)
		}
		return runner.NewFromHooks(runner.Hooks{
			Spec: spec,
			Arch: "arm",
			Step: func() error { panic("model: corrupt pipeline state") },
		}), nil
	}
	mgr, cl, wc, done := newWireTestServer(t, Config{Workers: 1, Build: build})
	defer done()

	viaHTTP := cl.create(runner.Spec{Target: "strongarm", Src: bad})
	resp, data := cl.doJSON("POST", "/v1/sessions/"+viaHTTP.ID+"/step", StepRequest{Cycles: 100}, nil)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(data), "step panic") {
		t.Fatalf("HTTP step of the bad program: status %d: %s", resp.StatusCode, data)
	}

	viaWire := cl.create(runner.Spec{Target: "strongarm", Src: bad})
	_, err := wc.Step(viaWire.ID, 100, 0)
	var ne *wire.NackError
	if !errors.As(err, &ne) || ne.Code != wire.NackConflict || !strings.Contains(ne.Error(), "step panic") {
		t.Fatalf("wire step of the bad program: %v, want a conflict NACK naming the panic", err)
	}

	for _, id := range []string{viaHTTP.ID, viaWire.ID} {
		if st := cl.info(id).State; st != StateBroken {
			t.Fatalf("session %s is %q after the panic, want broken", id, st)
		}
	}
	if got := mgr.Metrics.Panics.Load(); got != 2 {
		t.Fatalf("panic counter = %d, want 2", got)
	}
	// The one worker survived: other sessions step to completion on
	// both planes.
	good := runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 20}
	cl.stepToDone(cl.create(good).ID, 5_000)
	wireStepToDone(t, wc, cl.create(good).ID, 5_000)
}

// A program that loads from beyond the RAM image fails its step with
// an error naming the address, on either plane: the session reads
// broken, and nothing panics.
func TestStepOutOfImageLoadBreaksSession(t *testing.T) {
	mgr, cl, wc, done := newWireTestServer(t, Config{Workers: 1})
	defer done()
	const bad = "\tmov r0, #0x10000000\n\tldr r1, [r0]\n\tmov r0, #0\n\tswi #0\n"
	const want = "access at 0x10000000+4 beyond the 0x100000-byte memory"

	viaHTTP := cl.create(runner.Spec{Target: "strongarm", Src: bad})
	resp, data := cl.doJSON("POST", "/v1/sessions/"+viaHTTP.ID+"/step", StepRequest{Cycles: 100}, nil)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(data), want) {
		t.Fatalf("HTTP step of the bad program: status %d: %s", resp.StatusCode, data)
	}
	viaWire := cl.create(runner.Spec{Target: "strongarm", Src: bad})
	_, err := wc.Step(viaWire.ID, 100, 0)
	var ne *wire.NackError
	if !errors.As(err, &ne) || ne.Code != wire.NackConflict || !strings.Contains(ne.Error(), want) {
		t.Fatalf("wire step of the bad program: %v, want a conflict NACK naming the address", err)
	}
	for _, id := range []string{viaHTTP.ID, viaWire.ID} {
		if st := cl.info(id).State; st != StateBroken {
			t.Fatalf("session %s is %q after the failed step, want broken", id, st)
		}
	}
	if got := mgr.Metrics.Panics.Load(); got != 0 {
		t.Fatalf("panic counter = %d, want 0", got)
	}
}
