package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/runner"
	"repro/internal/snap"
)

// sessionLayout is the session-snapshot layout field by field, the
// one test encoder: a test decodes a real snapshot with layoutOf,
// damages a field or picks an older version, and encodes it back with
// bytes. Versions 1 and 2 name the target where later versions have
// the spec and trace limit, version 1 ends after the blob, and
// versions 2 and 3 put a flags byte before the recorder section.
type sessionLayout struct {
	version    uint16
	target     string // versions 1 and 2
	spec       string // JSON; version 3 on
	traceLimit int    // version 3 on
	cycle      uint64
	blob       []byte
	tracer     []byte // the recorder section
}

func layoutOf(t testing.TB, data []byte) sessionLayout {
	t.Helper()
	r := snap.NewReader(data)
	if r.U32() != snap.Magic || r.String() != sessHeader {
		t.Fatal("not in the session wire format")
	}
	l := sessionLayout{version: r.U16(), spec: r.String(), traceLimit: r.Int(), cycle: r.U64(), blob: r.Bytes32(), tracer: r.Bytes32()}
	if err := r.Close("session snapshot"); err != nil || l.version != 4 {
		t.Fatalf("session snapshot version %d: %v", l.version, err)
	}
	var spec runner.Spec
	if err := json.Unmarshal([]byte(l.spec), &spec); err != nil {
		t.Fatal(err)
	}
	l.target = spec.Target
	return l
}

func (l sessionLayout) bytes() []byte {
	w := snap.NewWriter()
	w.U32(snap.Magic)
	w.String(sessHeader)
	w.Version(l.version)
	if l.version >= 3 {
		w.String(l.spec)
		w.Int(l.traceLimit)
	} else {
		w.String(l.target)
	}
	w.U64(l.cycle)
	w.Bytes32(l.blob)
	if l.version == 2 || l.version == 3 {
		w.U8(1) // the flags byte: recorder state present
	}
	if l.version >= 2 {
		w.Bytes32(l.tracer)
	}
	return w.Bytes()
}

// hostileSnapshot is an upload a restore must refuse.
type hostileSnapshot struct {
	name string
	data []byte
}

// hostileSnapshots derives the uploads a restore must refuse from a
// real session snapshot: the last 40 bytes of its model blob flipped
// (a model section that fails after earlier sections restored), a
// recorder section in the version-1 recorder layout, and one trailing
// byte.
func hostileSnapshots(t testing.TB, good []byte) []hostileSnapshot {
	t.Helper()
	flipped := layoutOf(t, good)
	flipped.blob = append([]byte(nil), flipped.blob...)
	for i := len(flipped.blob) - 40; i < len(flipped.blob); i++ {
		flipped.blob[i] ^= 0xff
	}
	// Version 1 of the recorder record: total, checksum, step span,
	// window, then the per-edge and per-state counts.
	oldTrace := layoutOf(t, good)
	w := snap.NewWriter()
	w.Version(1)
	for i := 0; i < 4; i++ {
		w.U64(0)
	}
	w.Bool(false)
	for i := 0; i < 3; i++ {
		w.U32(0)
	}
	oldTrace.tracer = w.Bytes()
	return []hostileSnapshot{
		{"flipped model tail", flipped.bytes()},
		{"v1 recorder record", oldTrace.bytes()},
		{"trailing byte", append(append([]byte(nil), good...), 0)},
	}
}

// sameSession compares what a refused restore must leave alone.
func sameSession(a, b Info) bool {
	return a.State == b.State && a.Cycle == b.Cycle &&
		a.TraceTotal == b.TraceTotal && a.TraceChecksum == b.TraceChecksum
}

// TestRefusedRestoreLeavesSessionIntact: on both models, a session
// paused at cycle 500 is sent damaged copies of its own snapshot. Each
// upload gets 409 (the version-1 recorder record with an error naming
// that version) and leaves the state, cycle and whole-run trace as
// they were, and the session then steps to the cycle count and trace
// checksum of a run that never saw the uploads. The flipped model tail
// fails only after the ISS and memory records have restored, so a
// restore into the live model would leave it half-filled.
func TestRefusedRestoreLeavesSessionIntact(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	for _, spec := range diffSpecs {
		ref := runRef(t, spec)
		info := cl.create(spec)
		cl.step(info.ID, 500)
		resp, good := cl.do("GET", "/v1/sessions/"+info.ID+"/snapshot", nil, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: snapshot: status %d", spec.Target, resp.StatusCode)
		}
		for _, bad := range hostileSnapshots(t, good) {
			before := cl.info(info.ID)
			resp, body := cl.do("POST", "/v1/sessions/"+info.ID+"/restore", bad.data, "application/octet-stream")
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("%s/%s: restore: status %d (%s), want 409", spec.Target, bad.name, resp.StatusCode, body)
			}
			if bad.name == "v1 recorder record" && !strings.Contains(string(body), "recorder: snapshot version 1, this build reads 2") {
				t.Fatalf("%s/%s: error %s does not name the recorder version", spec.Target, bad.name, body)
			}
			if after := cl.info(info.ID); !sameSession(before, after) {
				t.Fatalf("%s/%s: refused restore changed the session: before %+v, after %+v", spec.Target, bad.name, before, after)
			}
		}
		final := cl.stepToDone(info.ID, 10_000)
		if final.Cycle != ref.cycles {
			t.Fatalf("%s: finished at %d cycles, want %d", spec.Target, final.Cycle, ref.cycles)
		}
		if got := cl.info(info.ID).TraceChecksum; got != ref.checksum {
			t.Fatalf("%s: trace checksum %s, want %s", spec.Target, got, ref.checksum)
		}
	}
}

// TestListAndInfoDuringRestores: list and info read a session's fixed
// fields and metadata mirror, never the model that Restore swaps, so
// they may run while the same session is restored over and over.
// Under -race this catches any read of the swapped model made without
// the session mutex.
func TestListAndInfoDuringRestores(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	info := cl.create(diffSpecs[0])
	cl.step(info.ID, 200)
	resp, good := cl.do("GET", "/v1/sessions/"+info.ID+"/snapshot", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/v1/sessions", "/v1/sessions/" + info.ID} {
				resp, err := cl.hc.Get(cl.base + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"arch": "arm"`) {
					t.Errorf("GET %s: status %d, %v: %s", path, resp.StatusCode, err, body)
					return
				}
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if resp, body := cl.do("POST", "/v1/sessions/"+info.ID+"/restore", good, "application/octet-stream"); resp.StatusCode != http.StatusOK {
			t.Errorf("restore %d: status %d: %s", i, resp.StatusCode, body)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// FuzzSessionRestore drives the whole session-restore path — the
// session-snapshot decoder, the recorder section and the model
// restore — with arbitrary uploads into a session paused mid-run, one
// per model. Restore must never panic; a refused upload leaves the
// session's state, cycle, registers, trace total and checksum as they
// were, and an accepted one leaves a session that snapshots again.
// After an accepted upload the session is restored to its paused
// state, so every input meets the same session.
func FuzzSessionRestore(f *testing.F) {
	mgr := NewManager(Config{Workers: 1})
	defer mgr.Close()
	sessions := make(map[string]*Session)
	paused := make(map[string][]byte)
	for _, spec := range diffSpecs {
		s, err := mgr.Create(spec, 256)
		if err != nil {
			f.Fatal(err)
		}
		var at uint64
		for _, cut := range []uint64{1, 300, 500, 2000} {
			if _, err := mgr.Step(s, cut-at, 0); err != nil {
				f.Fatal(err)
			}
			at = cut
			good, _, err := mgr.Snapshot(s)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(good)
			switch cut {
			case 300:
				paused[spec.Target] = good
			case 500:
				for _, bad := range hostileSnapshots(f, good) {
					f.Add(bad.data)
				}
			}
		}
		if _, err := mgr.Restore(s, paused[spec.Target]); err != nil {
			f.Fatal(err)
		}
		sessions[spec.Target] = s
	}

	type observed struct {
		info  Info
		regs  []runner.Reg
		total uint64
		sum   uint64
	}
	observe := func(s *Session) observed {
		var o observed
		o.info = mgr.Info(s)
		_, o.regs = mgr.Registers(s)
		_, o.total, o.sum = mgr.TraceEvents(s, ^uint64(0))
		return o
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		target := diffSpecs[0].Target
		if ss, err := DecodeSessionSnapshot(data); err == nil && sessions[ss.Spec.Target] != nil {
			target = ss.Spec.Target
		}
		s := sessions[target]
		before := observe(s)
		if _, err := mgr.Restore(s, data); err != nil {
			after := observe(s)
			if !sameSession(before.info, after.info) || before.total != after.total || before.sum != after.sum ||
				len(before.regs) != len(after.regs) {
				t.Fatalf("refused restore (%v) changed the session: before %+v, after %+v", err, before, after)
			}
			for i := range before.regs {
				if before.regs[i] != after.regs[i] {
					t.Fatalf("refused restore (%v) changed %s: %#x, was %#x", err, after.regs[i].Name, after.regs[i].Value, before.regs[i].Value)
				}
			}
			return
		}
		if _, _, err := mgr.Snapshot(s); err != nil {
			t.Fatalf("restored session does not snapshot: %v", err)
		}
		if _, err := mgr.Restore(s, paused[target]); err != nil {
			t.Fatalf("restoring the paused session back: %v", err)
		}
	})
}

// TestRestoreRefusesOtherSpec: a snapshot restores only into a session
// of its own spec. A dsp/fir snapshot uploaded into a gsm/dec session
// of the same target gets 409 naming both, leaves the session's state,
// cycle and whole-run trace as they were, and the session then steps
// to gsm/dec's reference cycles, reported values and trace checksum.
func TestRestoreRefusesOtherSpec(t *testing.T) {
	spec := diffSpecs[0]
	ref := runRef(t, spec)
	_, cl, done := newTestServer(t, Config{})
	defer done()
	info := cl.create(spec)
	cl.step(info.ID, 500)
	other := cl.create(runner.Spec{Target: spec.Target, Workload: "dsp/fir", N: 20})
	cl.step(other.ID, 500)
	resp, foreign := cl.do("GET", "/v1/sessions/"+other.ID+"/snapshot", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	before := cl.info(info.ID)
	resp, body := cl.do("POST", "/v1/sessions/"+info.ID+"/restore", foreign, "application/octet-stream")
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "dsp/fir") || !strings.Contains(string(body), "gsm/dec") {
		t.Fatalf("restore of another spec's snapshot: status %d (%s), want 409 naming both", resp.StatusCode, body)
	}
	if after := cl.info(info.ID); !sameSession(before, after) {
		t.Fatalf("refused restore changed the session: before %+v, after %+v", before, after)
	}
	final := cl.stepToDone(info.ID, 10_000)
	if final.Cycle != ref.cycles || fmt.Sprint(final.Result.Reported) != fmt.Sprint(ref.reported) {
		t.Fatalf("finished at %d cycles reporting %v, want %d reporting %v", final.Cycle, final.Result.Reported, ref.cycles, ref.reported)
	}
	if got := cl.info(info.ID).TraceChecksum; got != ref.checksum {
		t.Fatalf("trace checksum %s, want %s", got, ref.checksum)
	}
}

// TestPlaceFromSnapshot: on both models, a session's snapshot PUT under
// a fresh id enters a paused session at the snapshot's cycle (201),
// which steps to the reference run's cycles, registers, reported
// values and whole-run trace checksum. A second PUT of the id, now
// resident, gets 409.
func TestPlaceFromSnapshot(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	for _, spec := range diffSpecs {
		ref := runRef(t, spec)
		info := cl.create(spec)
		cut := ref.cycles / 2
		cl.step(info.ID, cut)
		resp, good := cl.do("GET", "/v1/sessions/"+info.ID+"/snapshot", nil, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: snapshot: status %d", spec.Target, resp.StatusCode)
		}
		id := "placed-" + spec.Target
		resp, body := cl.do("PUT", "/v1/sessions/"+id, good, "application/octet-stream")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: PUT: status %d: %s", spec.Target, resp.StatusCode, body)
		}
		var placed Info
		if err := json.Unmarshal(body, &placed); err != nil {
			t.Fatal(err)
		}
		if placed.ID != id || placed.Cycle != cut || placed.State != StatePaused || placed.Target != spec.Target {
			t.Fatalf("%s: placed %+v, want %s paused at cycle %d", spec.Target, placed, id, cut)
		}
		if resp, body := cl.do("PUT", "/v1/sessions/"+id, good, "application/octet-stream"); resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s: PUT onto a resident id: status %d (%s), want 409", spec.Target, resp.StatusCode, body)
		}
		final := cl.stepToDone(id, 10_000)
		if final.Cycle != ref.cycles || final.Result.Instrs != ref.instrs || fmt.Sprint(final.Result.Reported) != fmt.Sprint(ref.reported) {
			t.Fatalf("%s: placed run finished at %d cycles, %d instrs, reporting %v; want %d, %d, %v",
				spec.Target, final.Cycle, final.Result.Instrs, final.Result.Reported, ref.cycles, ref.instrs, ref.reported)
		}
		compareRegs(t, spec.Target+"/placed", ref.regs, cl.registers(id))
		if got := cl.info(id).TraceChecksum; got != ref.checksum {
			t.Fatalf("%s: placed trace checksum %s, want %s", spec.Target, got, ref.checksum)
		}
	}
}

// TestPlaceRefusesHostileSnapshots: on both models, each upload a
// restore must refuse, PUT under a fresh id, is refused with 409 and
// enters nothing: the live count is unchanged, the id answers 404, and
// a later create can still use it.
func TestPlaceRefusesHostileSnapshots(t *testing.T) {
	mgr, cl, done := newTestServer(t, Config{})
	defer done()
	for _, spec := range diffSpecs {
		info := cl.create(spec)
		cl.step(info.ID, 500)
		resp, good := cl.do("GET", "/v1/sessions/"+info.ID+"/snapshot", nil, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: snapshot: status %d", spec.Target, resp.StatusCode)
		}
		for i, bad := range hostileSnapshots(t, good) {
			id := fmt.Sprintf("hostile-%s-%d", spec.Target, i)
			live := mgr.LiveCount()
			resp, body := cl.do("PUT", "/v1/sessions/"+id, bad.data, "application/octet-stream")
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("%s/%s: PUT: status %d (%s), want 409", spec.Target, bad.name, resp.StatusCode, body)
			}
			if got := mgr.LiveCount(); got != live {
				t.Fatalf("%s/%s: refused PUT changed the live count %d -> %d", spec.Target, bad.name, live, got)
			}
			if resp, _ := cl.do("GET", "/v1/sessions/"+id, nil, ""); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s/%s: refused id answers %d, want 404", spec.Target, bad.name, resp.StatusCode)
			}
			resp, body = cl.doJSON("POST", "/v1/sessions", CreateRequest{Spec: spec, ID: id}, nil)
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("%s/%s: create under the refused id: status %d: %s", spec.Target, bad.name, resp.StatusCode, body)
			}
		}
	}
}

// A negative trace limit is refused at create (400) and inside a
// snapshot (409): a recorder with one panicked its worker on the
// first transition, taking every session of the process down.
func TestNegativeTraceLimitRefused(t *testing.T) {
	mgr, cl, done := newTestServer(t, Config{})
	defer done()
	limit := -1
	resp, body := cl.doJSON("POST", "/v1/sessions", CreateRequest{Spec: diffSpecs[0], TraceLimit: &limit}, nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "trace_limit") {
		t.Fatalf("create with trace_limit -1: status %d: %s", resp.StatusCode, body)
	}
	info := cl.create(diffSpecs[0])
	cl.step(info.ID, 100)
	resp, good := cl.do("GET", "/v1/sessions/"+info.ID+"/snapshot", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	l := layoutOf(t, good)
	l.traceLimit = -1
	resp, body = cl.do("PUT", "/v1/sessions/negative", l.bytes(), "application/octet-stream")
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "trace limit -1") {
		t.Fatalf("PUT of a snapshot with trace limit -1: status %d: %s", resp.StatusCode, body)
	}
	if n := mgr.LiveCount(); n != 1 {
		t.Fatalf("%d sessions live, want 1", n)
	}
}

// TestConcurrentPlaceOneWins: placements of one snapshot under one id
// race; exactly one enters the session (201) and every other gets 409,
// so an id is never resident twice.
func TestConcurrentPlaceOneWins(t *testing.T) {
	mgr, cl, done := newTestServer(t, Config{})
	defer done()
	info := cl.create(diffSpecs[0])
	cl.step(info.ID, 300)
	resp, good := cl.do("GET", "/v1/sessions/"+info.ID+"/snapshot", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	const n = 6
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := mgr.CreateFromSnapshot("raced", good)
			switch {
			case err == nil && s.ID == "raced":
				codes[i] = http.StatusCreated
			case errors.Is(err, ErrConflict):
				codes[i] = http.StatusConflict
			default:
				t.Errorf("placement %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	won := 0
	for _, c := range codes {
		if c == http.StatusCreated {
			won++
		}
	}
	if won != 1 || mgr.LiveCount() != 2 {
		t.Fatalf("%d placements won (codes %v), %d sessions live; want 1 and 2", won, codes, mgr.LiveCount())
	}
}
