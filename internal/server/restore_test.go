package server

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/osm"
	"repro/internal/runner"
	"repro/internal/snap"
)

// sessionBytes re-encodes a decoded session snapshot with the given
// flags byte, so a test can damage one field of a real snapshot.
func sessionBytes(t testing.TB, ss SessionSnapshot, flags uint8) []byte {
	t.Helper()
	rec := osm.NewRecorder()
	tracer := *ss.Tracer // a fork: ss stays readable
	if err := rec.LoadState(&tracer); err != nil {
		t.Fatal(err)
	}
	w := snap.NewWriter()
	w.U32(snap.Magic)
	w.String(sessHeader)
	w.Version(sessVersion)
	w.String(ss.Target)
	w.U64(ss.Cycle)
	w.Bytes32(ss.Blob)
	w.U8(flags)
	w.Blob(rec.SaveState)
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
// flags byte of 0 (no writer in this build emits it), and one
// trailing byte.
func hostileSnapshots(t testing.TB, good []byte) []hostileSnapshot {
	t.Helper()
	ss, err := DecodeSessionSnapshot(good)
	if err != nil {
		t.Fatal(err)
	}
	flipped := ss
	flipped.Blob = append([]byte(nil), ss.Blob...)
	for i := len(flipped.Blob) - 40; i < len(flipped.Blob); i++ {
		flipped.Blob[i] ^= 0xff
	}
	return []hostileSnapshot{
		{"flipped model tail", sessionBytes(t, flipped, sessFlagTracer)},
		{"flags 0", sessionBytes(t, ss, 0)},
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
// upload gets 409 (the flags case naming the flags) and leaves the
// state, cycle and whole-run trace as they were, and the session then
// steps to the cycle count and trace checksum of a run that never saw
// the uploads. The flipped model tail fails only after the ISS and
// memory records have restored, so a restore into the live model
// would leave it half-filled.
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
			if bad.name == "flags 0" && !strings.Contains(string(body), "flags 0x0") {
				t.Fatalf("%s/%s: error %s does not name the flags", spec.Target, bad.name, body)
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
		if ss, err := DecodeSessionSnapshot(data); err == nil && sessions[ss.Target] != nil {
			target = ss.Target
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
