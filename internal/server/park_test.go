package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/store"
)

// Parking goes through the chunk store and back: the blob a
// resurrection loads must be byte-identical to the snapshot the
// eviction wrote.
func TestParkStoreRoundTripByteIdentity(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{IdleTimeout: -1, ParkDir: dir})
	defer m.Close()

	s, err := m.Create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 40}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(s, 2000, time.Second); err != nil {
		t.Fatal(err)
	}
	want, cycle, err := m.Snapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.park(s); err != nil {
		t.Fatal(err)
	}

	meta, blob, err := LoadPark(dir, s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatal("park round trip through the store is not byte-identical")
	}
	if meta.Cycle != cycle || meta.Checksum != BlobChecksum(want) {
		t.Fatalf("park entry = %+v", meta)
	}
	// Placing the parked blob on a fresh manager continues the run
	// with trace continuity (cycle and checksum carried over), under
	// the spec and trace limit the snapshot names.
	m2 := NewManager(Config{IdleTimeout: -1})
	defer m2.Close()
	s2, err := m2.CreateFromSnapshot(s.ID, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Info(s2); got.Cycle != cycle || got.TraceChecksum != m.Info(s).TraceChecksum {
		t.Fatalf("placed at cycle %d with trace %s, parked at %d with %s", got.Cycle, got.TraceChecksum, cycle, m.Info(s).TraceChecksum)
	}
	if s2.Spec.Target != "strongarm" || s2.Spec.Workload != "dsp/fir" || s2.traceLimit != 128 {
		t.Fatalf("placed session has spec %+v, trace limit %d", s2.Spec, s2.traceLimit)
	}
}

// The leak fix: after a park is consumed, a GC sweep must leave zero
// unreferenced blobs or chunks in the park directory.
func TestParkGCAfterConsumeLeavesNothingUnreferenced(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{IdleTimeout: -1, ParkDir: dir})
	defer m.Close()

	// Park two sessions, consume one.
	var ids []string
	for i := 0; i < 2; i++ {
		s, err := m.Create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 40}, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(s, uint64(1000*(i+1)), time.Second); err != nil {
			t.Fatal(err)
		}
		if err := m.park(s); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	if err := ConsumePark(dir, ids[0]); err != nil {
		t.Fatal(err)
	}

	stats, err := m.ParkGC(0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SweptChunks == 0 {
		t.Fatal("consuming a park freed no chunks")
	}

	// The surviving park must still load...
	if _, _, err := LoadPark(dir, ids[1]); err != nil {
		t.Fatal(err)
	}
	// ...and a second sweep must find the store fully referenced:
	// every chunk on disk belongs to the remaining park.
	stats, err = m.ParkGC(0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SweptChunks != 0 || stats.KeptRecent != 0 {
		t.Fatalf("unreferenced files remain after gc: %+v", stats)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sstat, err := st.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if sstat.Runs != 1 {
		t.Fatalf("store not clean: %+v", sstat)
	}
}

// A parked snapshot whose spec names a field this build does not
// have — here the removed "scan" spec option — is refused, not
// resurrected under different settings.
func TestParkMetaRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{IdleTimeout: -1, ParkDir: dir})
	defer m.Close()
	s, err := m.Create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 40}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(s, 1500, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.park(s); err != nil {
		t.Fatal(err)
	}
	meta, blob, err := LoadPark(dir, s.ID)
	if err != nil {
		t.Fatal(err)
	}
	l := layoutOf(t, blob)
	l.spec = strings.Replace(l.spec, "{", `{"scan":true,`, 1)
	st, err := m.parkStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(s.ID, meta.Cycle, l.bytes()); err != nil {
		t.Fatal(err)
	}
	_, blob, err = LoadPark(dir, s.ID)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Config{IdleTimeout: -1})
	defer m2.Close()
	if _, err := m2.CreateFromSnapshot(s.ID, blob); err == nil || !strings.Contains(err.Error(), `unknown field "scan"`) {
		t.Fatalf("placing a park naming scan: got %v, want the unknown-field error", err)
	}
	if n := m2.LiveCount(); n != 0 {
		t.Fatalf("refused placement left %d sessions", n)
	}
}

// A park whose blob is not in the store — such as the old whole-blob
// `<checksum>.snap` layout — fails to load with the store's not-found
// error instead of being read from beside the store.
func TestParkOutsideStoreFails(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{IdleTimeout: -1, ParkDir: dir})
	defer m.Close()
	s, err := m.Create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 40}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(s, 1500, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.park(s); err != nil {
		t.Fatal(err)
	}
	meta, blob, err := LoadPark(dir, s.ID)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.parkStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteRun(s.ID); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, meta.Checksum+".snap"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPark(dir, s.ID); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("LoadPark of a whole-blob park: got %v, want store.ErrNotFound", err)
	}
}

// Content addressing dedups identical snapshot content to zero new
// chunks — across re-parks of the same session and across sessions
// that reached the same deterministic state.
func TestParkContentDedup(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{IdleTimeout: -1, ParkDir: dir})
	defer m.Close()

	st, err := m.parkStore()
	if err != nil {
		t.Fatal(err)
	}
	spec := runner.Spec{Target: "ppc750", Workload: "mpeg2/enc", N: 200}
	var blobs [][]byte
	var cycles []uint64
	ids := []string{"twin-a", "twin-b"}
	for _, id := range ids {
		s, err := m.CreateWithID(id, spec, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(s, 2000, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		blob, cycle, err := m.Snapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
		cycles = append(cycles, cycle)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("deterministic twin runs produced different snapshots; test premise broken")
	}
	first, err := st.Put(ids[0], cycles[0], blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	// (NewChunks may trail Chunks even here: repeated content inside
	// one blob dedups against itself.)
	if first.NewChunks == 0 || first.NewBytes == 0 {
		t.Fatalf("first park: %+v", first)
	}
	// The twin's park stores zero new chunks: its blob is
	// chunk-for-chunk the content already on disk.
	second, err := st.Put(ids[1], cycles[1], blobs[1])
	if err != nil {
		t.Fatal(err)
	}
	if second.NewChunks != 0 || second.NewBytes != 0 {
		t.Fatalf("identical content re-stored %d chunks (%d bytes)", second.NewChunks, second.NewBytes)
	}
	// Both parks restore byte-identically even though the chunks are
	// shared.
	for i, id := range ids {
		got, err := st.Get(id, cycles[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("park %s not byte-identical", id)
		}
	}
}

// The janitor parks idle-evicted sessions into the store and its GC
// hook reclaims consumed parks without disturbing live ones.
func TestJanitorParksIntoStore(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{IdleTimeout: 30 * time.Millisecond, ParkDir: dir})
	m.Start()
	defer m.Close()

	s, err := m.Create(runner.Spec{Target: "strongarm", Workload: "dsp/fir", N: 40}, 64)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := ReadParkMeta(dir, id); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never parked the idle session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, _, err := LoadPark(dir, id); err != nil {
		t.Fatal(err)
	}
	// The store, not the legacy layout, holds the blob.
	entries, err := os.ReadDir(filepath.Join(dir, "chunks"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no chunk shards written: %v", err)
	}
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".snap") {
			t.Fatalf("legacy blob %s written", de.Name())
		}
	}
}

// A park replaces any earlier park of the same id, even one at a later
// cycle: a restarted worker reuses its server-assigned ids, and a
// resurrection must never pick up the previous process's session.
func TestReparkReplacesPark(t *testing.T) {
	dir := t.TempDir()
	for i, spec := range []runner.Spec{
		{Target: "strongarm", Workload: "gsm/dec", N: 60},
		{Target: "strongarm", Workload: "dsp/fir", N: 40},
	} {
		m := NewManager(Config{IdleTimeout: -1, ParkDir: dir})
		s, err := m.Create(spec, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Step(s, uint64(3000-2000*i), time.Second); err != nil {
			t.Fatal(err)
		}
		want, cycle, err := m.Snapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.park(s); err != nil {
			t.Fatal(err)
		}
		m.Close()
		meta, blob, err := LoadPark(dir, s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Cycle != cycle || !bytes.Equal(blob, want) {
			t.Fatalf("%s: park loads cycle %d, parked at %d (byte-identical: %v)", spec.Workload, meta.Cycle, cycle, bytes.Equal(blob, want))
		}
	}
}
