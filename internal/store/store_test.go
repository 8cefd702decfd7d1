package store

import (
	"bytes"
	"compress/flate"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// snapshotChain fabricates a chain of blobs that mutate like real
// simulator snapshots: position-stable, a few dirty regions per step.
func snapshotChain(n, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	base := make([]byte, size)
	rng.Read(base)
	// Most of a snapshot is a mostly-zero RAM image.
	for i := size / 4; i < size; i++ {
		if rng.Intn(16) != 0 {
			base[i] = 0
		}
	}
	chain := make([][]byte, n)
	for i := range chain {
		blob := make([]byte, size)
		copy(blob, base)
		chain[i] = blob
		// Dirty a handful of small regions for the next cut.
		for k := 0; k < 3; k++ {
			at := rng.Intn(size - 64)
			rng.Read(base[at : at+64])
		}
	}
	return chain
}

func testStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	for _, opts := range []Options{{}, {NoCompress: true}, {ChunkSize: 256}} {
		s := testStore(t, opts)
		blob := snapshotChain(1, 40_000, 7)[0]
		if _, err := s.Put("r1", 100, blob); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("r1", 100)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blob) {
			t.Fatalf("opts %+v: round trip not byte-identical", opts)
		}
		if _, err := s.Get("r1", 99); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get at absent cycle: %v", err)
		}
		if _, err := s.Get("nope", 100); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get of absent run: %v", err)
		}
	}
}

// A dedup chain of 3+ checkpoints must (a) restore every cut
// byte-identical and (b) cost far less than storing each cut whole.
func TestDedupChainByteIdentity(t *testing.T) {
	s := testStore(t, Options{})
	chain := snapshotChain(5, 60_000, 42)
	var total, newBytes int64
	for i, blob := range chain {
		st, err := s.Put("job", uint64((i+1)*1000), blob)
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(blob))
		newBytes += st.NewBytes
		if i > 0 && st.NewChunks == st.Chunks {
			t.Fatalf("cut %d: no chunk deduplicated against the previous checkpoint", i)
		}
	}
	for i := range chain {
		got, err := s.Get("job", uint64((i+1)*1000))
		if err != nil {
			t.Fatalf("cut %d: %v", i, err)
		}
		if !bytes.Equal(got, chain[i]) {
			t.Fatalf("cut %d not byte-identical after dedup", i)
		}
	}
	if newBytes >= total/2 {
		t.Fatalf("chain stored %d bytes for %d raw — dedup+codec bought less than 2x", newBytes, total)
	}
}

func TestAtReturnsNearestAtOrBefore(t *testing.T) {
	s := testStore(t, Options{})
	for _, cycle := range []uint64{100, 300, 500} {
		if _, err := s.Put("r", cycle, []byte{byte(cycle / 100)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		ask, want uint64
	}{{100, 100}, {299, 100}, {300, 300}, {450, 300}, {500, 500}, {1 << 40, 500}} {
		e, blob, err := s.At("r", tc.ask)
		if err != nil {
			t.Fatalf("At(%d): %v", tc.ask, err)
		}
		if e.Cycle != tc.want || blob[0] != byte(tc.want/100) {
			t.Fatalf("At(%d) = cycle %d", tc.ask, e.Cycle)
		}
	}
	if _, _, err := s.At("r", 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("At before first checkpoint: %v", err)
	}
	e, _, err := s.Latest("r")
	if err != nil || e.Cycle != 500 {
		t.Fatalf("Latest = %d, %v", e.Cycle, err)
	}
}

func TestPutReplacesSameCycle(t *testing.T) {
	s := testStore(t, Options{})
	s.Put("r", 10, []byte("old"))
	s.Put("r", 10, []byte("new"))
	got, err := s.Get("r", 10)
	if err != nil || string(got) != "new" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	entries, _ := s.Entries("r")
	if len(entries) != 1 {
		t.Fatalf("replacement grew the index to %d entries", len(entries))
	}
}

func TestPutRejectsBadRunNames(t *testing.T) {
	s := testStore(t, Options{})
	for _, run := range []string{"", "..", "a/b", "x y", "\x00"} {
		if _, err := s.Put(run, 0, []byte("x")); err == nil {
			t.Fatalf("Put accepted run name %q", run)
		}
	}
}

func TestPutSurvivesCorruptIndex(t *testing.T) {
	s := testStore(t, Options{})
	if _, err := s.Put("r", 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(indexPath(s.root, "r"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("r", 2, []byte("two")); err != nil {
		t.Fatalf("Put on corrupt index: %v", err)
	}
	got, err := s.Get("r", 2)
	if err != nil || string(got) != "two" {
		t.Fatalf("Get after recovery = %q, %v", got, err)
	}
}

func TestGCSweepsUnreferencedChunks(t *testing.T) {
	s := testStore(t, Options{})
	chain := snapshotChain(3, 30_000, 9)
	for i, blob := range chain {
		s.Put("dead", uint64(i+1), blob)
	}
	s.Put("live", 1, chain[0][:10_000])

	// Everything referenced: sweep must remove nothing.
	st, err := s.GC(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.SweptChunks != 0 {
		t.Fatalf("GC swept %d referenced chunks", st.SweptChunks)
	}

	if err := s.DeleteRun("dead"); err != nil {
		t.Fatal(err)
	}
	st, err = s.GC(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.SweptChunks == 0 {
		t.Fatal("GC swept nothing after DeleteRun")
	}
	// The live run must still restore.
	if got, err := s.Get("live", 1); err != nil || !bytes.Equal(got, chain[0][:10_000]) {
		t.Fatalf("live run damaged by GC: %v", err)
	}
	// Second sweep finds a clean store.
	st, _ = s.GC(GCOptions{})
	if st.SweptChunks != 0 || st.KeptRecent != 0 {
		t.Fatalf("store not clean after GC: %+v", st)
	}
}

func TestGCAbortsOnCorruptIndex(t *testing.T) {
	s := testStore(t, Options{})
	s.Put("a", 1, []byte("aaa"))
	s.Put("b", 1, []byte("bbb"))
	os.WriteFile(indexPath(s.root, "a"), []byte("garbage"), 0o644)
	if _, err := s.GC(GCOptions{}); err == nil {
		t.Fatal("GC proceeded with an unreadable index")
	}
	// b's chunks must be untouched.
	if got, err := s.Get("b", 1); err != nil || string(got) != "bbb" {
		t.Fatalf("run b damaged: %v", err)
	}
}

func TestGCGraceWindowSparesRecentFiles(t *testing.T) {
	s := testStore(t, Options{})
	s.Put("r", 1, []byte("fresh"))
	s.DeleteRun("r")
	st, err := s.GC(GCOptions{Grace: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if st.SweptChunks != 0 || st.KeptRecent == 0 {
		t.Fatalf("grace window ignored: %+v", st)
	}
}

// A writer that dies between writeAtomic's create and rename strands
// a temp file beside its target. GC must sweep such files in every
// directory the store writes to once they are older than the grace
// window, and count younger ones as spared.
func TestGCSweepsStaleTempFiles(t *testing.T) {
	s := testStore(t, Options{})
	if _, err := s.Put("r", 1, []byte("live")); err != nil {
		t.Fatal(err)
	}
	shards, err := os.ReadDir(filepath.Join(s.root, chunksDirName))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no chunk shard: %v", err)
	}
	dirs := []string{s.root, filepath.Join(s.root, runsDirName), filepath.Join(s.root, chunksDirName, shards[0].Name())}
	old := time.Now().Add(-time.Hour)
	var stale, fresh []string
	for _, dir := range dirs {
		for _, list := range []*[]string{&stale, &fresh} {
			f, err := os.CreateTemp(dir, tempPrefix+"*")
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			*list = append(*list, f.Name())
		}
	}
	for _, path := range stale {
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}

	st, err := s.GC(GCOptions{Grace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range stale {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("stale temp file %s survived the sweep", path)
		}
	}
	for _, path := range fresh {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("fresh temp file %s swept inside the grace window", path)
		}
	}
	if st.KeptRecent != len(fresh) || st.SweptChunks != 0 {
		t.Fatalf("GC stats %+v, want %d kept recent and no chunks swept", st, len(fresh))
	}
	if got, err := s.Get("r", 1); err != nil || string(got) != "live" {
		t.Fatalf("live run damaged by the temp sweep: %q, %v", got, err)
	}
}

func TestRunsAndStat(t *testing.T) {
	s := testStore(t, Options{})
	s.Put("b-run", 1, []byte("x"))
	s.Put("a-run", 1, []byte("y"))
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0] != "a-run" || runs[1] != "b-run" {
		t.Fatalf("Runs = %v", runs)
	}
	st, err := s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 2 || st.Entries != 2 || st.Chunks == 0 || st.LogicalBytes != 2 {
		t.Fatalf("Stat = %+v", st)
	}
}

func TestCorruptChunkDetected(t *testing.T) {
	s := testStore(t, Options{NoCompress: true})
	blob := bytes.Repeat([]byte("abcdefgh"), 1024)
	s.Put("r", 1, blob)
	// Flip a byte in every chunk file.
	err := walkChunks(s.root, func(path string, size int64) {
		data, _ := os.ReadFile(path)
		data[len(data)-1] ^= 0xff
		os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("r", 1); err == nil {
		t.Fatal("corrupt chunk not detected")
	}
}

func TestChunkersReassemble(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 63, 4096, 10_000, 100_000} {
		data := make([]byte, n)
		rng.Read(data)
		var total int
		for _, c := range splitFixed(data, 4096) {
			total += int(c.Len)
		}
		if total != n {
			t.Fatalf("n=%d: chunks cover %d bytes", n, total)
		}
	}
}

// TestPooledFlateMatchesFresh pins the writer pool to the on-disk
// format: a recycled compressor must emit exactly the bytes a fresh
// flate.NewWriter at BestSpeed would, for every chunk size and no
// matter what the pooled writer encoded before.
func TestPooledFlateMatchesFresh(t *testing.T) {
	fresh := func(raw []byte) []byte {
		var buf bytes.Buffer
		buf.WriteByte(codecFlate)
		zw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		zw.Write(raw)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() >= 1+len(raw) {
			return append([]byte{codecRaw}, raw...)
		}
		return buf.Bytes()
	}
	blobs := snapshotChain(4, 70_000, 11)
	// Reuse pooled writers across calls: interleave sizes so each
	// encode follows a different-sized one.
	for round := 0; round < 3; round++ {
		for _, size := range []int{1, 64, 4096, 16 << 10, 65_536} {
			raw := blobs[(round+size)%len(blobs)][:size]
			if got, want := encodeChunk(raw, false), fresh(raw); !bytes.Equal(got, want) {
				t.Fatalf("round %d size %d: pooled encoding (%d bytes) differs from fresh (%d bytes)",
					round, size, len(got), len(want))
			}
		}
	}
}
