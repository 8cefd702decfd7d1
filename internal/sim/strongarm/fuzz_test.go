package strongarm

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/workload"
)

// fuzzSim builds the small restore target FuzzRestore decodes into: a
// 16 KiB image without caches, so every input gets a fresh model
// cheaply.
func fuzzSim(tb testing.TB) *Sim {
	tb.Helper()
	p, err := workload.ByName("gsm/dec").ARMProgram(10)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(p, Config{RAMKB: 16, Hier: mem.HierarchyConfig{DisableCaches: true, DisableTLBs: true}})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// fuzzSeeds returns real snapshots of fuzzSim's program at three cut
// points: early fill, steady state, and near the end of the run.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	s := fuzzSim(tb)
	var seeds [][]byte
	for _, cut := range []uint64{100, 600, 1200} {
		for s.Cycle() < cut {
			if err := s.StepCycle(); err != nil {
				tb.Fatal(err)
			}
		}
		b, err := s.Snapshot()
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzRestore feeds arbitrary bytes to the snapshot decoder: Restore
// must return an error or succeed, never panic, and a successful
// restore must encode again.
func FuzzRestore(f *testing.F) {
	for _, b := range fuzzSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzSim(t)
		if err := s.Restore(data); err != nil {
			return
		}
		if _, err := s.Snapshot(); err != nil {
			t.Fatalf("restored state does not snapshot: %v", err)
		}
	})
}

// TestCheckedInSeedsRestore: the checked-in v*-cycle-* corpus entries
// are real snapshots in the current format, so the fuzzer starts from
// inputs that reach every component of the decoder. A format change
// that leaves them stale fails here.
func TestCheckedInSeedsRestore(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzRestore/v*-cycle-*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no checked-in seeds (%v)", err)
	}
	for _, name := range files {
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(string(text), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")\n")
		b, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus entry", name)
		}
		if err := fuzzSim(t).Restore([]byte(b)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRestoreRoundTrip: every seed restores into a fresh model and
// re-encodes byte-identically, so Restore decodes everything Snapshot
// writes.
func TestRestoreRoundTrip(t *testing.T) {
	for i, b := range fuzzSeeds(t) {
		s := fuzzSim(t)
		if err := s.Restore(b); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		again, err := s.Snapshot()
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("seed %d: re-snapshot differs from the restored bytes", i)
		}
	}
}

// TestRestoreHostilePC: an operation whose pc sits at the top of the
// address space restores without reading past the RAM image (pc+4
// must not wrap around the bounds check).
func TestRestoreHostilePC(t *testing.T) {
	s := fuzzSim(t)
	for s.Cycle() < 600 {
		if err := s.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	victim := -1
	for i, m := range s.director.Machines() {
		if m.Ctx != nil {
			victim = i
			ctxOf(m).pc = 0xfffffffc
			break
		}
	}
	if victim < 0 {
		t.Fatal("no operation in flight at cycle 600")
	}
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r := fuzzSim(t)
	if err := r.Restore(b); err != nil {
		t.Fatal(err)
	}
	op := ctxOf(r.director.Machines()[victim])
	if op.pc != 0xfffffffc || op.decodeOK {
		t.Fatal("an operation beyond the RAM image decoded as an instruction")
	}
}
