package ppc750

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/isa/ppc"
	"repro/internal/mem"
	"repro/internal/osm"
	"repro/internal/snap"
	"repro/internal/workload"
)

// fuzzSim builds the small restore target FuzzRestore decodes into: a
// 16 KiB image without caches, so every input gets a fresh model
// cheaply.
func fuzzSim(tb testing.TB) *Sim {
	tb.Helper()
	p, err := workload.ByName("gsm/dec").PPCProgram(10)
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

// TestCheckedInSeedsRestore: the checked-in v<N>-cycle-* corpus
// entries of the current format N are real snapshots, so the fuzzer
// starts from inputs that reach every component of the decoder; a
// format change that leaves them stale, or a version bump that adds
// none, fails here. Entries of a retired format stay in the corpus as
// real old snapshots and must get that version's error, not a
// misparse.
func TestCheckedInSeedsRestore(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzRestore/v*-cycle-*")
	if err != nil {
		t.Fatal(err)
	}
	current := 0
	for _, name := range files {
		var v, cycle int
		if _, err := fmt.Sscanf(filepath.Base(name), "v%d-cycle-%d", &v, &cycle); err != nil {
			t.Fatalf("%s: not named v<version>-cycle-<cycle>: %v", name, err)
		}
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
		err = fuzzSim(t).Restore([]byte(b))
		switch want := fmt.Sprintf("ppc750 sim: snapshot version %d", v); {
		case v == simSnapVersion:
			current++
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case v > simSnapVersion:
			t.Errorf("%s: names a version newer than this build's %d", name, simSnapVersion)
		case err == nil || !strings.Contains(err.Error(), want):
			t.Errorf("%s: got %v, want the version error", name, err)
		}
	}
	if current == 0 {
		t.Fatalf("no checked-in seeds in the current format v%d", simSnapVersion)
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

// TestRestoreHostilePC: an op record whose pc sits at the top of the
// address space restores without reading past the RAM image (pc+4
// must not wrap around the bounds check).
func TestRestoreHostilePC(t *testing.T) {
	s := fuzzSim(t)
	for s.Cycle() < 600 {
		if err := s.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	s.ops[0].pc = 0xfffffffc
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r := fuzzSim(t)
	if err := r.Restore(b); err != nil {
		t.Fatal(err)
	}
	if r.ops[0].decodeOK {
		t.Fatal("an op beyond the RAM image decoded as an instruction")
	}
}

// TestRestoreRejectsV1: the pre-op-table format (v1) and the format
// that re-decoded each in-flight op from the word RAM held at its PC
// (v2), which a store into code may have replaced since the fetch, get
// the explicit version error, not a misparse.
func TestRestoreRejectsV1(t *testing.T) {
	for _, v := range []uint16{1, 2} {
		b := fuzzSeeds(t)[0]
		// Magic (4 bytes), then the length-prefixed header, then the
		// version.
		at := 4 + 4 + len(simSnapHeader)
		binary.LittleEndian.PutUint16(b[at:], v)
		err := fuzzSim(t).Restore(b)
		if want := fmt.Sprintf("ppc750 sim: snapshot version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d snapshot: got %v, want the version error", v, err)
		}
	}
}

// TestRestoreRejectsBadRefs: a producer naming a machine outside the
// population is refused.
func TestRestoreRejectsBadRefs(t *testing.T) {
	s := fuzzSim(t)
	for s.Cycle() < 600 {
		if err := s.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	s.ren.lastWriter[3] = ref{slot: len(s.ops), age: 1}
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := fuzzSim(t).Restore(b); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range writer ref: got %v, want a range error", err)
	}
}

// TestRenameRestoreBoundsResultCount: each result time is 8 bytes, so
// a region claiming as many results as it has bytes is refused as
// implausible before anything is allocated for them.
func TestRenameRestoreBoundsResultCount(t *testing.T) {
	const pad = 4096
	w := snap.NewWriter()
	w.Version(renamerSnapVersion)
	w.U64(0)   // cycle
	w.Int(pad) // result count: every remaining byte
	w.Bytes32(make([]byte, pad-4))
	err := newRenamer(6).RestoreState(nil, snap.NewReader(w.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("result count of %d in %d bytes: err = %v, want implausible", pad, pad, err)
	}
}

// TestRestoreAfterCodeStore: an op fetched before a store rewrote its
// word resumes with the word it was fetched with. The program's store
// replaces the instruction right after it, which is already in the
// fetch queue when the store executes at dispatch; a snapshot taken
// at every cycle must restore into the uninterrupted run's tail.
func TestRestoreAfterCodeStore(t *testing.T) {
	for _, repl := range []string{"lwz r3, 0(r0)", "divw r3, r4, r4"} {
		rp, err := ppc.Assemble("\t" + repl + "\n")
		if err != nil {
			t.Fatal(err)
		}
		p, err := ppc.Assemble(fmt.Sprintf(`
	lwz r4, 20(r0)
	stw r4, 8(r0)
	addi r3, r3, 1
	li r0, 1
	sc
	.word %#x
`, rp.Words[0]))
		if err != nil {
			t.Fatal(err)
		}
		build := func() (*Sim, *osm.Recorder) {
			s, err := New(p, perfect())
			if err != nil {
				t.Fatal(err)
			}
			rec := osm.NewRecorder()
			s.Director().Tracer = rec
			return s, rec
		}
		ref, refRec := build()
		if _, err := ref.Run(1000); err != nil {
			t.Fatal(err)
		}
		for cut := uint64(1); cut < ref.Cycle(); cut++ {
			s, _ := build()
			for s.Cycle() < cut {
				if err := s.StepCycle(); err != nil {
					t.Fatal(err)
				}
			}
			b, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r, rec := build()
			if err := r.Restore(b); err != nil {
				t.Fatalf("%s, cut %d: %v", repl, cut, err)
			}
			if _, err := r.Run(1000); err != nil {
				t.Fatalf("%s, cut %d: %v", repl, cut, err)
			}
			want := refRec.EventsSince(cut)
			if r.Cycle() != ref.Cycle() || r.ISS.CPU.R[3] != ref.ISS.CPU.R[3] || !slices.Equal(rec.Events(), want) {
				t.Fatalf("%s, cut %d: restored run ends at cycle %d with r3=%#x after %d transitions, uninterrupted at %d with r3=%#x after %d",
					repl, cut, r.Cycle(), r.ISS.CPU.R[3], len(rec.Events()), ref.Cycle(), ref.ISS.CPU.R[3], len(want))
			}
		}
	}
}
