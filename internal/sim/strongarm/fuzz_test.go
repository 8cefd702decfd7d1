package strongarm

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

	"repro/internal/isa/arm"
	"repro/internal/mem"
	"repro/internal/osm"
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
		switch want := fmt.Sprintf("strongarm sim: snapshot version %d", v); {
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

// TestRestoreRejectsV1: version 1 re-decoded each in-flight operation
// from the word RAM held at its PC, which a store into code may have
// replaced since the fetch; it is refused by name, not misparsed.
func TestRestoreRejectsV1(t *testing.T) {
	b := fuzzSeeds(t)[0]
	// Magic (4 bytes), then the length-prefixed header, then the
	// version.
	at := 4 + 4 + len(simSnapHeader)
	binary.LittleEndian.PutUint16(b[at:], 1)
	err := fuzzSim(t).Restore(b)
	if err == nil || !strings.Contains(err.Error(), "strongarm sim: snapshot version 1") {
		t.Fatalf("v1 snapshot: got %v, want the version error", err)
	}
}

// TestRestoreRejectsBadWriters: the scoreboard's writer list names
// each granted machine once, with destinations inside the scoreboard.
// A repeated machine index used to collapse silently into one grant,
// and a destination of 99 restored and then panicked at its retire;
// both are refused.
func TestRestoreRejectsBadWriters(t *testing.T) {
	le := binary.LittleEndian
	s := fuzzSim(t)
	// The writer list follows the scoreboard block: per entry, the
	// pending count and the forwarding time, 8 bytes each.
	var b []byte
	list := -1
	for list < 0 {
		if s.Cycle() == 2000 {
			t.Fatal("no cycle with two writers, the first with a destination")
		}
		if err := s.StepCycle(); err != nil {
			t.Fatal(err)
		}
		var err error
		if b, err = s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		var block []byte
		for i := range s.regs.pending {
			block = le.AppendUint64(block, uint64(s.regs.pending[i]))
			block = le.AppendUint64(block, s.regs.readyAt[i])
		}
		at := bytes.Index(b, block)
		if at < 0 {
			t.Fatal("scoreboard block not found in the snapshot")
		}
		at += len(block)
		if le.Uint64(b[at:]) >= 2 && le.Uint64(b[at+16:]) >= 1 {
			list = at
		}
	}
	first := list + 8 // entry 0: machine index, destination count, destinations
	second := first + 16 + 8*int(le.Uint64(b[first+8:]))
	if err := fuzzSim(t).Restore(b); err != nil {
		t.Fatalf("unedited snapshot: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(b []byte)
		want string
	}{
		{"repeated machine", func(b []byte) { copy(b[second:second+8], b[first:first+8]) }, "repeats machine"},
		{"destination 99", func(b []byte) { le.PutUint64(b[first+16:], 99) }, "destination 99 outside [0, 16)"},
		{"negative destination", func(b []byte) { le.PutUint64(b[first+16:], ^uint64(0)) }, "destination -1 outside [0, 16)"},
	} {
		bad := slices.Clone(b)
		c.edit(bad)
		err := fuzzSim(t).Restore(bad)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestRestoreAfterCodeStore: an operation fetched before a store
// rewrote its word resumes with the word it was fetched with. The
// program's store replaces the instruction right after it, which is
// already in decode when the store executes; a snapshot taken at every
// cycle must restore into the uninterrupted run's tail. The ISS
// executes the word RAM holds, so the two words differ only in the
// timing the model derives from the fetched one: here the replacement
// load's D-cache miss (a line no other access touches), so the caches
// stay on.
func TestRestoreAfterCodeStore(t *testing.T) {
	rp, err := arm.Assemble("\tldr r3, [r5, #256]\n")
	if err != nil {
		t.Fatal(err)
	}
	p, err := arm.Assemble(fmt.Sprintf(`
	mov r5, #12
	ldr r4, [r5, #12]
	str r4, [r5]
	add r3, r3, #1
	mov r0, #0
	swi #0
	.word %#x
`, rp.Words[0]))
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*Sim, *osm.Recorder) {
		s, err := New(p, Config{})
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
			t.Fatalf("cut %d: %v", cut, err)
		}
		if _, err := r.Run(1000); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := refRec.EventsSince(cut)
		if r.Cycle() != ref.Cycle() || r.ISS.CPU.R[3] != ref.ISS.CPU.R[3] || !slices.Equal(rec.Events(), want) {
			t.Fatalf("cut %d: restored run ends at cycle %d with r3=%#x after %d transitions, uninterrupted at %d with r3=%#x after %d",
				cut, r.Cycle(), r.ISS.CPU.R[3], len(rec.Events()), ref.Cycle(), ref.ISS.CPU.R[3], len(want))
		}
	}
}
