package ppc750

import (
	"runtime"
	"testing"

	"repro/internal/isa/ppc"
	"repro/internal/osm"
	"repro/internal/snap"
	"repro/internal/workload"
)

// longRun builds the mpeg2/enc kernel at an iteration count that
// keeps it running well past 100k cycles.
func longRun(t *testing.T, cfg Config) *Sim {
	t.Helper()
	p, err := workload.ByName("mpeg2/enc").PPCProgram(600)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func stepTo(t *testing.T, s *Sim, cycle uint64) {
	t.Helper()
	for s.Cycle() < cycle {
		if s.Done() {
			t.Fatalf("program finished at cycle %d, before %d", s.Cycle(), cycle)
		}
		if err := s.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHeapBounded pins the model's host memory to its OSM population:
// 90k further cycles of an out-of-order run must not grow the live
// heap, because retired operations are recycled, not retained as
// dependence producers.
func TestHeapBounded(t *testing.T) {
	s := longRun(t, Config{})
	stepTo(t, s, 10_000)
	at10k := liveHeap()
	stepTo(t, s, 100_000)
	at100k := liveHeap()
	runtime.KeepAlive(s)
	if at100k > at10k && at100k-at10k >= 1<<20 {
		t.Fatalf("live heap grew %d bytes between cycles 10k (%d) and 100k (%d)", at100k-at10k, at10k, at100k)
	}
}

// snapshotLayout splits a snapshot into the ISS blob's size (registers
// plus the RAM image) and the op-table record count.
func snapshotLayout(t *testing.T, b []byte) (issBytes, opRecords int) {
	t.Helper()
	r := snap.NewReader(b)
	r.U32()     // magic
	r.Bytes32() // model header
	r.Version("ppc750 sim", simSnapVersion)
	before := r.Remaining()
	r.Blob() // ISS
	issBytes = before - r.Remaining()
	for i := 0; i < 4; i++ { // memory hierarchy, kernel, BHT, BTIC
		r.Blob()
	}
	r.U32() // fetch PC
	r.Bool()
	r.Bool()
	for i := 0; i < 4; i++ { // fetch resume, retired, dispatched, mispredicts
		r.U64()
	}
	r.Bytes32() // exec error
	opRecords = r.Blob().Int()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return issBytes, opRecords
}

// TestSnapshotSizeBounded: a snapshot's pipeline part does not depend
// on how long the run has been going. Between cycles 2k and 20k only
// the RAM image may change size, up to the few bytes of pipeline
// occupancy (queue entries, held tokens, pending result times), and
// the op table holds exactly one record per machine.
func TestSnapshotSizeBounded(t *testing.T) {
	s := longRun(t, Config{})
	var rest [2]int
	for i, cut := range []uint64{2_000, 20_000} {
		stepTo(t, s, cut)
		b, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		iss, records := snapshotLayout(t, b)
		if records != s.cfg.Machines {
			t.Fatalf("cycle %d: op table has %d records, want %d (one per machine)", cut, records, s.cfg.Machines)
		}
		rest[i] = len(b) - iss
	}
	if d := rest[1] - rest[0]; d > 512 || d < -512 {
		t.Fatalf("non-RAM snapshot part is %d bytes at 2k and %d at 20k: it must not grow with the run", rest[0], rest[1])
	}
}

// TestSteadyStateAllocs: once the decode table and the scheduler's
// scratch slices are warm, a 1024-cycle quantum allocates nothing.
func TestSteadyStateAllocs(t *testing.T) {
	for _, eng := range []osm.Engine{osm.EngineEvent, osm.EngineGenerated} {
		s := longRun(t, Config{Engine: eng})
		stepTo(t, s, 20_000)
		allocs := testing.AllocsPerRun(10, func() {
			stepTo(t, s, s.Cycle()+1024)
		})
		if allocs != 0 {
			t.Errorf("%v engine: %.1f allocations per 1024-cycle quantum, want 0", eng, allocs)
		}
	}
}

// TestOperandBounds sweeps the decodable instruction space — every
// primary opcode, every extended opcode of groups 19 and 31, both
// record/link bits, and register fields that select the zero-RA, BO
// and SPR special cases — and checks that no instruction exceeds the
// fixed producer-set and undo-log sizes decode enforces.
func TestOperandBounds(t *testing.T) {
	for opcd := uint32(0); opcd < 64; opcd++ {
		xos := uint32(1)
		if opcd == 19 || opcd == 31 {
			xos = 1024
		}
		for xo := uint32(0); xo < xos; xo++ {
			for _, rt := range []uint32{0, 4, 16, 20} {
				for _, ra := range []uint32{0, 5, 8, 9} {
					for _, rb := range []uint32{0, 6} {
						for low := uint32(0); low < 2; low++ {
							w := opcd<<26 | rt<<21 | ra<<16 | rb<<11 | xo<<1 | low
							ins, err := ppc.Decode(w)
							if err != nil {
								continue
							}
							srcs := trackedSrcs(&ins)
							dsts, _ := trackedDsts(&ins)
							if len(srcs) > maxSrcs || len(dsts) > maxDsts {
								t.Fatalf("%#08x (%v): %d sources, %d destinations exceed %d/%d",
									w, ins.Op, len(srcs), len(dsts), maxSrcs, maxDsts)
							}
						}
					}
				}
			}
		}
	}
}
