// Multithread demonstrates Section 6 of the paper: modeling a
// multi-threaded core with the OSM formalism. Each operation state
// machine carries a thread tag; the tags participate in token
// transactions (the per-thread program counters and register files are
// separate token namespaces) and in the ranking of the machines (the
// director alternates thread priority each cycle, a round-robin
// fetch policy).
//
// The model is a 2-thread fine-grained multithreaded 3-stage core:
// one shared execution pipeline, per-thread architectural state. When
// one thread stalls on a long-latency operation, the other thread's
// operations keep the execute stage busy — the classic MT latency-
// hiding effect, visible directly in the printed utilization.
//
// Run with: go run ./examples/multithread
package main

import (
	"fmt"
	"log"

	"repro/internal/osm"
)

// mop is a toy operation: acc[thread] += imm, taking lat cycles in EX.
type mop struct {
	imm uint64
	lat uint64
}

func main() {
	const threads = 2
	// Per-thread programs: thread 0 suffers long-latency operations
	// (think cache misses), thread 1 runs short ones.
	progs := [threads][]mop{
		{{imm: 1, lat: 6}, {imm: 2, lat: 6}, {imm: 3, lat: 6}, {imm: 4, lat: 6}},
		{{imm: 10, lat: 1}, {imm: 20, lat: 1}, {imm: 30, lat: 1}, {imm: 40, lat: 1},
			{imm: 50, lat: 1}, {imm: 60, lat: 1}, {imm: 70, lat: 1}, {imm: 80, lat: 1}},
	}
	pcs := [threads]int{}
	acc := [threads]uint64{}
	retired := 0
	total := len(progs[0]) + len(progs[1])

	// Hardware layer: per-thread fetch slots (the thread contexts)
	// and one shared execute unit.
	ctx := osm.NewUnitManager("thread-ctx", threads)
	ex := osm.NewUnitManager("EX", 1)

	I := osm.NewState("I")
	F := osm.NewState("F")
	E := osm.NewState("E")

	// The thread tag is the context identifier, so a machine occupies
	// only its own thread's slot (the paper: "the tags are used as part
	// of the identifiers for token transactions").
	tag := func(m *osm.Machine) osm.TokenID { return osm.TokenID(m.Tag) }
	fetch := I.Connect("fetch", F, osm.AllocF(ctx, tag))
	fetch.When = func(m *osm.Machine) bool { return pcs[m.Tag] < len(progs[m.Tag]) }
	fetch.Action = func(m *osm.Machine) {
		op := progs[m.Tag][pcs[m.Tag]]
		pcs[m.Tag]++
		m.Ctx = &op
	}

	issue := F.Connect("issue", E, osm.ReleaseF(ctx, tag), osm.Alloc(ex, 0))
	issue.Action = func(m *osm.Machine) {
		op := m.Ctx.(*mop)
		acc[m.Tag] += op.imm
		if op.lat > 1 {
			ex.SetBusy(0, op.lat-1)
		}
	}

	done := E.Connect("retire", I, osm.Release(ex, 0))
	done.Action = func(m *osm.Machine) { retired++ }

	d := osm.NewDirector()
	d.AddManager(ctx, ex)
	// The thread tags contribute to the ranking: alternate which
	// thread gets priority each cycle (round-robin MT fetch).
	d.Rank = func(a, b *osm.Machine) bool {
		ai, bi := a.InInitial(), b.InInitial()
		if ai != bi {
			return bi
		}
		if !ai {
			return a.Age < b.Age
		}
		pref := int(d.StepCount()) % threads
		return (a.Tag == pref) && (b.Tag != pref)
	}
	for t := 0; t < threads; t++ {
		for k := 0; k < 2; k++ {
			m := osm.NewMachine(fmt.Sprintf("t%d.op%d", t, k), I)
			m.Tag = t
			d.AddMachine(m)
		}
	}

	busy := 0
	var cycles uint64
	for retired < total {
		if err := d.Step(); err != nil {
			log.Fatal(err)
		}
		cycles++
		if ex.Free() == 0 {
			busy++
		}
		if cycles > 1000 {
			log.Fatal("model wedged")
		}
	}

	fmt.Printf("2-thread fine-grained MT core: %d ops in %d cycles\n", total, cycles)
	fmt.Printf("thread 0 (long-latency ops): acc=%d\n", acc[0])
	fmt.Printf("thread 1 (short ops):        acc=%d\n", acc[1])
	fmt.Printf("execute-unit utilization:    %.0f%%\n", 100*float64(busy)/float64(cycles))
	soloCycles := 0
	for _, op := range progs[0] {
		soloCycles += int(op.lat) + 1
	}
	fmt.Printf("\nthread 0 alone would idle EX for long stretches (~%d cycles of\n", soloCycles)
	fmt.Println("mostly-stalled execution); thread 1's operations fill those slots.")
}
