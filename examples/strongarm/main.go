// Strongarm runs the paper's first case study end to end: the six
// MediaBench-like kernels on the cycle-accurate StrongARM (SA-1100)
// OSM model, printing a Table-1-style row per kernel with checksum
// verification against the Go reference implementations.
//
// Run with: go run ./examples/strongarm
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/osm"
	"repro/internal/sim/strongarm"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	table := stats.NewTable("StrongARM OSM model (SA-1100 hierarchy, cold caches)",
		"benchmark", "instrs", "cycles", "CPI", "icache hit", "dcache hit", "checksum")
	for _, w := range workload.All() {
		n := w.DefaultN
		p, err := w.ARMProgram(n)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := strongarm.New(p, strongarm.Config{})
		if err != nil {
			log.Fatal(err)
		}
		st, err := sim.Run(1_000_000_000)
		if err != nil {
			log.Fatalf("%s: %v", w.Name, err)
		}
		check := "FAIL"
		if len(sim.ISS.Reported) == 1 && sim.ISS.Reported[0] == w.Ref(n) {
			check = "ok"
		}
		table.AddRowf(w.Name, st.Instrs, st.Cycles,
			fmt.Sprintf("%.2f", st.CPI()),
			fmt.Sprintf("%.2f%%", 100*st.ICache.HitRate()),
			fmt.Sprintf("%.2f%%", 100*st.DCache.HitRate()),
			check)
	}
	table.Fprint(os.Stdout)
	fmt.Println("\nevery checksum is verified against the kernel's Go reference")
	fmt.Println("implementation: the timing model executes the real programs.")

	// Stage utilization for one kernel, computed from the OSM
	// transition trace: entries into each state per control step
	// spanned.
	w := workload.ByName("gsm/enc")
	p, err := w.ARMProgram(200)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := strongarm.New(p, strongarm.Config{})
	if err != nil {
		log.Fatal(err)
	}
	entries := map[string]int{}
	var first, last uint64
	traced := false
	sim.Director().Tracer = osm.TracerFunc(func(step uint64, m *osm.Machine, e *osm.Edge) {
		if !traced {
			first, traced = step, true
		}
		last = step
		entries[e.To.Name]++
	})
	if _, err := sim.Run(10_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npipeline stage utilization on gsm/enc (entries per cycle):")
	for _, st := range []string{"F", "D", "E", "B", "W"} {
		u := float64(entries[st]) / float64(last-first+1)
		bar := ""
		for i := 0; i < int(u*40); i++ {
			bar += "#"
		}
		fmt.Printf("  %s  %5.1f%%  %s\n", st, 100*u, bar)
	}
}
