// Osmbench regenerates the tables and figures of the paper's
// evaluation (Section 5). See EXPERIMENTS.md for the paper-versus-
// measured record.
//
// Usage:
//
//	osmbench                 # every deterministic table: Table 1, Table 2,
//	                         # the §5.2 validation, Figure 2, the ablations
//	osmbench -scale 1        # the same at the scale checked in as
//	                         # internal/experiments/testdata/paper_tables.txt
//	osmbench -speed arm      # OSM vs SimpleScalar-style speed (§5.1)
//	osmbench -speed ppc      # OSM vs SystemC-style speed (§5.2)
//	osmbench -speed ppc -engine event   # another engine for -speed runs
//
// Profiling the simulator hot path:
//
//	osmbench -speed ppc -cpuprofile ppc.prof
//	go tool pprof ppc.prof
//	osmbench -speed arm -memprofile arm.mprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/osm"
)

func main() {
	os.Exit(run())
}

// run holds the program body so profile-stopping defers execute
// before the process exits.
func run() int {
	var (
		speed      = flag.String("speed", "", "measure simulation speed instead: arm or ppc")
		engineName = flag.String("engine", "", "execution engine for the -speed OSM models: generated | event | scan | compiled (default generated)")
		scale      = flag.Int("scale", experiments.DefaultScale, "workload iteration multiplier")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	code := 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "osmbench:", err)
		code = 1
	}

	if *speed != "" && *speed != "arm" && *speed != "ppc" {
		fmt.Fprintf(os.Stderr, "osmbench: -speed %q: want arm or ppc\n", *speed)
		flag.Usage()
		return 2
	}
	eng, err := osm.ParseEngine(*engineName)
	if err != nil {
		fail(err)
		return code
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
			return code
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
			return code
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recently freed objects out of the profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fail(err)
			}
		}()
	}

	switch *speed {
	case "arm":
		rs, err := experiments.SpeedARM(*scale, eng)
		if err != nil {
			fail(err)
			return code
		}
		experiments.SpeedTable("Simulation speed: StrongARM (paper §5.1: OSM 650k vs SimpleScalar 550k cyc/s)", rs).Fprint(os.Stdout)
	case "ppc":
		rs, err := experiments.SpeedPPC(*scale, eng)
		if err != nil {
			fail(err)
			return code
		}
		experiments.SpeedTable("Simulation speed: PPC-750 (paper §5.2: OSM at 4x the SystemC model)", rs).Fprint(os.Stdout)
	default:
		p, err := experiments.RunPaper(*scale)
		if err != nil {
			fail(err)
			return code
		}
		p.Fprint(os.Stdout)
	}
	return code
}
