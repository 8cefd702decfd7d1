// Osmbench regenerates the tables and figures of the paper's
// evaluation (Section 5). See EXPERIMENTS.md for the paper-versus-
// measured record.
//
// Usage:
//
//	osmbench -all
//	osmbench -table 1        # StrongARM validation (paper Table 1)
//	osmbench -table 2        # source code line counts (paper Table 2)
//	osmbench -speed arm      # OSM vs SimpleScalar-style speed (§5.1)
//	osmbench -speed ppc      # OSM vs SystemC-style speed (§5.2)
//	osmbench -validate       # PPC-750 timing validation (§5.2)
//	osmbench -fig2           # reservation-station paths (Figure 2)
//	osmbench -speed ppc -engine compiled   # one engine for -speed runs
//	osmbench -scale 4        # iteration-count multiplier
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
		table      = flag.Int("table", 0, "regenerate paper table 1 or 2")
		speed      = flag.String("speed", "", "speed comparison: arm or ppc")
		validate   = flag.Bool("validate", false, "PPC-750 timing validation")
		fig2       = flag.Bool("fig2", false, "reservation-station (Figure 2) comparison")
		engineName = flag.String("engine", "", "execution engine for the -speed OSM models: event | scan | compiled | generated")
		all        = flag.Bool("all", false, "run every experiment")
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

	ran := false
	if *all || *table == 1 {
		ran = true
		rows, err := experiments.Table1(*scale)
		if err != nil {
			fail(err)
			return code
		}
		experiments.Table1Table(rows).Fprint(os.Stdout)
		fmt.Println()
	}
	if *all || *table == 2 {
		ran = true
		rows, baselines, err := experiments.Table2()
		if err != nil {
			fail(err)
			return code
		}
		experiments.Table2Table(rows, baselines).Fprint(os.Stdout)
		fmt.Println()
	}
	if *all || *speed == "arm" {
		ran = true
		rs, err := experiments.SpeedARM(*scale, eng)
		if err != nil {
			fail(err)
			return code
		}
		experiments.SpeedTable("Simulation speed: StrongARM (paper §5.1: OSM 650k vs SimpleScalar 550k cyc/s)", rs).Fprint(os.Stdout)
		fmt.Println()
	}
	if *all || *speed == "ppc" {
		ran = true
		rs, err := experiments.SpeedPPC(*scale, eng)
		if err != nil {
			fail(err)
			return code
		}
		experiments.SpeedTable("Simulation speed: PPC-750 (paper §5.2: OSM at 4x the SystemC model)", rs).Fprint(os.Stdout)
		fmt.Println()
	}
	if *all || *validate {
		ran = true
		rows, err := experiments.ValidatePPC(*scale)
		if err != nil {
			fail(err)
			return code
		}
		experiments.ValidateTable(rows).Fprint(os.Stdout)
		fmt.Println()
	}
	if *all || *fig2 {
		ran = true
		rows, err := experiments.Fig2(*scale)
		if err != nil {
			fail(err)
			return code
		}
		experiments.Fig2Table(rows).Fprint(os.Stdout)
		fmt.Println()
	}
	if !ran {
		flag.Usage()
		return 2
	}
	return code
}
