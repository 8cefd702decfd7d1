// Osmsim is the retargetable simulator driver: it runs a program — a
// built-in benchmark kernel, an assembly file or a program image — on
// one of the framework's processor models and reports timing
// statistics.
//
// Usage:
//
//	osmsim -target strongarm -workload gsm/enc -n 500
//	osmsim -target ppc750 -src prog.s
//	osmsim -target arm-iss -image prog.bin
//	osmsim -target ppc750 -workload mpeg2/dec -json
//
// Targets: strongarm (OSM model), sscalar (hand-coded baseline),
// ppc750 (OSM model), hwcentric (SystemC-style baseline), arm-iss and
// ppc-iss (functional simulation only). Exactly one of -workload,
// -src and -image must be given. The construction and reporting logic
// lives in internal/runner, shared with osmbatch and osmserve.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/runner"
)

var (
	target    = flag.String("target", "strongarm", "strongarm | sscalar | ppc750 | hwcentric | arm-iss | ppc-iss")
	wlName    = flag.String("workload", "", "built-in kernel (gsm/*, g721/*, mpeg2/* enc|dec; spec/crc, spec/bitcnt, dsp/fir)")
	iters     = flag.Int("n", 0, "workload iteration count (0 = kernel default)")
	srcPath   = flag.String("src", "", "assembly source file to run")
	imagePath = flag.String("image", "", "program image to run")
	maxCycles = flag.Uint64("cycles", 1_000_000_000, "cycle budget")
	perfect   = flag.Bool("perfect", false, "disable caches and TLBs")
	engine    = flag.String("engine", "", "execution engine on OSM targets: generated | event | scan | compiled (default generated)")
	trace     = flag.Bool("trace", false, "print every executed instruction")
	jsonOut   = flag.Bool("json", false, "emit the result as JSON instead of text")
	check     = flag.Bool("check", false, "verify OSM invariants (token conservation, bindings, scheduling, livelock) every control step")
)

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "osmsim:", err)
		os.Exit(1)
	}
}

// buildSpec resolves the flag set into a runner.Spec, rejecting
// ambiguous program-source combinations up front (before any file is
// read) so the user sees one clear line instead of a silent
// preference.
func buildSpec(target, wlName string, iters int, srcPath, imagePath string, maxCycles uint64, perfect bool, engine string) (runner.Spec, error) {
	spec := runner.Spec{
		Target:    target,
		Workload:  wlName,
		N:         iters,
		MaxCycles: maxCycles,
		Perfect:   perfect,
		Engine:    engine,
	}
	// Stand-ins so Validate sees which sources were selected without
	// touching the filesystem yet.
	if srcPath != "" {
		spec.Src = srcPath
	}
	if imagePath != "" {
		spec.Image = []byte{0}
	}
	if err := spec.Validate(); err != nil {
		return runner.Spec{}, err
	}
	if srcPath != "" {
		src, err := os.ReadFile(srcPath)
		if err != nil {
			return runner.Spec{}, err
		}
		spec.Src = string(src)
	}
	if imagePath != "" {
		data, err := os.ReadFile(imagePath)
		if err != nil {
			return runner.Spec{}, err
		}
		spec.Image = data
	}
	return spec, nil
}

func run(w io.Writer) error {
	spec, err := buildSpec(*target, *wlName, *iters, *srcPath, *imagePath, *maxCycles, *perfect, *engine)
	if err != nil {
		return err
	}
	spec.Check = *check
	opts := runner.RunOptions{}
	if *trace {
		opts.Trace = os.Stdout
	}
	if spec.Target == "arm-iss" || spec.Target == "ppc-iss" {
		opts.Out = os.Stdout
	}
	start := time.Now()
	res, err := runner.Run(spec, opts)
	if err != nil {
		return err
	}
	res.WallNS = time.Since(start).Nanoseconds()
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&res)
	}
	res.Report(w)
	return nil
}
