// Command osmgen emits the generated-engine state functions of a
// built-in case study: it builds the model exactly as the simulator
// does, lowers it through Director.Compile, and renders one
// monomorphic Go function per state (internal/osm/gen) into the
// simulator's package. The go:generate directives in
// internal/sim/strongarm and internal/sim/ppc750 drive it; the
// emitted files are committed, and CI regenerates them to catch
// drift between the model and its generated form.
//
// Usage:
//
//	osmgen -target strongarm|ppc750 [-out edges_gen.go]
//
// With -out - the file is written to standard output.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/osm"
	"repro/internal/osm/gen"
	"repro/internal/sim/ppc750"
	"repro/internal/sim/strongarm"
	"repro/internal/workload"
)

func main() {
	target := flag.String("target", "", "case study to generate for: strongarm | ppc750")
	out := flag.String("out", "edges_gen.go", "output file (relative to the working directory; - for stdout)")
	flag.Parse()

	src, err := generate(*target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "osmgen: %v\n", err)
		os.Exit(1)
	}
	if *out == "-" {
		os.Stdout.Write(src)
		return
	}
	if err := os.WriteFile(*out, src, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "osmgen: %v\n", err)
		os.Exit(1)
	}
}

// generate builds the target's model and renders its generated state
// functions.
func generate(target string) ([]byte, error) {
	prog, spec, err := lower(target)
	if err != nil {
		return nil, err
	}
	return gen.File(prog, spec)
}

// lower builds the target's model and returns its lowered guard
// program with the spec that renders it. The program the simulator is
// constructed with is irrelevant: the lowered guard program depends
// only on the model's structure, never on the workload. The model is
// built under the event engine, the one construction that ignores a
// stale edges_gen.go, so the file can always be regenerated.
func lower(target string) (*osm.GuardProgram, gen.Spec, error) {
	w := workload.ByName("gsm/dec")
	switch target {
	case "strongarm":
		p, err := w.ARMProgram(1)
		if err != nil {
			return nil, gen.Spec{}, err
		}
		s, err := strongarm.New(p, strongarm.Config{Engine: osm.EngineEvent})
		if err != nil {
			return nil, gen.Spec{}, err
		}
		return s.GenModel()
	case "ppc750":
		p, err := w.PPCProgram(1)
		if err != nil {
			return nil, gen.Spec{}, err
		}
		s, err := ppc750.New(p, ppc750.Config{Engine: osm.EngineEvent})
		if err != nil {
			return nil, gen.Spec{}, err
		}
		return s.GenModel()
	}
	return nil, gen.Spec{}, fmt.Errorf("unknown -target %q (want strongarm or ppc750)", target)
}
