package strongarm

import (
	"repro/internal/osm"
	"repro/internal/osm/gen"
)

//go:generate go run repro/cmd/osmgen -target strongarm -out edges_gen.go

// stateFns returns the generated state functions New attaches: those of
// edges_gen.go. Tests replace it to hand New a stale function map.
var stateFns = (*Sim).genStates

// GenModel exposes the elaborated model to the Go code generator
// (cmd/osmgen): the lowered guard program the compiled engine would
// execute, plus the spec mapping its managers and When predicates back
// to source expressions in this package.
// The generator walks exactly what Director.Compile consumed, so the
// emitted edge functions (edges_gen.go) cover precisely the model the
// other engines run.
func (s *Sim) GenModel() (*osm.GuardProgram, gen.Spec, error) {
	prog, err := s.director.Compile()
	if err != nil {
		return nil, gen.Spec{}, err
	}
	spec := gen.Spec{
		Package: "strongarm",
		Managers: map[string]string{
			"IF":          "s.mf",
			"ID":          "s.md",
			"EX":          "s.me",
			"BF":          "s.mb",
			"WB":          "s.mw",
			"regfile+fwd": "s.regs",
			"reset":       "s.reset",
		},
		When: map[string]string{
			osm.GenKey("I", "e0"): "s.whenFetch(m)",
		},
	}
	return prog, spec, nil
}
