package ppc750

import (
	"fmt"

	"repro/internal/osm"
	"repro/internal/osm/gen"
)

//go:generate go run repro/cmd/osmgen -target ppc750 -out edges_gen.go

// stateFns returns the generated state functions New attaches: those of
// edges_gen.go. Tests replace it to hand New a stale function map.
var stateFns = (*Sim).genStates

// GenModel exposes the elaborated model to the Go code generator
// (cmd/osmgen): the lowered guard program the compiled engine would
// execute, plus the spec mapping its managers and When predicates back
// to source expressions in this package.
// The generator runs against the default configuration, which
// includes the reservation-station edges; the NoReservationStations
// variant attaches the same function map and simply leaves the rs-*
// entries unused.
func (s *Sim) GenModel() (*osm.GuardProgram, gen.Spec, error) {
	prog, err := s.director.Compile()
	if err != nil {
		return nil, gen.Spec{}, err
	}
	spec := gen.Spec{
		Package: "ppc750",
		Managers: map[string]string{
			"fetch-queue":      "s.fq",
			"completion-queue": "s.cq",
			"regfiles+rename":  "s.ren",
			"reset":            "s.reset",
		},
		When: map[string]string{
			osm.GenKey("I", "fetch"): "s.whenFetch(m)",
		},
	}
	for i, u := range s.units {
		spec.Managers[u.fu.Name()] = fmt.Sprintf("s.units[%d].fu", i)
		spec.Managers[u.rs.Name()] = fmt.Sprintf("s.units[%d].rs", i)
		spec.When[osm.GenKey("Q", "disp-"+u.name)] = "s.whenHead(m)"
		spec.When[osm.GenKey("Q", "rs-"+u.name)] = "s.whenHead(m)"
	}
	return prog, spec, nil
}
