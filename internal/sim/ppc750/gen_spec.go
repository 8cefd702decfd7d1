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
// execute, plus the spec mapping its managers, When predicates and
// identifier functions back to source expressions in this package.
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
		DynID: map[string]string{
			// ReleaseF(s.fq, anyHeld) / ReleaseF(s.cq, anyHeld): the
			// identifier function is stable, so calling it directly is
			// equivalent to the interpreter's per-epoch memo.
			osm.GenKey("C", "complete") + "/0": "anyHeld(m)",
		},
	}
	for i, u := range s.units {
		spec.Managers[u.fu.Name()] = fmt.Sprintf("s.units[%d].fu", i)
		spec.Managers[u.rs.Name()] = fmt.Sprintf("s.units[%d].rs", i)
		disp := osm.GenKey("Q", "disp-"+u.name)
		rs := osm.GenKey("Q", "rs-"+u.name)
		spec.When[disp] = "s.whenHead(m)"
		spec.When[rs] = "s.whenHead(m)"
		spec.DynID[disp+"/0"] = "anyHeld(m)"
		spec.DynID[rs+"/0"] = "anyHeld(m)"
	}
	return prog, spec, nil
}
