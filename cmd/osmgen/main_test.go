package main

import (
	"bytes"
	"testing"

	"repro/internal/osm/gen"
)

// TestCaseStudiesLowerStatically pins what makes the case studies'
// generated code fast: every guard identifier is fixed, so the
// emitted functions call no identifier function, and every edge is
// pure, so none delegates to the interpreter. A model edit that puts
// an IDFunc or an impure edge back on the generated hot path fails
// here.
func TestCaseStudiesLowerStatically(t *testing.T) {
	for _, target := range []string{"strongarm", "ppc750"} {
		prog, spec, err := lower(target)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		st := prog.Stats()
		if st.Dynamic != 0 {
			t.Errorf("%s: %d guard identifiers come from an IDFunc, want none", target, st.Dynamic)
		}
		if st.Pure != st.Edges {
			t.Errorf("%s: %d of %d edges are pure, want all", target, st.Pure, st.Edges)
		}
		src, err := gen.File(prog, spec)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if n := bytes.Count(src, []byte("GenFallback")); n != 0 {
			t.Errorf("%s: the generated functions delegate to the interpreter in %d places, want none", target, n)
		}
	}
}
