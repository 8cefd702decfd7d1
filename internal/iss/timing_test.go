package iss_test

import (
	"slices"
	"testing"

	"repro/internal/iss"
	"repro/internal/sim/ppc750"
	"repro/internal/sim/strongarm"
	"repro/internal/workload"
)

// TestTimingModelsLeaveDecodeCacheUnallocated: a timing model decodes
// each word once, at fetch, and the ISS executes that decoding through
// StepFetched. So every mix kernel, run to completion under either
// model, leaves the ISS decode cache unallocated.
func TestTimingModelsLeaveDecodeCacheUnallocated(t *testing.T) {
	for _, w := range workload.Mix() {
		n := w.DefaultN / 10
		want := []uint32{w.Ref(n)}
		ap, err := w.ARMProgram(n)
		if err != nil {
			t.Fatal(err)
		}
		a, err := strongarm.New(ap, strongarm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Run(1 << 32); err != nil {
			t.Fatalf("%s strongarm: %v", w.Name, err)
		}
		pp, err := w.PPCProgram(n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ppc750.New(pp, ppc750.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(1 << 32); err != nil {
			t.Fatalf("%s ppc750: %v", w.Name, err)
		}
		if !slices.Equal(a.ISS.Reported, want) || !slices.Equal(p.ISS.Reported, want) {
			t.Fatalf("%s: reported strongarm %x ppc750 %x, want %x", w.Name, a.ISS.Reported, p.ISS.Reported, want)
		}
		if got := iss.ARMDecodeLines(a.ISS); got != 0 {
			t.Errorf("%s: the StrongARM model's ISS allocated %d decode lines", w.Name, got)
		}
		if got := iss.PPCDecodeLines(p.ISS); got != 0 {
			t.Errorf("%s: the PPC-750 model's ISS allocated %d decode lines", w.Name, got)
		}
	}
}
