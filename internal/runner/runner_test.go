package runner

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/loader"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantErr string // "" = ok
	}{
		{"workload ok", Spec{Target: "strongarm", Workload: "gsm/dec"}, ""},
		{"src ok", Spec{Target: "ppc750", Src: "nop"}, ""},
		{"image ok", Spec{Target: "arm-iss", Image: []byte{1}}, ""},
		{"none", Spec{Target: "strongarm"}, "exactly one"},
		{"two", Spec{Target: "strongarm", Workload: "gsm/dec", Src: "nop"}, "ambiguous"},
		{"three", Spec{Target: "strongarm", Workload: "gsm/dec", Src: "nop", Image: []byte{1}}, "ambiguous"},
		{"bad target", Spec{Target: "vax", Workload: "gsm/dec"}, "unknown target"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// Run and a hand-stepped Instance must agree exactly: same cycles,
// instructions and reported values — the CLI and the server share one
// truth.
func TestRunMatchesInstance(t *testing.T) {
	for _, target := range []string{"strongarm", "ppc750"} {
		spec := Spec{Target: target, Workload: "dsp/fir", N: 30}
		res, err := Run(spec, RunOptions{})
		if err != nil {
			t.Fatalf("%s: Run: %v", target, err)
		}
		in, err := New(spec)
		if err != nil {
			t.Fatalf("%s: New: %v", target, err)
		}
		for !in.Done() {
			if in.Cycle() > res.Cycles+10 {
				t.Fatalf("%s: instance overran Run's %d cycles", target, res.Cycles)
			}
			if err := in.StepCycle(); err != nil {
				t.Fatal(err)
			}
		}
		got, err := in.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != res.Cycles || got.Instrs != res.Instrs {
			t.Fatalf("%s: instance (%d cycles, %d instrs) != Run (%d cycles, %d instrs)",
				target, got.Cycles, got.Instrs, res.Cycles, res.Instrs)
		}
		if len(got.Reported) != len(res.Reported) {
			t.Fatalf("%s: reported mismatch: %v vs %v", target, got.Reported, res.Reported)
		}
		for i := range got.Reported {
			if got.Reported[i] != res.Reported[i] {
				t.Fatalf("%s: reported mismatch: %v vs %v", target, got.Reported, res.Reported)
			}
		}
	}
}

func TestNewNotSteppable(t *testing.T) {
	for _, target := range []string{"sscalar", "hwcentric", "arm-iss", "ppc-iss"} {
		_, err := New(Spec{Target: target, Workload: "dsp/fir"})
		if !errors.Is(err, ErrNotSteppable) {
			t.Fatalf("%s: want ErrNotSteppable, got %v", target, err)
		}
	}
}

func TestInstancePeek(t *testing.T) {
	in, err := New(Spec{Target: "strongarm", Workload: "dsp/fir", N: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && !in.Done(); i++ {
		if err := in.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	regs := in.Registers()
	if len(regs) != 17 { // r0..r15 + nzcv
		t.Fatalf("got %d ARM registers, want 17", len(regs))
	}
	if regs[15].Name != "r15" || regs[16].Name != "nzcv" {
		t.Fatalf("unexpected register names: %v", regs)
	}
	data, err := in.ReadMem(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 16 {
		t.Fatalf("got %d bytes", len(data))
	}
	if _, err := in.ReadMem(0xffff_fff0, 64); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if _, err := in.ReadMem(0, 1<<31); err == nil {
		t.Fatal("oversized read succeeded")
	}

	pp, err := New(Spec{Target: "ppc750", Workload: "dsp/fir", N: 20})
	if err != nil {
		t.Fatal(err)
	}
	pregs := pp.Registers()
	if len(pregs) != 37 { // r0..r31 + cr, lr, ctr, xer, pc
		t.Fatalf("got %d PPC registers, want 37", len(pregs))
	}
}

func TestResultReportDeterministic(t *testing.T) {
	res, err := Run(Spec{Target: "strongarm", Workload: "dsp/fir", N: 20}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	res.Report(&a)
	res.Report(&b)
	if a.String() != b.String() {
		t.Fatalf("report is nondeterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "CPI:") || !strings.Contains(a.String(), "instructions:") {
		t.Fatalf("report missing fields:\n%s", a.String())
	}
}

// TestNewRejectsImageWrappingAddressSpace: an image whose origin sits
// 16 bytes below 2^32 wraps a 32-bit origin+size sum back into the
// RAM bound. Building either cycle-accurate target from it must return
// an error, not panic loading the words.
func TestNewRejectsImageWrappingAddressSpace(t *testing.T) {
	for _, tc := range []struct {
		target string
		arch   loader.Arch
	}{{"strongarm", loader.ArchARM}, {"ppc750", loader.ArchPPC}} {
		im := &loader.Image{Arch: tc.arch, Org: 0xfffffff0, Entry: 0xfffffff0, Words: make([]uint32, 8)}
		if _, err := New(Spec{Target: tc.target, Image: im.Marshal()}); err == nil {
			t.Errorf("%s: image at %#x built without error", tc.target, im.Org)
		}
	}
}
