package runner

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/loader"
	"repro/internal/osm"
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

// TestNOutsideKernelRangeRefused pins the iteration counts the
// kernels can hold. Both models load N as a signed 32-bit count, so an
// N outside [0, 2^31-1] would run another count (1<<31 and -1 run
// none, 4294967299 runs 3) or fail to assemble; New refuses it by
// naming the range. Both ends of the range build.
func TestNOutsideKernelRangeRefused(t *testing.T) {
	for _, target := range []string{"strongarm", "ppc750"} {
		for _, n := range []int{-1, 1 << 31, 4294967299} {
			_, err := New(Spec{Target: target, Workload: "dsp/fir", N: n})
			if err == nil || !strings.Contains(err.Error(), "out of range [0, 2147483647]") {
				t.Errorf("%s n=%d: New = %v, want the range error", target, n, err)
			}
		}
		for _, n := range []int{0, maxN} {
			if _, err := New(Spec{Target: target, Workload: "dsp/fir", N: n}); err != nil {
				t.Errorf("%s n=%d: %v", target, n, err)
			}
		}
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

// TestNewEngineResolution pins the engine runner.New builds for each
// case study: the empty default serves the generated edge functions,
// like an explicit "generated", and "event" still selects the
// interpreter. The default and generated engines run the Figure 3
// scan; only event and compiled are event-driven. Stepped, only the
// compiled engine holds a lowered guard program; the generated engine
// calls the edges' own functions.
func TestNewEngineResolution(t *testing.T) {
	for _, target := range []string{"strongarm", "ppc750"} {
		for _, tc := range []struct {
			engine string
			want   osm.Engine
			event  bool // served by the event-driven scheduler
		}{
			{"", osm.EngineGenerated, false},
			{"generated", osm.EngineGenerated, false},
			{"event", osm.EngineEvent, true},
			{"scan", osm.EngineScan, false},
			{"compiled", osm.EngineCompiled, true},
		} {
			in, err := New(Spec{Target: target, Workload: "dsp/fir", N: 10, Engine: tc.engine})
			if err != nil {
				t.Fatalf("%s/%q: %v", target, tc.engine, err)
			}
			d := in.Director()
			if got := d.ActiveEngine(); got != tc.want {
				t.Errorf("%s/%q: serves %v, want %v", target, tc.engine, got, tc.want)
			}
			if got := d.EventDriven(); got != tc.event {
				t.Errorf("%s/%q: EventDriven() = %v, want %v", target, tc.engine, got, tc.event)
			}
			for i := 0; i < 200 && !in.Done(); i++ {
				if err := in.StepCycle(); err != nil {
					t.Fatalf("%s/%q: %v", target, tc.engine, err)
				}
			}
			if want := tc.want == osm.EngineCompiled; d.Lowered() != want {
				t.Errorf("%s/%q: holds a lowered program = %v, want %v", target, tc.engine, d.Lowered(), want)
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

// TestOutOfImageAccessFails runs a load and a store beyond the RAM
// image on every target: each run fails with an error naming the PC,
// the address, the width and the image size, where the memory model
// used to panic the process.
func TestOutOfImageAccessFails(t *testing.T) {
	progs := map[bool]map[string]string{
		true: {
			"load":  "\tmov r0, #0x10000000\n\tldr r1, [r0]\n\tmov r0, #0\n\tswi #0\n",
			"store": "\tmov r0, #0x10000000\n\tstrh r1, [r0, #2]\n\tmov r0, #0\n\tswi #0\n",
		},
		false: {
			"load":  "\tlis r3, 0x1000\n\tlwz r4, 0(r3)\n\tli r0, 1\n\tsc\n",
			"store": "\tlis r3, 0x1000\n\tsth r4, 2(r3)\n\tli r0, 1\n\tsc\n",
		},
	}
	want := map[string]string{
		"load":  "at 0x4: %s: access at 0x10000000+4 beyond the 0x100000-byte memory",
		"store": "at 0x4: %s: access at 0x10000002+2 beyond the 0x100000-byte memory",
	}
	for _, target := range Targets {
		spec := Spec{Target: target}
		op := map[string]string{"load": "lwz", "store": "sth"}
		if spec.IsARM() {
			op = map[string]string{"load": "ldr", "store": "strh"}
		}
		for _, kind := range []string{"load", "store"} {
			spec.Src = progs[spec.IsARM()][kind]
			_, err := Run(spec, RunOptions{})
			if w := fmt.Sprintf(want[kind], op[kind]); err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%s, %s: Run = %v, want an error containing %q", target, kind, err, w)
			}
		}
	}
}
