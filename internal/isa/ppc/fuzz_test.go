package ppc

import (
	"strings"
	"testing"
)

// FuzzAssemble feeds arbitrary source through the two-pass assembler.
// The assembler consumes workload sources from untrusted specs, so it
// must reject bad input with an error — never panic and never emit an
// image larger than the documented ceiling. Every word it does emit
// must disassemble to something.
func FuzzAssemble(f *testing.F) {
	f.Add("li r3, 1\naddi r4, r3, 2\nloop: addi r4, r4, -1\ncmpwi r4, 0\nbne loop\nsc\n")
	f.Add("_start: lis r5, 0x1\nori r5, r5, 0x20\nlwz r6, 4(r5)\nstwu r6, -8(r1)\nrlwinm r7, r6, 2, 0, 29\nmflr r0\nblr\n")
	f.Add("cmpw cr1, r3, r4\nbeq done\n.word 42, 7\n.space 8\ndone: nop\n")
	f.Add(".space 134217728\nsc")
	f.Add(".space 4294967292")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 32<<10 {
			return
		}
		p, err := Assemble(src)
		if err != nil {
			return
		}
		if p.Size() > maxImageBytes {
			t.Fatalf("assembled %d bytes, over the %d-byte limit\nsource: %q", p.Size(), maxImageBytes, src)
		}
		// Each distinct word once: a near-limit .space is millions of
		// identical zero words.
		seen := make(map[uint32]bool)
		for i, w := range p.Words {
			if seen[w] {
				continue
			}
			seen[w] = true
			if s := Disassemble(w); s == "" {
				t.Fatalf("word %d (%#08x) disassembles to nothing\nsource: %q", i, w, src)
			}
		}
	})
}

// TestAssembleHostileInputs pins the crashers and resource-exhaustion
// cases the fuzz target guards against.
func TestAssembleHostileInputs(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		// A rotate with too few operands used to index past them.
		{"rlwinm", "takes rA, rS, sh, mb, me"},
		{"slwi r3", "takes rA, rS, n"},
		// A single .space could demand gigabytes before the bound.
		{".space 134217728\nsc", "image limit"},
		{".space 4294967292", "image limit"},
		// Accumulated growth across statements trips the per-line cap.
		{strings.Repeat(".space 16777216\n", 2), "exceeds"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("Assemble(%q) succeeded, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q) error = %q, want substring %q", c.src, err, c.want)
		}
	}
	// The cap must not reject legitimate images.
	if _, err := Assemble(".space 65536\nli r3, 1\n"); err != nil {
		t.Errorf("modest .space rejected: %v", err)
	}
}
