package ppc

import (
	"strings"
	"testing"
)

func TestPPCAssemblerErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"frobnicate r3", "unknown mnemonic"},
		{"addi r3, r4", "takes 3 operands"},
		{"addi r3, r4, 40000", "out of range"},
		{"ori r3, r4, 0x10000", "out of range"},
		{"add r3, r4", "takes 3 operands"},
		{"add r33, r4, r5", "bad register"},
		{"li r3", "takes rD, simm"},
		{"lis r3", "takes rD, simm"},
		{"mr r3", "takes rD, rS"},
		{"neg r3", "takes rD, rA"},
		{"srawi r3, r4", "takes rA, rS, n"},
		{"rlwinm r3, r4, 2", "takes rA, rS, sh, mb, me"},
		{"slwi r3, r4", "takes rA, rS, n"},
		{"cmpw r3", "takes [crN,] rA"},
		{"cmpw cr9, r3, r4", "bad CR field"},
		{"lwz r3, r4", "bad address"},
		{"lwz r3", "takes rD, d(rA)"},
		{"b", "takes a target"},
		{"beq", "takes a target"},
		{"b nowhere", "undefined symbol"},
		{"mflr", "takes one register"},
		{"mfxer r3", "unknown mnemonic"},
		{"mtxer r3", "unknown mnemonic"},
		{"extsb r3", "takes rA, rS"},
		{"x: x: nop", "duplicate label"},
		{"bad label: nop", "bad label"},
		{".space 6", "not a word multiple"},
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
}

func TestPPCAssemblerNiceties(t *testing.T) {
	p, err := Assemble(`
a: b: nop               ; two labels
	ADDI R3, SP, 8      # upper case, sp alias, hash comment
	.word a, 7
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["a"] != 0 || p.Labels["b"] != 0 {
		t.Fatalf("labels = %v", p.Labels)
	}
	if p.Words[1] != 0x38610008 { // addi r3, r1, 8
		t.Fatalf("addi = %#08x", p.Words[1])
	}
	if p.Words[2] != 0 || p.Words[3] != 7 {
		t.Fatal(".word wrong")
	}
	p, err = Assemble("nop\n_start: nop")
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 4 || p.Size() != 8 {
		t.Fatalf("entry=%#x size=%d", p.Entry, p.Size())
	}
}

func TestPPCAssembleAtOrigin(t *testing.T) {
	p, err := AssembleAt("x: b x", 0x200)
	if err != nil {
		t.Fatal(err)
	}
	if p.Org != 0x200 || p.Labels["x"] != 0x200 {
		t.Fatalf("org/labels wrong: %+v", p)
	}
	if p.Words[0] != 0x48000000 { // branch-to-self
		t.Fatalf("word = %#08x", p.Words[0])
	}
}

func TestPPCCRFieldCompare(t *testing.T) {
	p, err := Assemble("cmpw cr3, r4, r5")
	if err != nil {
		t.Fatal(err)
	}
	ins, err := Decode(p.Words[0])
	if err != nil {
		t.Fatal(err)
	}
	if ins.CRF != 3 {
		t.Fatalf("CRF = %d, want 3", ins.CRF)
	}
	// Executing it must set field 3, leaving field 0 alone.
	c := &CPU{}
	c.R[4], c.R[5] = 1, 2
	if err := c.Exec(ins, 0); err != nil {
		t.Fatal(err)
	}
	if c.CRField(3) != 8 { // LT
		t.Fatalf("cr3 = %#x, want LT", c.CRField(3))
	}
	if c.CRField(0) != 0 {
		t.Fatalf("cr0 = %#x, want untouched", c.CRField(0))
	}
}
