package ppc

import (
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"
)

type ram []byte

func (r ram) Read32(a uint32) uint32     { return binary.BigEndian.Uint32(r[a:]) }
func (r ram) Write32(a uint32, v uint32) { binary.BigEndian.PutUint32(r[a:], v) }
func (r ram) Read16(a uint32) uint16     { return binary.BigEndian.Uint16(r[a:]) }
func (r ram) Write16(a uint32, v uint16) { binary.BigEndian.PutUint16(r[a:], v) }
func (r ram) Read8(a uint32) byte        { return r[a] }
func (r ram) Write8(a uint32, v byte)    { r[a] = v }

// load assembles src at 0 with a 64 KiB big-endian RAM, r1 (sp) at
// the top and the exit SC convention (r0=1 exits with code r3).
func load(t *testing.T, src string) *CPU {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := make(ram, 64<<10)
	for i, w := range p.Words {
		mem.Write32(uint32(i*4), w)
	}
	c := &CPU{Mem: mem}
	c.R[1] = uint32(len(mem) - 16)
	c.NextPC = p.Entry
	c.SCHandler = func(c *CPU) error {
		if c.R[0] == 1 {
			c.Halted = true
			c.ExitCode = c.R[3]
		}
		return nil
	}
	return c
}

func run(t *testing.T, src string) *CPU {
	t.Helper()
	c := load(t, src)
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !c.Halted {
		t.Fatal("program did not halt")
	}
	return c
}

const exit = `
	li r0, 1
	sc
`

func TestGoldenEncodings(t *testing.T) {
	// Cross-checked against the PowerPC architecture manual / GNU as.
	cases := []struct {
		asm  string
		want uint32
	}{
		{"addi r3, r4, 5", 0x38640005},
		{"li r3, -1", 0x3860FFFF},
		{"lis r4, 0x1234", 0x3C801234},
		{"add r3, r4, r5", 0x7C642A14},
		{"add. r3, r4, r5", 0x7C642A15},
		{"subf r3, r4, r5", 0x7C642850},
		{"mullw r3, r4, r5", 0x7C6429D6},
		{"divw r3, r4, r5", 0x7C642BD6},
		{"or r3, r4, r5", 0x7C832B78},
		{"mr r3, r4", 0x7C832378},
		{"ori r3, r4, 0xff", 0x608300FF},
		{"andi. r3, r4, 15", 0x7083000F},
		{"rlwinm r3, r4, 2, 0, 29", 0x5483103A},
		{"slwi r3, r4, 2", 0x5483103A},
		{"srawi r3, r4, 4", 0x7C832670},
		{"cmpw r3, r4", 0x7C032000},
		{"cmpwi r3, 7", 0x2C030007},
		{"lwz r3, 8(r1)", 0x80610008},
		{"stw r3, -4(r1)", 0x9061FFFC},
		{"stwu r1, -16(r1)", 0x9421FFF0},
		{"lwzx r3, r4, r5", 0x7C64282E},
		{"blr", 0x4E800020},
		{"bctr", 0x4E800420},
		{"mflr r0", 0x7C0802A6},
		{"mtlr r0", 0x7C0803A6},
		{"mtctr r9", 0x7D2903A6},
		{"sc", 0x44000002},
		{"nop", 0x60000000},
		{"neg r3, r4", 0x7C6400D0},
	}
	for _, c := range cases {
		p, err := Assemble(c.asm)
		if err != nil {
			t.Errorf("%q: %v", c.asm, err)
			continue
		}
		if p.Words[0] != c.want {
			t.Errorf("%q = %#08x, want %#08x", c.asm, p.Words[0], c.want)
		}
	}
}

func TestGoldenBranches(t *testing.T) {
	p, err := Assemble("loop: b loop")
	if err != nil {
		t.Fatal(err)
	}
	if p.Words[0] != 0x48000000 {
		t.Fatalf("b self = %#08x, want 0x48000000", p.Words[0])
	}
	p, _ = Assemble("x: beq x")
	if p.Words[0] != 0x41820000 {
		t.Fatalf("beq self = %#08x, want 0x41820000", p.Words[0])
	}
	p, _ = Assemble("x: bne x")
	if p.Words[0] != 0x40820000 {
		t.Fatalf("bne self = %#08x, want 0x40820000", p.Words[0])
	}
	p, _ = Assemble("x: bdnz x")
	if p.Words[0] != 0x42000000 {
		t.Fatalf("bdnz self = %#08x, want 0x42000000", p.Words[0])
	}
}

func TestExecArithmetic(t *testing.T) {
	c := run(t, `
		li r3, 10
		addi r3, r3, 5
		li r4, 3
		sub r3, r3, r4      ; 12
		li r5, 4
		mullw r3, r3, r5    ; 48
		li r6, 6
		divw r3, r3, r6     ; 8
		neg r7, r6
		subf r3, r7, r3     ; r3 - (-6) = 14
	`+exit)
	if c.ExitCode != 14 {
		t.Fatalf("exit = %d, want 14", c.ExitCode)
	}
}

func TestExecLogicalAndRotate(t *testing.T) {
	c := run(t, `
		li r4, 0xf0
		ori r4, r4, 0xf     ; 0xff
		slwi r5, r4, 8      ; 0xff00
		srwi r6, r5, 4      ; 0x0ff0
		and r7, r5, r6      ; 0x0f00
		xor r8, r7, r6      ; 0x00f0
		or r3, r8, r7       ; 0x0ff0
		andi. r3, r3, 0xff0 ; 0xff0
	`+exit)
	if c.ExitCode != 0xff0 {
		t.Fatalf("exit = %#x, want 0xff0", c.ExitCode)
	}
}

func TestExecRlwinmWrappedMask(t *testing.T) {
	if got := maskMBME(0, 31); got != 0xffffffff {
		t.Fatalf("mask(0,31) = %#x", got)
	}
	if got := maskMBME(24, 7); got != 0xff0000ff {
		t.Fatalf("mask(24,7) = %#x, want 0xff0000ff", got)
	}
	if got := maskMBME(0, 0); got != 0x80000000 {
		t.Fatalf("mask(0,0) = %#x", got)
	}
}

func TestExecLoop(t *testing.T) {
	// Sum 1..10 with a bdnz loop.
	c := run(t, `
		li r3, 0
		li r4, 10
		mtctr r4
	loop:
		add r3, r3, r4
		addi r4, r4, -1
		bdnz loop
	`+exit)
	if c.ExitCode != 55 {
		t.Fatalf("sum = %d, want 55", c.ExitCode)
	}
}

func TestExecConditionalBranches(t *testing.T) {
	c := run(t, `
		li r3, 0
		li r4, 5
		cmpwi r4, 5
		bne skip1
		addi r3, r3, 1
	skip1:
		cmpwi r4, 6
		beq skip2
		addi r3, r3, 2
	skip2:
		cmpwi r4, 10
		bge skip3
		addi r3, r3, 4
	skip3:
		li r5, -3
		cmpwi r5, 0
		bgt skip4
		addi r3, r3, 8
	skip4:
		cmplwi r5, 10   ; unsigned: 0xfffffffd > 10
		ble skip5
		addi r3, r3, 16
	skip5:
	`+exit)
	if c.ExitCode != 31 {
		t.Fatalf("exit = %d, want 31", c.ExitCode)
	}
}

func TestExecRecordForms(t *testing.T) {
	c := run(t, `
		li r4, 5
		li r5, 5
		sub. r6, r4, r5   ; result 0 -> CR0 EQ
		bne bad
		li r7, -1
		add. r8, r7, r7   ; negative -> CR0 LT
		bge bad
		li r3, 7
	`+exit+`
	bad:
		li r3, 99
	`+exit)
	if c.ExitCode != 7 {
		t.Fatalf("exit = %d, want 7", c.ExitCode)
	}
}

func TestExecMemory(t *testing.T) {
	c := run(t, `
		li r4, 0x1000
		li r5, 0x1234
		stw r5, 0(r4)
		stw r5, 8(r4)
		lwz r6, 8(r4)
		stb r6, 4(r4)     ; low byte 0x34
		lbz r7, 4(r4)
		add r3, r6, r7    ; 0x1234 + 0x34
	`+exit)
	if c.ExitCode != 0x1268 {
		t.Fatalf("exit = %#x, want 0x1268", c.ExitCode)
	}
}

func TestExecIndexedAndUpdate(t *testing.T) {
	c := run(t, `
		li r4, 0x2000
		li r5, 8
		li r6, 77
		stwx r6, r4, r5    ; [0x2008] = 77
		lwzx r7, r4, r5
		li r8, 0x2000
		lwzu r9, 8(r8)     ; loads [0x2008], r8 = 0x2008
		sub r10, r8, r4    ; 8
		add r3, r7, r9     ; 154
		add r3, r3, r10    ; 162
	`+exit)
	if c.ExitCode != 162 {
		t.Fatalf("exit = %d, want 162", c.ExitCode)
	}
}

func TestExecStackFrameCalls(t *testing.T) {
	// Recursive factorial with LR save on a stwu-built stack frame.
	c := run(t, `
		li r3, 6
		bl fact
	`+exit+`
	fact:
		cmpwi r3, 1
		bgt recurse
		li r3, 1
		blr
	recurse:
		mflr r0
		stwu r1, -16(r1)
		stw r0, 12(r1)
		stw r3, 8(r1)
		addi r3, r3, -1
		bl fact
		lwz r4, 8(r1)
		mullw r3, r3, r4
		lwz r0, 12(r1)
		mtlr r0
		addi r1, r1, 16
		blr
	`)
	if c.ExitCode != 720 {
		t.Fatalf("6! = %d, want 720", c.ExitCode)
	}
}

func TestExecBctrDispatch(t *testing.T) {
	c := run(t, `
		li r4, target
		mtctr r4
		bctr
		li r3, 1      ; skipped
	`+exit+`
	target:
		li r3, 42
	`+exit)
	if c.ExitCode != 42 {
		t.Fatalf("exit = %d, want 42", c.ExitCode)
	}
}

func TestExecRAZeroRule(t *testing.T) {
	c := run(t, `
		li r0, 123     ; r0 holds junk
		li r3, 5       ; addi r3, 0, 5 must read literal 0, not r0
		lwz r4, 0(r0)  ; wait: lwz with RA=r0 also reads literal 0
		add r3, r3, r4 ; r4 = mem[0] = first instruction word
	`+exit)
	first := uint32(0x38000000 | 123) // li r0, 123
	if c.ExitCode != 5+first {
		t.Fatalf("exit = %#x, want %#x", c.ExitCode, 5+first)
	}
}

func TestExecDivideEdgeCases(t *testing.T) {
	c := run(t, `
		li r4, 7
		li r5, 0
		divw r3, r4, r5     ; /0 -> 0 by our convention
		cmpwi r3, 0
		bne bad
		li r4, -8
		li r5, 2
		divw r3, r4, r5     ; -4
		cmpwi r3, -4
		bne bad
		li r4, -8
		li r5, 2
		divwu r3, r4, r5    ; big unsigned value
		cmplwi r3, 100
		blt bad
		li r3, 1
	`+exit+`
	bad:
		li r3, 0
	`+exit)
	if c.ExitCode != 1 {
		t.Fatalf("divide edge cases failed")
	}
}

func TestExecSrawNegative(t *testing.T) {
	c := run(t, `
		li r4, -64
		srawi r5, r4, 3   ; -8
		neg r3, r5        ; 8
	`+exit)
	if c.ExitCode != 8 {
		t.Fatalf("exit = %d, want 8", c.ExitCode)
	}
}

func TestExecErrors(t *testing.T) {
	c := load(t, "lwz r3, 2(r0)\n"+exit)
	if _, err := c.Run(10); err == nil {
		t.Error("unaligned lwz must error")
	}
	c = load(t, "sc")
	c.SCHandler = nil
	if _, err := c.Run(10); err == nil {
		t.Error("sc without handler must error")
	}
	c = run(t, exit)
	if _, err := c.Step(); err == nil {
		t.Error("step on halted CPU must error")
	}
}

func TestSrcDstRegs(t *testing.T) {
	cases := []struct {
		asm string
		src []int
		dst []int
	}{
		{"add r3, r4, r5", []int{4, 5}, []int{3}},
		{"addi r3, r4, 1", []int{4}, []int{3}},
		{"li r3, 1", nil, []int{3}},
		{"or r3, r4, r5", []int{4, 5}, []int{3}},
		{"mr r3, r4", []int{4}, []int{3}},
		{"lwz r3, 4(r4)", []int{4}, []int{3}},
		{"lwz r3, 4(r0)", nil, []int{3}},
		{"stw r3, 4(r4)", []int{4, 3}, nil},
		{"stwu r3, -16(r4)", []int{4, 3}, []int{4}},
		{"lwzu r3, 8(r4)", []int{4}, []int{3, 4}},
		{"lwzx r3, r4, r5", []int{4, 5}, []int{3}},
		{"stwx r3, r4, r5", []int{4, 5, 3}, nil},
		{"cmpw r3, r4", []int{3, 4}, nil},
		{"mtctr r9", []int{9}, nil},
		{"mflr r9", nil, []int{9}},
		{"srawi r3, r4, 2", []int{4}, []int{3}},
	}
	eq := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, c := range cases {
		p, err := Assemble(c.asm)
		if err != nil {
			t.Fatalf("%q: %v", c.asm, err)
		}
		ins, err := Decode(p.Words[0])
		if err != nil {
			t.Fatalf("%q: %v", c.asm, err)
		}
		if got := ins.SrcRegs(); !eq(got, c.src) {
			t.Errorf("%q src = %v, want %v", c.asm, got, c.src)
		}
		if got := ins.DstRegs(); !eq(got, c.dst) {
			t.Errorf("%q dst = %v, want %v", c.asm, got, c.dst)
		}
	}
}

func TestSpecialRegisterPredicates(t *testing.T) {
	get := func(asm string) Instr {
		p, err := Assemble(asm)
		if err != nil {
			t.Fatalf("%q: %v", asm, err)
		}
		ins, err := Decode(p.Words[0])
		if err != nil {
			t.Fatalf("%q: %v", asm, err)
		}
		return ins
	}
	if ins := get("blr"); !ins.ReadsLR() || ins.WritesLR() {
		t.Error("blr reads LR only")
	}
	if ins := get("bl x\nx:"); !ins.WritesLR() {
		t.Error("bl writes LR")
	}
	if ins := get("x: bdnz x"); !ins.ReadsCTR() || !ins.WritesCTR() || ins.ReadsCR() {
		t.Error("bdnz reads+writes CTR, ignores CR")
	}
	if ins := get("x: beq x"); !ins.ReadsCR() || ins.ReadsCTR() {
		t.Error("beq reads CR only")
	}
	if ins := get("cmpwi r3, 0"); !ins.WritesCR() {
		t.Error("cmpwi writes CR")
	}
	if ins := get("add. r3, r4, r5"); !ins.WritesCR() {
		t.Error("add. writes CR")
	}
	if ins := get("mtctr r3"); !ins.WritesCTR() {
		t.Error("mtctr writes CTR")
	}
	if ins := get("b x\nx:"); ins.ReadsCR() || ins.ReadsCTR() {
		t.Error("b reads nothing special")
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		asm   string
		class Class
	}{
		{"add r3, r4, r5", ClassALU},
		{"mullw r3, r4, r5", ClassMul},
		{"divw r3, r4, r5", ClassMul},
		{"lwz r3, 0(r4)", ClassLoad},
		{"stw r3, 0(r4)", ClassStore},
		{"b x\nx:", ClassBranch},
		{"blr", ClassBranch},
		{"mflr r3", ClassSys},
		{"sc", ClassSys},
	}
	for _, c := range cases {
		p, _ := Assemble(c.asm)
		ins, _ := Decode(p.Words[0])
		if ins.Class() != c.class {
			t.Errorf("%q class = %s, want %s", c.asm, ins.Class(), c.class)
		}
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	srcs := []string{
		"addi r3, r4, 5", "add r3, r4, r5", "add. r3, r4, r5",
		"or r3, r4, r5", "ori r3, r4, 255", "rlwinm r3, r4, 2, 0, 29",
		"srawi r3, r4, 4", "cmpw cr0, r3, r4", "cmpwi cr0, r3, 7",
		"lwz r3, 8(r1)", "stw r3, -4(r1)", "lwzx r3, r4, r5",
		"blr", "bctr", "mflr r0", "mtctr r9", "sc",
		"neg r3, r4", "divwu r3, r4, r5", "andi. r3, r4, 15",
	}
	for _, src := range srcs {
		p, err := Assemble(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		text := Disassemble(p.Words[0])
		p2, err := Assemble(text)
		if err != nil {
			t.Errorf("reassemble %q: %v", text, err)
			continue
		}
		if p2.Words[0] != p.Words[0] {
			t.Errorf("%q -> %q: %#08x != %#08x", src, text, p2.Words[0], p.Words[0])
		}
	}
	if got := Disassemble(0xFFFFFFFF); got[0] != '.' {
		t.Errorf("undecodable word should render as .word, got %q", got)
	}
}

func TestQuickDFormRoundTrip(t *testing.T) {
	f := func(rt, ra uint8, si int16) bool {
		i := Instr{Op: ADDI, RT: int(rt % 32), RA: int(ra % 32), SI: int32(si)}
		w, err := Encode(i)
		if err != nil {
			return false
		}
		d, err := Decode(w)
		return err == nil && d.Op == ADDI && d.RT == i.RT && d.RA == i.RA && d.SI == i.SI
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickXFormRoundTrip(t *testing.T) {
	ops := []Op{ADD, SUBF, MULLW, DIVW, DIVWU, AND, OR, XOR, SLW, SRW, SRAW}
	f := func(sel, rt, ra, rb uint8, rc bool) bool {
		i := Instr{Op: ops[int(sel)%len(ops)], RT: int(rt % 32), RA: int(ra % 32),
			RB: int(rb % 32), Rc: rc}
		w, err := Encode(i)
		if err != nil {
			return false
		}
		d, err := Decode(w)
		return err == nil && d.Op == i.Op && d.RT == i.RT && d.RA == i.RA &&
			d.RB == i.RB && d.Rc == i.Rc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRlwinmMaskMatchesReference(t *testing.T) {
	// The mask must contain exactly the big-endian bit positions
	// MB..ME (wrapped).
	f := func(mb, me uint8) bool {
		m, e := int(mb%32), int(me%32)
		mask := maskMBME(m, e)
		for bit := 0; bit < 32; bit++ {
			in := false
			if m <= e {
				in = bit >= m && bit <= e
			} else {
				in = bit >= m || bit <= e
			}
			has := mask&(1<<(31-bit)) != 0
			if in != has {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenHalfwordEncodings(t *testing.T) {
	cases := []struct {
		asm  string
		want uint32
	}{
		{"lhz r3, 4(r5)", 0xA0650004},
		{"lha r3, -2(r5)", 0xA865FFFE},
		{"sth r3, 6(r5)", 0xB0650006},
		{"lhzx r3, r4, r5", 0x7C642A2E},
		{"sthx r3, r4, r5", 0x7C642B2E},
		{"extsb r3, r4", 0x7C830774},
		{"extsh r3, r4", 0x7C830734},
		{"extsb. r3, r4", 0x7C830775},
	}
	for _, c := range cases {
		p, err := Assemble(c.asm)
		if err != nil {
			t.Errorf("%q: %v", c.asm, err)
			continue
		}
		if p.Words[0] != c.want {
			t.Errorf("%q = %#08x, want %#08x", c.asm, p.Words[0], c.want)
		}
		// Disassemble/reassemble round trip.
		text := Disassemble(c.want)
		p2, err := Assemble(text)
		if err != nil {
			t.Errorf("reassemble %q: %v", text, err)
			continue
		}
		if p2.Words[0] != c.want {
			t.Errorf("%q -> %q: round trip broke", c.asm, text)
		}
	}
}

func TestExecHalfwordAndExtend(t *testing.T) {
	c := run(t, `
		li r4, 0x1000
		lis r5, 0xFFFF
		ori r5, r5, 0x8001   ; 0xFFFF8001
		sth r5, 0(r4)        ; stores 0x8001
		lhz r6, 0(r4)        ; 0x00008001
		lha r7, 0(r4)        ; 0xFFFF8001 sign-extended
		cmpw r7, r5
		bne bad
		li r8, 0x7F
		ori r8, r8, 0x80     ; 0xFF
		extsb r9, r8         ; -1
		cmpwi r9, -1
		bne bad
		extsh r10, r6        ; sign-extend 0x8001 -> negative
		cmpwi r10, 0
		bge bad
		mr r3, r6
	`+exit+`
	bad:
		li r3, 0
	`+exit)
	if c.ExitCode != 0x8001 {
		t.Fatalf("exit = %#x, want 0x8001", c.ExitCode)
	}
}

func TestExecHalfwordIndexed(t *testing.T) {
	c := run(t, `
		li r4, 0x2000
		li r5, 6
		li r6, 1234
		sthx r6, r4, r5
		lhzx r3, r4, r5
	`+exit)
	if c.ExitCode != 1234 {
		t.Fatalf("exit = %d, want 1234", c.ExitCode)
	}
}

func TestExecHalfwordAlignmentPPC(t *testing.T) {
	c := load(t, "li r4, 1\nlhz r3, 0(r4)\n"+exit)
	if _, err := c.Run(10); err == nil {
		t.Fatal("unaligned lhz must error")
	}
}

func TestExecShiftEdgeCasesPPC(t *testing.T) {
	c := run(t, `
		li r4, -1
		li r5, 40            ; shift >= 32
		slw r6, r4, r5       ; 0
		srw r7, r4, r5       ; 0
		sraw r8, r4, r5      ; still -1 (sign fill)
		li r9, 4
		slw r10, r9, r9      ; 64
		sraw r11, r4, r9     ; -1
		sub r3, r10, r6
		sub r3, r3, r7
		add r3, r3, r8       ; 64 - 0 - 0 + (-1) = 63
		sub r3, r3, r11      ; 64
	`+exit)
	if c.ExitCode != 64 {
		t.Fatalf("exit = %d, want 64", c.ExitCode)
	}
}

func TestExecConditionalBlr(t *testing.T) {
	// beqlr-style conditional return via the generic bclr path.
	c := run(t, `
		li r3, 0
		bl f
		addi r3, r3, 100
	`+exit+`
	f:
		cmpwi r3, 0
		beq ret              ; taken: jump to the blr
		addi r3, r3, 55
	ret:
		blr
	`)
	if c.ExitCode != 100 {
		t.Fatalf("exit = %d, want 100", c.ExitCode)
	}
}

func TestExecCmplRegisterForm(t *testing.T) {
	c := run(t, `
		li r4, -1            ; unsigned max
		li r5, 1
		cmplw r4, r5         ; unsigned: r4 > r5
		bgt big
		li r3, 0
	`+exit+`
	big:
		li r3, 1
	`+exit)
	if c.ExitCode != 1 {
		t.Fatalf("unsigned compare failed")
	}
}

func TestExecMulliNegAndClrlwi(t *testing.T) {
	c := run(t, `
		li r4, 7
		mulli r5, r4, -3     ; -21
		neg r6, r5           ; 21
		lis r7, 0x1234
		ori r7, r7, 0x5678
		clrlwi r8, r7, 16    ; 0x5678
		sub r3, r8, r6       ; 0x5678 - 21
	`+exit)
	if c.ExitCode != 0x5678-21 {
		t.Fatalf("exit = %d, want %d", c.ExitCode, 0x5678-21)
	}
}

func TestDisassembleLiIdiom(t *testing.T) {
	p, _ := Assemble("li r3, -5")
	if got := Disassemble(p.Words[0]); got != "li r3, -5" {
		t.Fatalf("disasm = %q, want li idiom", got)
	}
	p, _ = Assemble("lis r4, 18")
	if got := Disassemble(p.Words[0]); got != "lis r4, 18" {
		t.Fatalf("disasm = %q, want lis idiom", got)
	}
	p, _ = Assemble("addi r3, r4, 5")
	if got := Disassemble(p.Words[0]); got != "addi r3, r4, 5" {
		t.Fatalf("disasm = %q", got)
	}
}

// TestInvalidFormsRefused: Decode refuses the invalid forms whose
// execution disagrees with the hazard classification, and the
// assembler refuses a record-form "." on mnemonics that have none
// instead of dropping it. Each error names the form.
func TestInvalidFormsRefused(t *testing.T) {
	words := []struct {
		word uint32
		want string
	}{
		// bcctr decrementing CTR: the ISS decrements, WritesCTR is false.
		{0x4e33d421, "bcctr with the CTR-decrement BO bit"},
		// cmpw/cmplw with Rc=1 set CR0 from the GPR the crfD/L bits name.
		{0x7e3aa801, "cmpw with Rc=1"},
		{0x7c032041, "cmplw with Rc=1"},
		// X-form loads and stores with Rc=1.
		{0x7c64282f, "lwzx with Rc=1"},
		{0x7c6428af, "lbzx with Rc=1"},
		{0x7c642a2f, "lhzx with Rc=1"},
		{0x7c642aaf, "lhax with Rc=1"},
		{0x7c64292f, "stwx with Rc=1"},
		{0x7c6429af, "stbx with Rc=1"},
		{0x7c642b2f, "sthx with Rc=1"},
		// Moves of XER, which no classification predicate declares.
		{0x7c6103a6, "mtspr of XER"},
		{0x7c8102a6, "mfspr of XER"},
	}
	for _, c := range words {
		ins, err := Decode(c.word)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Decode(%#08x) = %v, %v; want an error containing %q", c.word, ins.Op, err, c.want)
		}
		// The same word without the invalid bit, or moving LR in
		// place of XER, decodes.
		valid := c.word &^ 1
		switch {
		case c.word>>26 == opcd19:
			valid = c.word | 0x4<<21
		case strings.Contains(c.want, "XER"):
			valid = c.word&^(0x3ff<<11) | SPRLR<<16
		}
		if _, err := Decode(valid); err != nil {
			t.Errorf("Decode(%#08x), the valid form of %#08x: %v", valid, c.word, err)
		}
	}
	srcs := []struct {
		src, want string
	}{
		{"lwzx. r3, r4, r5", "lwzx has no record form"},
		{"stwx. r3, r4, r5", "stwx has no record form"},
		{"cmpw. r3, r4", "cmpw has no record form"},
		{"cmplw. cr1, r3, r4", "cmplw has no record form"},
		{"lwz. r3, 0(r4)", "lwz has no record form"},
		{"addi. r3, r3, 1", "addi has no record form"},
	}
	for _, c := range srcs {
		p, err := Assemble(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			var w uint32
			if p != nil && len(p.Words) > 0 {
				w = p.Words[0]
			}
			t.Errorf("Assemble(%q) = %#08x, %v; want an error containing %q", c.src, w, err, c.want)
		}
	}
	// Mnemonics with a record form keep it.
	for _, src := range []string{"add. r3, r4, r5", "mr. r3, r4", "rlwinm. r3, r4, 2, 0, 29", "andi. r3, r4, 1", "bctr"} {
		p, err := Assemble(src)
		if err != nil {
			t.Errorf("Assemble(%q): %v", src, err)
			continue
		}
		if _, err := Decode(p.Words[0]); err != nil {
			t.Errorf("Decode(Assemble(%q)): %v", src, err)
		}
	}
}
