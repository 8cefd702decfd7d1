package arm

import (
	"testing"
	"testing/quick"
)

// golden encodings cross-checked against the ARM ARM / GNU as.
func TestGoldenEncodings(t *testing.T) {
	cases := []struct {
		asm  string
		want uint32
	}{
		{"mov r0, #1", 0xE3A00001},
		{"add r1, r2, r3", 0xE0821003},
		{"subs r0, r0, #1", 0xE2500001},
		{"cmp r0, #0", 0xE3500000},
		{"ldr r0, [r1, #4]", 0xE5910004},
		{"str r0, [r1], #4", 0xE4810004},
		{"mul r0, r1, r2", 0xE0000291},
		{"mla r0, r1, r2, r3", 0xE0203291},
		{"swi #0", 0xEF000000},
		{"ldmia sp!, {r0, r1}", 0xE8BD0003},
		{"stmdb sp!, {lr}", 0xE92D4000},
		{"mvn r0, #0", 0xE3E00000},
		{"movs r0, r1, lsr #1", 0xE1B000A1},
		{"and r4, r5, r6, lsl #2", 0xE0054106},
		{"orr r0, r0, r1, ror #8", 0xE1800461},
		{"ldrb r2, [r3]", 0xE5D32000},
		{"strb r2, [r3, #-1]", 0xE5432001},
		{"addeq r0, r0, #4", 0x02800004},
		{"movne r1, #0", 0x13A01000},
		{"add r0, r1, r2, lsl r3", 0xE0810312},
	}
	for _, c := range cases {
		p, err := Assemble(c.asm)
		if err != nil {
			t.Errorf("%q: %v", c.asm, err)
			continue
		}
		if len(p.Words) != 1 {
			t.Errorf("%q: %d words", c.asm, len(p.Words))
			continue
		}
		if p.Words[0] != c.want {
			t.Errorf("%q = %#08x, want %#08x", c.asm, p.Words[0], c.want)
		}
	}
}

func TestGoldenBranchEncodings(t *testing.T) {
	// b to self: offset field = -2 (0xFFFFFE).
	p, err := Assemble("loop: b loop")
	if err != nil {
		t.Fatal(err)
	}
	if p.Words[0] != 0xEAFFFFFE {
		t.Fatalf("b self = %#08x, want 0xEAFFFFFE", p.Words[0])
	}
	// bl forward over one instruction: offset field 0.
	p, err = Assemble("bl target\nnop\ntarget: nop")
	if err != nil {
		t.Fatal(err)
	}
	if p.Words[0] != 0xEB000000 {
		t.Fatalf("bl +8 = %#08x, want 0xEB000000", p.Words[0])
	}
}

func TestImmRoundTrip(t *testing.T) {
	values := []uint32{0, 1, 0xff, 0x100, 0xff0, 0xff00, 0xff000000, 0xc0000034, 4096, 0x3fc00}
	for _, v := range values {
		field, ok := EncodeImm(v)
		if !ok {
			t.Errorf("EncodeImm(%#x) not encodable", v)
			continue
		}
		if got := DecodeImm(field); got != v {
			t.Errorf("round trip %#x -> %#x -> %#x", v, field, got)
		}
	}
	for _, v := range []uint32{0x101, 0xff1, 0x12345678} {
		if _, ok := EncodeImm(v); ok {
			t.Errorf("EncodeImm(%#x) should not be encodable", v)
		}
	}
}

func TestDecodeRejectsReserved(t *testing.T) {
	if _, err := Decode(0xF3A00001); err == nil { // NV condition
		t.Error("NV condition must be rejected")
	}
	if _, err := Decode(0xE7910013); err == nil { // register-shift mem offset (bit4=1)
		t.Error("register-shift memory offset must be rejected")
	}
}

func TestDecodeClassification(t *testing.T) {
	cases := []struct {
		asm   string
		class Class
	}{
		{"add r0, r1, r2", ClassALU},
		{"mul r0, r1, r2", ClassMul},
		{"ldr r0, [r1]", ClassLoad},
		{"str r0, [r1]", ClassStore},
		{"ldmia r1, {r2}", ClassLoad},
		{"stmia r1, {r2}", ClassStore},
		{"b next\nnext:", ClassBranch},
		{"swi #3", ClassSWI},
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
		if ins.Class() != c.class {
			t.Errorf("%q class = %s, want %s", c.asm, ins.Class(), c.class)
		}
	}
}

func TestSrcDstRegs(t *testing.T) {
	cases := []struct {
		asm string
		src []int
		dst []int
	}{
		{"add r0, r1, r2", []int{1, 2}, []int{0}},
		{"add r0, r1, #2", []int{1}, []int{0}},
		{"mov r0, r1", []int{1}, []int{0}},
		{"mov r0, #1", nil, []int{0}},
		{"mul r0, r1, r2", []int{1, 2}, []int{0}},
		{"mla r0, r1, r2, r3", []int{1, 2, 3}, []int{0}},
		{"ldr r0, [r1, #4]", []int{1}, []int{0}},
		{"ldr r0, [r1], #4", []int{1}, []int{0, 1}},
		{"str r0, [r1, #4]!", []int{1, 0}, []int{1}},
		{"cmp r0, r1", []int{0, 1}, nil},
		{"bl sub\nsub:", nil, []int{LR}},
		{"add r0, r1, r2, lsl r3", []int{1, 2, 3}, []int{0}},
		{"stmdb sp!, {r0, r1}", []int{SP, 0, 1}, []int{SP}},
		{"ldmia sp!, {r4, lr}", []int{SP}, []int{4, LR, SP}},
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

func TestFlagsPredicates(t *testing.T) {
	p, _ := Assemble("adds r0, r0, #1")
	ins, _ := Decode(p.Words[0])
	if !ins.WritesFlags() {
		t.Error("adds must write flags")
	}
	p, _ = Assemble("adc r0, r0, r1")
	ins, _ = Decode(p.Words[0])
	if !ins.ReadsFlags() {
		t.Error("adc must read flags")
	}
	p, _ = Assemble("addne r0, r0, #1")
	ins, _ = Decode(p.Words[0])
	if !ins.ReadsFlags() {
		t.Error("conditional instruction must read flags")
	}
	p, _ = Assemble("cmp r0, #0")
	ins, _ = Decode(p.Words[0])
	if !ins.WritesFlags() {
		t.Error("cmp must write flags")
	}
}

// TestReadsFlagsRRX checks that an RRX operand, which shifts C into
// operand 2 or the memory offset, counts as a flag read, and that
// the other shifts of Rm do not.
func TestReadsFlagsRRX(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{"add r7, r6, lr, rrx", true},
		{"mov r7, lr, rrx", true},
		{"sub r7, r6, lr, rrx", true},
		{"rsb r7, r6, lr, rrx", true},
		{"eor r7, r6, lr, rrx", true},
		{"orr r7, r6, lr, rrx", true},
		{"and r7, r6, lr, rrx", true},
		{"bic r7, r6, lr, rrx", true},
		{"mvn r7, lr, rrx", true},
		{"ldr r0, [r1, r2, rrx]", true},
		{"str r0, [r1, r2, rrx]", true},
		{"add r7, r6, lr", false},
		{"add r7, r6, lr, ror #1", false},
		{"add r7, r6, lr, ror r3", false},
		{"mov r7, lr, lsr #32", false},
		{"add r7, r6, #1", false},
		{"ldr r0, [r1, r2, lsr #32]", false},
		{"ldr r0, [r1, r2]", false},
		{"ldr r0, [r1, #4]", false},
		{"ldrh r0, [r1, r2]", false},
		{"mul r0, r1, r2", false},
	} {
		p, err := Assemble(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		ins, err := Decode(p.Words[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := ins.ReadsFlags(); got != tc.want {
			t.Errorf("%s (%08x): ReadsFlags() = %v, want %v", tc.src, p.Words[0], got, tc.want)
		}
	}
}

func TestIsBranch(t *testing.T) {
	cases := []struct {
		asm    string
		branch bool
	}{
		{"b x\nx:", true},
		{"bl x\nx:", true},
		{"mov pc, lr", true},
		{"add r0, r1, r2", false},
		{"ldr pc, [sp]", true},
		{"ldmia sp!, {r0, pc}", true},
		{"ldmia sp!, {r0, r1}", false},
		{"cmp r0, #1", false},
	}
	for _, c := range cases {
		p, err := Assemble(c.asm)
		if err != nil {
			t.Fatalf("%q: %v", c.asm, err)
		}
		ins, _ := Decode(p.Words[0])
		if ins.IsBranch() != c.branch {
			t.Errorf("%q IsBranch = %v, want %v", c.asm, ins.IsBranch(), c.branch)
		}
	}
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	// Any valid data-processing instruction survives encode->decode.
	f := func(op, cond, rd, rn, rm, shAmt uint8, sBit bool, kind uint8) bool {
		i := Instr{
			Op:       Op(op % 16),
			Cond:     Cond(cond % 15), // skip NV
			Rd:       int(rd % 16),
			Rn:       int(rn % 16),
			Rm:       int(rm % 16),
			Shift:    Shift(kind % 4),
			ShiftAmt: int(shAmt % 32),
			SetFlags: sBit,
		}
		switch i.Op {
		case TST, TEQ, CMP, CMN:
			i.SetFlags = true
		}
		w, err := Encode(i)
		if err != nil {
			return false
		}
		d, err := Decode(w)
		if err != nil {
			return false
		}
		return d.Op == i.Op && d.Cond == i.Cond && d.Rd == i.Rd && d.Rn == i.Rn &&
			d.Rm == i.Rm && d.Shift == i.Shift && d.ShiftAmt == i.ShiftAmt &&
			d.SetFlags == i.SetFlags && !d.HasImm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBranchOffsetRoundTrip(t *testing.T) {
	f := func(off int32, link bool) bool {
		off = off % (1 << 23) * 4
		op := B
		if link {
			op = BL
		}
		w, err := Encode(Instr{Cond: AL, Op: op, Offset: off})
		if err != nil {
			return false
		}
		d, err := Decode(w)
		return err == nil && d.Op == op && d.Offset == off
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
		{"ldrh r0, [r1, #2]", 0xE1D100B2},
		{"strh r2, [r3]", 0xE1C320B0},
		{"ldrsb r4, [r5, #1]", 0xE1D540D1},
		{"ldrsh r6, [r7], #2", 0xE0D760F2},
		{"ldrh r0, [r1, r2]", 0xE19100B2},
		{"ldrheq r0, [r1]", 0x01D100B0},
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
		// Round trip through the decoder and disassembler.
		text := Disassemble(c.want)
		p2, err := Assemble(text)
		if err != nil {
			t.Errorf("reassemble %q: %v", text, err)
			continue
		}
		if p2.Words[0] != c.want {
			t.Errorf("%q -> %q: %#08x != %#08x", c.asm, text, p2.Words[0], c.want)
		}
	}
}

func TestHalfwordSrcDstAndClass(t *testing.T) {
	p, _ := Assemble("ldrsh r2, [r3, r4]")
	ins, err := Decode(p.Words[0])
	if err != nil {
		t.Fatal(err)
	}
	if ins.Class() != ClassLoad {
		t.Errorf("class = %s, want load", ins.Class())
	}
	src := ins.SrcRegs()
	if len(src) != 2 || src[0] != 3 || src[1] != 4 {
		t.Errorf("srcs = %v, want [3 4]", src)
	}
	if dst := ins.DstRegs(); len(dst) != 1 || dst[0] != 2 {
		t.Errorf("dsts = %v, want [2]", dst)
	}
	p, _ = Assemble("strh r2, [r3], #4")
	ins, _ = Decode(p.Words[0])
	if ins.Class() != ClassStore {
		t.Errorf("class = %s, want store", ins.Class())
	}
	if dst := ins.DstRegs(); len(dst) != 1 || dst[0] != 3 {
		t.Errorf("post-index strh dsts = %v, want writeback [3]", dst)
	}
}
