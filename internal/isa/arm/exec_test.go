package arm

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// ram is a flat little-endian test memory.
type ram []byte

func (r ram) Read32(a uint32) uint32     { return binary.LittleEndian.Uint32(r[a:]) }
func (r ram) Write32(a uint32, v uint32) { binary.LittleEndian.PutUint32(r[a:], v) }
func (r ram) Read16(a uint32) uint16     { return binary.LittleEndian.Uint16(r[a:]) }
func (r ram) Write16(a uint32, v uint16) { binary.LittleEndian.PutUint16(r[a:], v) }
func (r ram) Read8(a uint32) byte        { return r[a] }
func (r ram) Write8(a uint32, v byte)    { r[a] = v }

// load assembles src, loads it at 0 and returns a CPU with SP at the
// top of a 64 KiB RAM and the standard exit SWI (swi #0 halts with
// r0 as the exit code).
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
	c.R[SP] = uint32(len(mem))
	c.SetPC(p.Entry)
	c.SWIHandler = func(c *CPU, num uint32) error {
		if num == 0 {
			c.Halted = true
			c.ExitCode = c.R[0]
		}
		return nil
	}
	return c
}

// run executes until halt and returns the CPU for inspection.
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

func TestExecArithmetic(t *testing.T) {
	c := run(t, `
		mov r0, #10
		add r0, r0, #5
		sub r0, r0, #3
		rsb r0, r0, #100   ; 100-12 = 88
		swi #0
	`)
	if c.ExitCode != 88 {
		t.Fatalf("exit = %d, want 88", c.ExitCode)
	}
}

func TestExecShifts(t *testing.T) {
	c := run(t, `
		mov r1, #1
		mov r2, r1, lsl #4      ; 16
		mov r3, r2, lsr #2      ; 4
		mvn r4, #0              ; 0xffffffff
		mov r5, r4, asr #16     ; still 0xffffffff
		mov r6, #0xf0
		mov r7, r6, ror #4      ; 0x0000000f
		add r0, r2, r3          ; 20
		add r0, r0, r7          ; 35
		and r5, r5, #0xff       ; 255
		add r0, r0, r5          ; 290
		swi #0
	`)
	if c.ExitCode != 290 {
		t.Fatalf("exit = %d, want 290", c.ExitCode)
	}
}

func TestExecShiftByRegister(t *testing.T) {
	c := run(t, `
		mov r1, #1
		mov r2, #6
		mov r0, r1, lsl r2  ; 64
		swi #0
	`)
	if c.ExitCode != 64 {
		t.Fatalf("exit = %d, want 64", c.ExitCode)
	}
}

func TestExecFactorialLoop(t *testing.T) {
	c := run(t, `
		mov r0, #1      ; acc
		mov r1, #6      ; n
	loop:
		cmp r1, #1
		ble done
		mul r0, r1, r0
		sub r1, r1, #1
		b loop
	done:
		swi #0
	`)
	if c.ExitCode != 720 {
		t.Fatalf("6! = %d, want 720", c.ExitCode)
	}
}

func TestExecFibonacciRecursive(t *testing.T) {
	// Exercises BL, stack push/pop and conditional execution.
	c := run(t, `
		mov r0, #10
		bl fib
		swi #0
	fib:
		cmp r0, #2
		movlt pc, lr
		push {r4, lr}
		mov r4, r0
		sub r0, r4, #1
		bl fib
		push {r0}
		sub r0, r4, #2
		bl fib
		pop {r1}
		add r0, r0, r1
		pop {r4, pc}
	`)
	if c.ExitCode != 55 {
		t.Fatalf("fib(10) = %d, want 55", c.ExitCode)
	}
}

func TestExecMemoryWordAndByte(t *testing.T) {
	c := run(t, `
		mov r1, #0x1000
		mov r2, #0x12
		orr r2, r2, #0x3400
		str r2, [r1]
		ldr r3, [r1]
		ldrb r4, [r1]       ; low byte 0x12
		strb r4, [r1, #8]
		ldr r5, [r1, #8]    ; 0x12
		add r0, r4, r5      ; 0x24
		cmp r2, r3
		addne r0, r0, #100  ; should not fire
		swi #0
	`)
	if c.ExitCode != 0x24 {
		t.Fatalf("exit = %#x, want 0x24", c.ExitCode)
	}
}

func TestExecAddressingModes(t *testing.T) {
	c := run(t, `
		mov r1, #0x2000
		mov r2, #7
		str r2, [r1], #4     ; post: store at 0x2000, r1=0x2004
		str r2, [r1, #4]!    ; pre+wb: store at 0x2008, r1=0x2008
		mov r3, #0x2000
		ldr r4, [r3]         ; 7
		ldr r5, [r3, #8]     ; 7
		sub r6, r1, #0x2000  ; 8
		add r0, r4, r5
		add r0, r0, r6       ; 7+7+8 = 22
		swi #0
	`)
	if c.ExitCode != 22 {
		t.Fatalf("exit = %d, want 22", c.ExitCode)
	}
}

func TestExecBlockTransfer(t *testing.T) {
	c := run(t, `
		mov r0, #1
		mov r1, #2
		mov r2, #3
		mov r4, #0x3000
		stmia r4!, {r0-r2}   ; store 1,2,3 at 0x3000..
		mov r5, #0x3000
		ldr r6, [r5, #8]     ; 3
		mov r0, #0
		mov r1, #0
		mov r2, #0
		ldmdb r4, {r0-r2}    ; reload 1,2,3
		add r0, r0, r1
		add r0, r0, r2       ; 6
		add r0, r0, r6       ; 9
		sub r7, r4, #0x3000  ; 12 (writeback)
		add r0, r0, r7       ; 21
		swi #0
	`)
	if c.ExitCode != 21 {
		t.Fatalf("exit = %d, want 21", c.ExitCode)
	}
}

func TestExecFlagsAndConditions(t *testing.T) {
	c := run(t, `
		mov r0, #0
		; Z flag
		subs r1, r0, #0
		addeq r0, r0, #1      ; +1
		; N flag
		subs r1, r0, #5
		addmi r0, r0, #2      ; +2
		; C flag: unsigned compare
		mov r2, #10
		cmp r2, #3
		addcs r0, r0, #4      ; +4 (10 >= 3 unsigned)
		; V flag: signed overflow 0x7fffffff + 1
		mvn r3, #0x80000000   ; 0x7fffffff
		adds r3, r3, #1
		addvs r0, r0, #8      ; +8
		; GT/LT
		mov r4, #0
		cmp r4, #1
		addlt r0, r0, #16     ; +16
		swi #0
	`)
	if c.ExitCode != 31 {
		t.Fatalf("exit = %d, want 31 (all condition paths)", c.ExitCode)
	}
}

func TestExecCarryChain(t *testing.T) {
	// 64-bit addition via ADDS/ADC: 0xffffffff + 1 -> carry into high.
	c := run(t, `
		mvn r0, #0        ; low a = 0xffffffff
		mov r1, #0        ; high a
		mov r2, #1        ; low b
		mov r3, #0        ; high b
		adds r0, r0, r2   ; low sum = 0, carry
		adc  r1, r1, r3   ; high sum = 1
		mov r0, r1
		swi #0
	`)
	if c.ExitCode != 1 {
		t.Fatalf("high word = %d, want 1", c.ExitCode)
	}
}

func TestExecMlaAndLiteralPool(t *testing.T) {
	c := run(t, `
		ldr r1, =data
		ldr r2, [r1]      ; 6
		ldr r3, [r1, #4]  ; 7
		mov r4, #100
		mla r0, r2, r3, r4 ; 6*7+100 = 142
		swi #0
	data:
		.word 6, 7
	`)
	if c.ExitCode != 142 {
		t.Fatalf("exit = %d, want 142", c.ExitCode)
	}
}

func TestExecPCRelativeRead(t *testing.T) {
	// Reading PC as an operand yields the instruction address + 8.
	c := run(t, `
		mov r0, pc    ; address 0, reads 8
		swi #0
	`)
	if c.ExitCode != 8 {
		t.Fatalf("pc read = %d, want 8", c.ExitCode)
	}
}

func TestExecMovPCReturns(t *testing.T) {
	c := run(t, `
		bl f
		swi #0
	f:	mov r0, #42
		mov pc, lr
	`)
	if c.ExitCode != 42 {
		t.Fatalf("exit = %d, want 42", c.ExitCode)
	}
}

func TestExecConditionFailedCountsAsExecuted(t *testing.T) {
	c := load(t, `
		movs r0, #0       ; sets Z
		addne r0, r0, #1  ; condition fails
		swi #0
	`)
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.Executed != 3 {
		t.Fatalf("executed = %d, want 3", c.Executed)
	}
	if c.ExitCode != 0 {
		t.Fatalf("condition-failed add must not execute; exit = %d", c.ExitCode)
	}
}

func TestExecErrors(t *testing.T) {
	// Unaligned word access.
	c := load(t, `
		mov r1, #2
		ldr r0, [r1]
		swi #0
	`)
	if _, err := c.Run(10); err == nil {
		t.Error("unaligned load must error")
	}
	// SWI without handler.
	c = load(t, "swi #9")
	c.SWIHandler = nil
	if _, err := c.Run(10); err == nil {
		t.Error("swi without handler must error")
	}
	// Step on halted CPU.
	c = run(t, "swi #0")
	if _, err := c.Step(); err == nil {
		t.Error("step on halted CPU must error")
	}
}

func TestExecFlagWordPacking(t *testing.T) {
	c := &CPU{}
	c.N, c.Z, c.C, c.V = true, false, true, false
	if c.Flags() != 0b1010 {
		t.Fatalf("Flags = %#b, want 0b1010", c.Flags())
	}
	c.SetFlagsWord(0b0101)
	if c.N || !c.Z || c.C || !c.V {
		t.Fatal("SetFlagsWord round trip failed")
	}
}

func TestDisassembleSmoke(t *testing.T) {
	srcs := []string{
		"mov r0, #1", "add r1, r2, r3, lsl #2", "ldr r0, [r1, #4]",
		"str r0, [r1], #-8", "ldmia sp!, {r0, pc}", "b x\nx:", "swi #3",
		"mla r0, r1, r2, r3", "cmp r0, #7", "movs r1, r2, lsr #1",
		"strb r0, [r1, r2]",
	}
	for _, src := range srcs {
		p, err := Assemble(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		text := Disassemble(p.Words[0])
		if text == "" || text[0] == '.' {
			t.Errorf("%q disassembled to %q", src, text)
		}
		// Reassembling the disassembly of non-branch ops must give
		// the identical word.
		if src[0] != 'b' {
			p2, err := Assemble(text)
			if err != nil {
				t.Errorf("reassemble %q: %v", text, err)
				continue
			}
			if p2.Words[0] != p.Words[0] {
				t.Errorf("%q -> %q: %#08x != %#08x", src, text, p2.Words[0], p.Words[0])
			}
		}
	}
	if got := Disassemble(0xF7F7F7F7); got[0] != '.' {
		t.Errorf("undecodable word should render as .word, got %q", got)
	}
}

func TestExecHalfwordTransfers(t *testing.T) {
	c := run(t, `
		mov r1, #0x1000
		ldr r2, =0x8001
		strh r2, [r1]        ; store 0x8001
		ldrh r3, [r1]        ; zero-extended: 0x8001
		ldrsh r4, [r1]       ; sign-extended: 0xffff8001
		mvn r5, #0
		cmp r4, r5           ; r4 vs -1: r4 = -32767 < -1? GT actually
		mov r0, #0
		add r0, r0, r3       ; 0x8001
		ldrsh r6, [r1], #2   ; post-index: r1 += 2
		sub r7, r1, #0x1000  ; 2
		add r0, r0, r7       ; 0x8003
		swi #0
	`)
	if c.ExitCode != 0x8003 {
		t.Fatalf("exit = %#x, want 0x8003", c.ExitCode)
	}
}

func TestExecSignedByte(t *testing.T) {
	c := run(t, `
		mov r1, #0x2000
		mov r2, #0xFE        ; -2 as a byte
		strb r2, [r1]
		ldrsb r3, [r1]       ; 0xFFFFFFFE
		mvn r4, #1           ; 0xFFFFFFFE
		cmp r3, r4
		moveq r0, #1
		movne r0, #0
		swi #0
	`)
	if c.ExitCode != 1 {
		t.Fatalf("signed byte load failed")
	}
}

func TestExecHalfwordAlignment(t *testing.T) {
	c := load(t, `
		mov r1, #1
		ldrh r0, [r1]
		swi #0
	`)
	if _, err := c.Run(10); err == nil {
		t.Fatal("unaligned halfword access must error")
	}
}

func TestExecShifterEdgeCases(t *testing.T) {
	c := run(t, `
		; RRX: ror #0 encodes rotate-right-extended through carry
		mov r1, #2
		movs r2, r1, lsr #1   ; r2=1, carry = old bit0 of 2 = 0
		mov r3, #5
		mov r4, r3, rrx       ; carry 0: r4 = 2
		; set carry then RRX again
		mov r1, #3
		movs r2, r1, lsr #1   ; carry = 1, r2 = 1
		mov r5, #4
		mov r6, r5, rrx       ; r6 = 0x80000002
		mov r6, r6, lsr #28   ; 0x8
		; lsr #32 (encoded as 0)
		mvn r7, #0
		movs r8, r7, lsr #32  ; 0, carry = bit31 = 1
		adc r8, r8, #0        ; r8 = 1
		; asr #32
		mvn r9, #0
		mov r10, r9, asr #32  ; all ones
		and r10, r10, #16
		; shift-by-register >= 32
		mov r11, #40
		mov r12, #0xff
		mov r12, r12, lsl r11 ; 0
		add r0, r4, r6
		add r0, r0, r8
		add r0, r0, r10
		add r0, r0, r12       ; 2+8+1+16+0 = 27
		swi #0
	`)
	if c.ExitCode != 27 {
		t.Fatalf("exit = %d, want 27", c.ExitCode)
	}
}

func TestExecBlockTransferModes(t *testing.T) {
	// Exercise IB and DA in addition to the common IA/DB.
	c := run(t, `
		mov r0, #1
		mov r1, #2
		mov r4, #0x3000
		stmib r4, {r0, r1}    ; store at 0x3004, 0x3008
		mov r5, #0x3000
		add r5, r5, #4
		ldr r6, [r5]          ; 1
		ldr r7, [r5, #4]      ; 2
		mov r8, #0x3000
		add r8, r8, #8
		mov r0, #0
		mov r1, #0
		ldmda r8, {r0, r1}    ; loads from 0x3004 (r0) and 0x3008 (r1)
		add r0, r0, r1        ; 1 + 2
		add r0, r0, r6
		add r0, r0, r7        ; 3 + 3 = 6
		swi #0
	`)
	if c.ExitCode != 6 {
		t.Fatalf("exit = %d, want 6", c.ExitCode)
	}
}

func TestExecRsbRscSbc(t *testing.T) {
	c := run(t, `
		mov r1, #10
		rsb r2, r1, #30      ; 20
		subs r3, r1, r1      ; 0, carry set (no borrow)
		sbc r4, r2, #5       ; 20-5-0 = 15 (carry was set)
		rsc r5, r1, #26      ; 26-10-0 = 16
		add r0, r4, r5       ; 31
		swi #0
	`)
	if c.ExitCode != 31 {
		t.Fatalf("exit = %d, want 31", c.ExitCode)
	}
}

func TestExecBicTeqTst(t *testing.T) {
	c := run(t, `
		mov r1, #0xff
		bic r2, r1, #0x0f    ; 0xf0
		teq r2, #0xf0        ; equal -> Z
		moveq r3, #1
		tst r2, #0x10        ; 0xf0 & 0x10 != 0 -> Z clear
		addne r3, r3, #2
		add r0, r2, r3       ; 0xf0 + 3
		swi #0
	`)
	if c.ExitCode != 0xf3 {
		t.Fatalf("exit = %#x, want 0xf3", c.ExitCode)
	}
}

// sparseMem is a little-endian test memory over the whole 32-bit
// address space, so an access at a wrong address lands somewhere
// visible instead of out of range.
type sparseMem map[uint32]byte

func (m sparseMem) Read8(a uint32) byte        { return m[a] }
func (m sparseMem) Write8(a uint32, v byte)    { m[a] = v }
func (m sparseMem) Read16(a uint32) uint16     { return uint16(m[a]) | uint16(m[a+1])<<8 }
func (m sparseMem) Write16(a uint32, v uint16) { m[a], m[a+1] = byte(v), byte(v>>8) }
func (m sparseMem) Read32(a uint32) uint32     { return uint32(m.Read16(a)) | uint32(m.Read16(a+2))<<16 }
func (m sparseMem) Write32(a uint32, v uint32) {
	m.Write16(a, uint16(v))
	m.Write16(a+2, uint16(v>>16))
}

// TestExecScaledOffsetZeroShifts checks the zero-amount immediate
// shifts of a scaled register offset, which follow operand 2's rules:
// LSR #0 and ASR #0 mean #32, and ROR #0 is RRX, shifting C in.
func TestExecScaledOffsetZeroShifts(t *testing.T) {
	const base, marker = 0x1000, 0xa5c3e187
	for _, tc := range []struct {
		offset string
		index  uint32
		carry  bool
		off    uint32 // the offset the shift produces
	}{
		{"r2, lsr #32", 0x8000_0200, false, 0},
		{"r2, lsr #32", 0x8000_0200, true, 0},
		{"r2, asr #32", 0x0000_0200, false, 0},
		{"r2, asr #32", 0x8000_0200, true, 0xffff_ffff},
		{"r2, rrx", 0x201, false, 0x100},
		{"r2, rrx", 0x201, true, 0x8000_0100},
	} {
		addr := uint32(base) + tc.off
		for _, op := range []string{"ldr", "str", "ldrb", "strb"} {
			byteOp := strings.HasSuffix(op, "b")
			if !byteOp && addr%4 != 0 {
				continue
			}
			src := fmt.Sprintf("%s r4, [r1, %s]", op, tc.offset)
			p, err := Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			ins, err := Decode(p.Words[0])
			if err != nil {
				t.Fatal(err)
			}
			mem := sparseMem{}
			c := &CPU{Mem: mem}
			c.R[1], c.R[2], c.C = base, tc.index, tc.carry
			want := uint32(marker)
			if byteOp {
				want &= 0xff
			}
			load := strings.HasPrefix(op, "ldr")
			switch {
			case load && byteOp:
				mem.Write8(addr, byte(want))
			case load:
				mem.Write32(addr, want)
			default:
				c.R[4] = marker
			}
			if err := c.StepDecoded(ins); err != nil {
				t.Errorf("%s with r2=%#x, C=%v: %v", src, tc.index, tc.carry, err)
				continue
			}
			got := c.R[4]
			switch {
			case !load && byteOp:
				got = uint32(mem.Read8(addr))
			case !load:
				got = mem.Read32(addr)
			}
			if got != want {
				t.Errorf("%s with r2=%#x, C=%v: the access missed %#x (offset %#x)",
					src, tc.index, tc.carry, addr, tc.off)
			}
			if c.C != tc.carry {
				t.Errorf("%s: C changed to %v", src, c.C)
			}
		}
	}
}
