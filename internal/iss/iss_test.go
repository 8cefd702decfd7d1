package iss

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa/arm"
	"repro/internal/isa/ppc"
	"repro/internal/loader"
	"repro/internal/snap"
	"repro/internal/workload"
)

func armProg(t *testing.T, src string) *arm.Program {
	t.Helper()
	p, err := arm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func ppcProg(t *testing.T, src string) *ppc.Program {
	t.Helper()
	p, err := ppc.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestARMExitAndStats(t *testing.T) {
	s, err := NewARM(armProg(t, `
		mov r1, #0x100
		mov r2, #5
		str r2, [r1]
		ldr r0, [r1]
		mul r0, r0, r2
		bl next
	next:
		swi #0
	`), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if s.CPU.ExitCode != 25 {
		t.Fatalf("exit = %d, want 25", s.CPU.ExitCode)
	}
	if s.Stats.Loads != 1 || s.Stats.Stores != 1 || s.Stats.Branches != 1 || s.Stats.Mults != 1 {
		t.Fatalf("stats = %+v", s.Stats)
	}
	if s.Stats.Syscalls != 1 {
		t.Fatalf("syscalls = %d", s.Stats.Syscalls)
	}
}

func TestARMConsoleOutput(t *testing.T) {
	s, err := NewARM(armProg(t, `
		mov r0, #72      ; 'H'
		swi #1
		mov r0, #105     ; 'i'
		swi #1
		mov r0, #42
		swi #2
		mov r0, #0
		swi #0
	`), 64)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	s.Out = &out
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if out.String() != "Hi42\n" {
		t.Fatalf("output = %q, want Hi42\\n", out.String())
	}
}

func TestARMReportedValues(t *testing.T) {
	s, err := NewARM(armProg(t, `
		mov r0, #7
		swi #3
		mov r0, #9
		swi #3
		mov r0, #0
		swi #0
	`), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(s.Reported) != 2 || s.Reported[0] != 7 || s.Reported[1] != 9 {
		t.Fatalf("reported = %v", s.Reported)
	}
}

func TestARMUnknownSyscall(t *testing.T) {
	s, _ := NewARM(armProg(t, "swi #99"), 64)
	if err := s.Run(10); err == nil {
		t.Fatal("unknown syscall must error")
	}
}

func TestARMInstructionLimit(t *testing.T) {
	s, _ := NewARM(armProg(t, "loop: b loop"), 64)
	err := s.Run(100)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want instruction-limit error", err)
	}
}

func TestARMProgramTooLarge(t *testing.T) {
	p := &arm.Program{Words: make([]uint32, 64<<10)}
	if _, err := NewARM(p, 64); err == nil {
		t.Fatal("oversized program must be rejected")
	}
}

func TestARMFromImage(t *testing.T) {
	p := armProg(t, "mov r0, #3\nswi #0")
	im := &loader.Image{Arch: loader.ArchARM, Org: p.Org, Entry: p.Entry, Words: p.Words}
	s, err := NewARMFromImage(im, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if s.CPU.ExitCode != 3 {
		t.Fatalf("exit = %d", s.CPU.ExitCode)
	}
	im.Arch = loader.ArchPPC
	if _, err := NewARMFromImage(im, 64); err == nil {
		t.Fatal("wrong arch must be rejected")
	}
}

func TestPPCExitAndStats(t *testing.T) {
	s, err := NewPPC(ppcProg(t, `
		li r4, 0x100
		li r5, 6
		stw r5, 0(r4)
		lwz r3, 0(r4)
		mullw r3, r3, r5
		bl next
	next:
		li r0, 1
		sc
	`), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if s.CPU.ExitCode != 36 {
		t.Fatalf("exit = %d, want 36", s.CPU.ExitCode)
	}
	if s.Stats.Loads != 1 || s.Stats.Stores != 1 || s.Stats.Mults != 1 {
		t.Fatalf("stats = %+v", s.Stats)
	}
}

func TestPPCConsoleAndReport(t *testing.T) {
	s, err := NewPPC(ppcProg(t, `
		li r3, 88      ; 'X'
		li r0, 4
		sc
		li r3, 123
		li r0, 5
		sc
		li r3, 55
		li r0, 6
		sc
		li r3, 0
		li r0, 1
		sc
	`), 64)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	s.Out = &out
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if out.String() != "X123\n" {
		t.Fatalf("output = %q", out.String())
	}
	if len(s.Reported) != 1 || s.Reported[0] != 55 {
		t.Fatalf("reported = %v", s.Reported)
	}
}

func TestPPCUnknownSyscallAndLimit(t *testing.T) {
	s, _ := NewPPC(ppcProg(t, "li r0, 42\nsc"), 64)
	if err := s.Run(10); err == nil {
		t.Fatal("unknown syscall must error")
	}
	s, _ = NewPPC(ppcProg(t, "loop: b loop"), 64)
	if err := s.Run(50); err == nil {
		t.Fatal("runaway program must hit the limit")
	}
}

func TestPPCFromImage(t *testing.T) {
	p := ppcProg(t, "li r3, 9\nli r0, 1\nsc")
	im := &loader.Image{Arch: loader.ArchPPC, Org: p.Org, Entry: p.Entry, Words: p.Words}
	s, err := NewPPCFromImage(im, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if s.CPU.ExitCode != 9 {
		t.Fatalf("exit = %d", s.CPU.ExitCode)
	}
	im.Arch = loader.ArchARM
	if _, err := NewPPCFromImage(im, 64); err == nil {
		t.Fatal("wrong arch must be rejected")
	}
}

func TestARMTraceHook(t *testing.T) {
	s, err := NewARM(armProg(t, "mov r0, #1\nadd r0, r0, #2\nswi #0"), 64)
	if err != nil {
		t.Fatal(err)
	}
	var pcs []uint32
	var names []string
	s.Trace = func(pc uint32, ins arm.Instr) {
		pcs = append(pcs, pc)
		names = append(names, ins.Op.String())
	}
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(pcs) != 3 || pcs[0] != 0 || pcs[1] != 4 || pcs[2] != 8 {
		t.Fatalf("trace pcs = %v", pcs)
	}
	if names[0] != "mov" || names[1] != "add" || names[2] != "swi" {
		t.Fatalf("trace ops = %v", names)
	}
}

func TestPPCTraceHook(t *testing.T) {
	s, err := NewPPC(ppcProg(t, "li r3, 0\nli r0, 1\nsc"), 64)
	if err != nil {
		t.Fatal(err)
	}
	var pcs []uint32
	s.Trace = func(pc uint32, ins ppc.Instr) { pcs = append(pcs, pc) }
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(pcs) != 3 || pcs[2] != 8 {
		t.Fatalf("trace pcs = %v", pcs)
	}
}

// TestRestoreRejectsImplausibleReportedCount: a hostile snapshot that
// claims more reported values than it has bytes for is refused before
// the count sizes an allocation.
func TestRestoreRejectsImplausibleReportedCount(t *testing.T) {
	s, err := NewPPC(ppcProg(t, "li r3, 0\nli r0, 1\nsc"), 64)
	if err != nil {
		t.Fatal(err)
	}
	w := snap.NewWriter()
	w.Version(issSnapVersion)
	w.Blob(s.CPU.Snapshot)
	w.Blob(s.RAM.Snapshot)
	snapshotStats(w, &s.Stats)
	w.Int(1 << 44)
	err = s.Restore(snap.NewReader(w.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "implausible reported-value count") {
		t.Fatalf("got %v, want the implausible-count error", err)
	}
}

// TestDecodeCacheSizedToProgram: the cache holds the smallest power of
// two of lines that covers the program's words, capped at
// maxDecodeLines.
func TestDecodeCacheSizedToProgram(t *testing.T) {
	for _, c := range []struct{ words, lines int }{
		{0, 1}, {1, 1}, {29, 32}, {32, 32}, {33, 64}, {179, 256}, {4096, 4096}, {5000, 4096},
	} {
		if got := len(newDecodeCache[arm.Instr](c.words).lines); got != c.lines {
			t.Errorf("%d words: %d lines, want %d", c.words, got, c.lines)
		}
	}
	s, err := NewPPC(ppcProg(t, "li r3, 0\nli r0, 1\nsc"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.dcache.lines); got != 4 {
		t.Fatalf("3-word program: %d lines, want 4", got)
	}
}

// TestProgramLargerThanDecodeCache: with the decode cache cut to 8
// lines every mix kernel outgrows it, so words collide and decode
// afresh; each still runs to its workload reference on both ISAs.
func TestProgramLargerThanDecodeCache(t *testing.T) {
	const n = 20
	for _, w := range workload.Mix() {
		ap, err := w.ARMProgram(n)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewARM(ap, 1024)
		if err != nil {
			t.Fatal(err)
		}
		a.dcache = newDecodeCache[arm.Instr](8)
		if err := a.Run(1 << 30); err != nil {
			t.Fatalf("%s arm: %v", w.Name, err)
		}
		pp, err := w.PPCProgram(n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPPC(pp, 1024)
		if err != nil {
			t.Fatal(err)
		}
		p.dcache = newDecodeCache[ppc.Instr](8)
		if err := p.Run(1 << 30); err != nil {
			t.Fatalf("%s ppc: %v", w.Name, err)
		}
		if len(ap.Words) <= 8 || len(pp.Words) <= 8 {
			t.Fatalf("%s: program fits 8 lines", w.Name)
		}
		want := []uint32{w.Ref(n)}
		if !slices.Equal(a.Reported, want) || !slices.Equal(p.Reported, want) {
			t.Fatalf("%s: reported arm %x ppc %x, want %x", w.Name, a.Reported, p.Reported, want)
		}
	}
}
