package ppc

import (
	"fmt"
	"strconv"
	"strings"
)

// Program is an assembled unit: a flat word image plus its symbol
// table.
type Program struct {
	// Org is the load address of the first word.
	Org uint32
	// Words is the binary image.
	Words []uint32
	// Labels maps symbol names to addresses.
	Labels map[string]uint32
	// Entry is the `_start` label when present, otherwise Org.
	Entry uint32
}

// Size returns the image size in bytes.
func (p *Program) Size() uint32 { return uint32(len(p.Words) * 4) }

// Assemble translates assembly source into a program loaded at
// origin 0. See AssembleAt for the accepted syntax.
func Assemble(src string) (*Program, error) { return AssembleAt(src, 0) }

// AssembleAt runs the two-pass assembler. The syntax follows PowerPC
// convention:
//
//	label:  add{.} rD, rA, rB       ; comment (also # comments)
//	        addi rD, rA, simm / li rD, simm / lis rD, simm
//	        sub rD, rA, rB          ; alias for subf rD, rB, rA
//	        mullw/divw/divwu rD, rA, rB / mulli rD, rA, simm
//	        and/or/xor{.} rA, rS, rB / mr rD, rS / nop
//	        andi./ori/oris/xori rA, rS, uimm
//	        rlwinm{.} rA, rS, sh, mb, me / slwi / srwi rA, rS, n
//	        slw/srw/sraw{.} rA, rS, rB / srawi rA, rS, n
//	        cmpw{i}/cmplw{i} [crN,] rA, <rB|imm>
//	        lwz/lbz/lhz/lha/stw/stb/sth/lwzu/stwu rD, d(rA)
//	        lwzx/stwx/lbzx/stbx/lhzx/lhax/sthx rD, rA, rB
//	        extsb{.}/extsh{.} rA, rS
//	        b/bl label, blr, bctr, bctrl,
//	        beq/bne/blt/ble/bgt/bge/bdnz label
//	        mflr/mtlr/mfctr/mtctr rX
//	        sc
//	        .word v, ... / .space n
func AssembleAt(src string, org uint32) (*Program, error) {
	a := &passembler{org: org, labels: make(map[string]uint32)}
	if err := a.pass(src, false); err != nil {
		return nil, err
	}
	if err := a.pass(src, true); err != nil {
		return nil, err
	}
	p := &Program{Org: org, Words: a.words, Labels: a.labels, Entry: org}
	if e, ok := a.labels["_start"]; ok {
		p.Entry = e
	}
	return p, nil
}

type passembler struct {
	org    uint32
	pc     uint32
	words  []uint32
	labels map[string]uint32
	pass2  bool
}

func (a *passembler) pass(src string, second bool) error {
	a.pc = a.org
	a.pass2 = second
	a.words = a.words[:0]
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		for {
			i := strings.Index(line, ":")
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if label == "" || strings.ContainsAny(label, " \t") {
				return fmt.Errorf("ppc asm: line %d: bad label %q", lineNo+1, label)
			}
			if !a.pass2 {
				if _, dup := a.labels[label]; dup {
					return fmt.Errorf("ppc asm: line %d: duplicate label %q", lineNo+1, label)
				}
				a.labels[label] = a.pc
			}
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		if err := a.statement(line); err != nil {
			return fmt.Errorf("ppc asm: line %d: %w", lineNo+1, err)
		}
		if a.pc-a.org > maxImageBytes {
			return fmt.Errorf("ppc asm: line %d: image exceeds %d bytes", lineNo+1, maxImageBytes)
		}
	}
	return nil
}

// maxImageBytes bounds the assembled image. Sources arrive from
// untrusted specs, and a single `.space` line can otherwise demand
// gigabytes; each statement adds at most maxImageBytes, and the
// per-line check fires before uint32 address arithmetic can wrap.
const maxImageBytes = 16 << 20

func (a *passembler) emit(w uint32) {
	if a.pass2 {
		a.words = append(a.words, w)
	}
	a.pc += 4
}

func (a *passembler) emitIns(ins Instr) error {
	w, err := Encode(ins)
	if err != nil {
		return err
	}
	a.emit(w)
	return nil
}

func parseReg(s string) (int, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "sp" {
		return 1, nil
	}
	if strings.HasPrefix(s, "r") {
		if n, err := strconv.Atoi(s[1:]); err == nil && n >= 0 && n <= 31 {
			return n, nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

func parseCRF(s string) (int, bool) {
	s = strings.ToLower(strings.TrimSpace(s))
	if strings.HasPrefix(s, "cr") {
		if n, err := strconv.Atoi(s[2:]); err == nil && n >= 0 && n <= 7 {
			return n, true
		}
	}
	return 0, false
}

func (a *passembler) value(s string) (uint32, error) {
	s = strings.TrimSpace(s)
	neg := strings.HasPrefix(s, "-")
	s = strings.TrimPrefix(s, "-")
	if v, err := strconv.ParseUint(s, 0, 32); err == nil {
		if neg {
			return uint32(-int32(v)), nil
		}
		return uint32(v), nil
	}
	if addr, ok := a.labels[s]; ok {
		return addr, nil
	}
	if !a.pass2 {
		return 0, nil
	}
	return 0, fmt.Errorf("undefined symbol %q", s)
}

func (a *passembler) sval(s string) (int32, error) {
	v, err := a.value(s)
	return int32(v), err
}

// condBranches maps mnemonics to BO/BI for CR field 0.
var condBranches = map[string][2]int{
	"beq":  {12, CREQ},
	"bne":  {4, CREQ},
	"blt":  {12, CRLT},
	"bge":  {4, CRLT},
	"bgt":  {12, CRGT},
	"ble":  {4, CRGT},
	"bdnz": {16, 0},
}

// recordForms lists the mnemonics that take the record-form "."
// suffix (andi. is spelled with its dot and has no other form).
var recordForms = map[string]bool{
	"mr": true, "add": true, "subf": true, "sub": true, "neg": true,
	"mullw": true, "divw": true, "divwu": true, "and": true, "or": true,
	"xor": true, "slw": true, "srw": true, "sraw": true, "srawi": true,
	"rlwinm": true, "slwi": true, "srwi": true, "clrlwi": true,
	"extsb": true, "extsh": true,
}

func (a *passembler) statement(line string) error {
	mnemonic, rest, _ := strings.Cut(line, " ")
	mnemonic = strings.ToLower(strings.TrimSpace(mnemonic))
	rest = strings.TrimSpace(rest)
	ops := splitOperands(rest)

	rc := strings.HasSuffix(mnemonic, ".") && mnemonic != "andi."
	base := strings.TrimSuffix(mnemonic, ".")
	if mnemonic == "andi." {
		base = "andi."
	}
	if rc && !recordForms[base] {
		return fmt.Errorf("%s has no record form (%q)", base, mnemonic)
	}

	reg3 := func(op Op) error {
		if len(ops) != 3 {
			return fmt.Errorf("%s takes 3 operands", mnemonic)
		}
		r0, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		r1, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		r2, err := parseReg(ops[2])
		if err != nil {
			return err
		}
		return a.emitIns(Instr{Op: op, RT: r0, RA: r1, RB: r2, Rc: rc})
	}
	// Logical register forms write RA and read RS: assembler order is
	// "op rA, rS, rB" which maps to fields RT=rS? No: RT field holds
	// RS. We parse destination first, so swap.
	logical3 := func(op Op) error {
		if len(ops) != 3 {
			return fmt.Errorf("%s takes 3 operands", mnemonic)
		}
		rA, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		rS, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		rB, err := parseReg(ops[2])
		if err != nil {
			return err
		}
		return a.emitIns(Instr{Op: op, RT: rS, RA: rA, RB: rB, Rc: rc})
	}
	immArith := func(op Op) error {
		if len(ops) != 3 {
			return fmt.Errorf("%s takes 3 operands", mnemonic)
		}
		rD, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		rA, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		si, err := a.sval(ops[2])
		if err != nil {
			return err
		}
		if si > 0x7fff || si < -0x8000 {
			return fmt.Errorf("%s immediate %d out of range", mnemonic, si)
		}
		return a.emitIns(Instr{Op: op, RT: rD, RA: rA, SI: si})
	}
	immLogical := func(op Op) error {
		if len(ops) != 3 {
			return fmt.Errorf("%s takes 3 operands", mnemonic)
		}
		rA, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		rS, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		ui, err := a.value(ops[2])
		if err != nil {
			return err
		}
		if ui > 0xffff {
			return fmt.Errorf("%s immediate %#x out of range", mnemonic, ui)
		}
		return a.emitIns(Instr{Op: op, RT: rS, RA: rA, UI: ui})
	}
	dmem := func(op Op) error {
		if len(ops) != 2 {
			return fmt.Errorf("%s takes rD, d(rA)", mnemonic)
		}
		rD, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		open := strings.Index(ops[1], "(")
		if open < 0 || !strings.HasSuffix(ops[1], ")") {
			return fmt.Errorf("bad address %q", ops[1])
		}
		disp := strings.TrimSpace(ops[1][:open])
		if disp == "" {
			disp = "0"
		}
		si, err := a.sval(disp)
		if err != nil {
			return err
		}
		rA, err := parseReg(strings.TrimSuffix(ops[1][open+1:], ")"))
		if err != nil {
			return err
		}
		return a.emitIns(Instr{Op: op, RT: rD, RA: rA, SI: si})
	}
	branchTo := func(lk bool) error {
		if len(ops) != 1 {
			return fmt.Errorf("%s takes a target", mnemonic)
		}
		target, err := a.value(ops[0])
		if err != nil {
			return err
		}
		return a.emitIns(Instr{Op: B, LI: int32(target) - int32(a.pc), LK: lk})
	}
	sprMove := func(op Op, spr int) error {
		if len(ops) != 1 {
			return fmt.Errorf("%s takes one register", mnemonic)
		}
		r, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		return a.emitIns(Instr{Op: op, RT: r, SPR: spr})
	}

	switch base {
	case ".word":
		for _, f := range ops {
			v, err := a.value(f)
			if err != nil {
				return err
			}
			a.emit(v)
		}
		return nil
	case ".space":
		n, err := a.value(rest)
		if err != nil {
			return err
		}
		if n%4 != 0 {
			return fmt.Errorf(".space %d not a word multiple", n)
		}
		if n > maxImageBytes {
			return fmt.Errorf(".space %d exceeds the %d-byte image limit", n, maxImageBytes)
		}
		for k := uint32(0); k < n/4; k++ {
			a.emit(0)
		}
		return nil
	case ".global", ".globl", ".text", ".align":
		return nil
	case "nop":
		return a.emitIns(Instr{Op: ORI, RT: 0, RA: 0, UI: 0})
	case "li":
		if len(ops) != 2 {
			return fmt.Errorf("li takes rD, simm")
		}
		rD, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		si, err := a.sval(ops[1])
		if err != nil {
			return err
		}
		return a.emitIns(Instr{Op: ADDI, RT: rD, RA: 0, SI: si})
	case "lis":
		if len(ops) != 2 {
			return fmt.Errorf("lis takes rD, simm")
		}
		rD, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		si, err := a.sval(ops[1])
		if err != nil {
			return err
		}
		return a.emitIns(Instr{Op: ADDIS, RT: rD, RA: 0, SI: si})
	case "mr":
		if len(ops) != 2 {
			return fmt.Errorf("mr takes rD, rS")
		}
		rD, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		rS, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		return a.emitIns(Instr{Op: OR, RT: rS, RA: rD, RB: rS, Rc: rc})
	case "addi":
		return immArith(ADDI)
	case "addis":
		return immArith(ADDIS)
	case "mulli":
		return immArith(MULLI)
	case "add":
		return reg3(ADD)
	case "subf":
		return reg3(SUBF)
	case "sub":
		// sub rD, rA, rB == subf rD, rB, rA
		if len(ops) != 3 {
			return fmt.Errorf("sub takes 3 operands")
		}
		ops[1], ops[2] = ops[2], ops[1]
		return reg3(SUBF)
	case "neg":
		if len(ops) != 2 {
			return fmt.Errorf("neg takes rD, rA")
		}
		rD, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		rA, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		return a.emitIns(Instr{Op: NEG, RT: rD, RA: rA, Rc: rc})
	case "mullw":
		return reg3(MULLW)
	case "divw":
		return reg3(DIVW)
	case "divwu":
		return reg3(DIVWU)
	case "and":
		return logical3(AND)
	case "or":
		return logical3(OR)
	case "xor":
		return logical3(XOR)
	case "slw":
		return logical3(SLW)
	case "srw":
		return logical3(SRW)
	case "sraw":
		return logical3(SRAW)
	case "andi.":
		return immLogical(ANDI)
	case "ori":
		return immLogical(ORI)
	case "oris":
		return immLogical(ORIS)
	case "xori":
		return immLogical(XORI)
	case "srawi":
		if len(ops) != 3 {
			return fmt.Errorf("srawi takes rA, rS, n")
		}
		rA, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		rS, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		n, err := a.value(ops[2])
		if err != nil {
			return err
		}
		return a.emitIns(Instr{Op: SRAWI, RT: rS, RA: rA, SH: int(n & 31), Rc: rc})
	case "rlwinm", "slwi", "srwi", "clrlwi":
		return a.rotate(base, ops, rc)
	case "cmpw", "cmplw", "cmpwi", "cmplwi":
		return a.compare(base, ops)
	case "b":
		return branchTo(false)
	case "bl":
		return branchTo(true)
	case "blr":
		return a.emitIns(Instr{Op: BCLR, BO: 20, BI: 0})
	case "bctr":
		return a.emitIns(Instr{Op: BCCTR, BO: 20, BI: 0})
	case "bctrl":
		return a.emitIns(Instr{Op: BCCTR, BO: 20, BI: 0, LK: true})
	case "mflr":
		return sprMove(MFSPR, SPRLR)
	case "mtlr":
		return sprMove(MTSPR, SPRLR)
	case "mfctr":
		return sprMove(MFSPR, SPRCTR)
	case "mtctr":
		return sprMove(MTSPR, SPRCTR)
	case "sc":
		return a.emitIns(Instr{Op: SC})
	case "lhz":
		return dmem(LHZ)
	case "lha":
		return dmem(LHA)
	case "sth":
		return dmem(STH)
	case "lhzx":
		return reg3(LHZX)
	case "lhax":
		return reg3(LHAX)
	case "sthx":
		return reg3(STHX)
	case "extsb", "extsh":
		if len(ops) != 2 {
			return fmt.Errorf("%s takes rA, rS", base)
		}
		rA, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		rS, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		op := EXTSB
		if base == "extsh" {
			op = EXTSH
		}
		return a.emitIns(Instr{Op: op, RT: rS, RA: rA, Rc: rc})
	case "lwz":
		return dmem(LWZ)
	case "lwzu":
		return dmem(LWZU)
	case "lbz":
		return dmem(LBZ)
	case "stw":
		return dmem(STW)
	case "stwu":
		return dmem(STWU)
	case "stb":
		return dmem(STB)
	case "lwzx":
		return reg3(LWZX)
	case "stwx":
		return reg3(STWX)
	case "lbzx":
		return reg3(LBZX)
	case "stbx":
		return reg3(STBX)
	}

	if bobi, ok := condBranches[base]; ok {
		if len(ops) != 1 {
			return fmt.Errorf("%s takes a target", mnemonic)
		}
		target, err := a.value(ops[0])
		if err != nil {
			return err
		}
		return a.emitIns(Instr{Op: BC, BO: bobi[0], BI: bobi[1],
			BD: int32(target) - int32(a.pc)})
	}
	return fmt.Errorf("unknown mnemonic %q", mnemonic)
}

func (a *passembler) rotate(base string, ops []string, rc bool) error {
	switch {
	case base == "rlwinm" && len(ops) != 5:
		return fmt.Errorf("rlwinm takes rA, rS, sh, mb, me")
	case base != "rlwinm" && len(ops) != 3:
		return fmt.Errorf("%s takes rA, rS, n", base)
	}
	rA, err := parseReg(ops[0])
	if err != nil {
		return err
	}
	rS, err := parseReg(ops[1])
	if err != nil {
		return err
	}
	ins := Instr{Op: RLWINM, RT: rS, RA: rA, Rc: rc}
	switch base {
	case "rlwinm":
		sh, err1 := a.value(ops[2])
		mb, err2 := a.value(ops[3])
		me, err3 := a.value(ops[4])
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("bad rlwinm parameters")
		}
		ins.SH, ins.MB, ins.ME = int(sh&31), int(mb&31), int(me&31)
	default:
		n, err := a.value(ops[2])
		if err != nil {
			return err
		}
		k := int(n & 31)
		switch base {
		case "slwi":
			ins.SH, ins.MB, ins.ME = k, 0, 31-k
		case "srwi":
			ins.SH, ins.MB, ins.ME = (32-k)&31, k, 31
		case "clrlwi":
			ins.SH, ins.MB, ins.ME = 0, k, 31
		}
	}
	return a.emitIns(ins)
}

func (a *passembler) compare(base string, ops []string) error {
	crf := 0
	if len(ops) == 3 {
		f, ok := parseCRF(ops[0])
		if !ok {
			return fmt.Errorf("%s: bad CR field %q", base, ops[0])
		}
		crf = f
		ops = ops[1:]
	}
	if len(ops) != 2 {
		return fmt.Errorf("%s takes [crN,] rA, <rB|imm>", base)
	}
	rA, err := parseReg(ops[0])
	if err != nil {
		return err
	}
	switch base {
	case "cmpw", "cmplw":
		rB, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		op := CMP
		if base == "cmplw" {
			op = CMPL
		}
		return a.emitIns(Instr{Op: op, CRF: crf, RA: rA, RB: rB})
	case "cmpwi":
		si, err := a.sval(ops[1])
		if err != nil {
			return err
		}
		return a.emitIns(Instr{Op: CMPI, CRF: crf, RA: rA, SI: si})
	default: // cmplwi
		ui, err := a.value(ops[1])
		if err != nil {
			return err
		}
		return a.emitIns(Instr{Op: CMPLI, CRF: crf, RA: rA, UI: ui})
	}
}

// splitOperands splits on top-level commas (parentheses guard the
// d(rA) form).
func splitOperands(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		out = append(out, t)
	}
	return out
}
