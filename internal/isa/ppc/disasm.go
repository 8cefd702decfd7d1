package ppc

import "fmt"

func rn(r int) string { return fmt.Sprintf("r%d", r) }

func (i Instr) dot() string {
	if i.Rc {
		return "."
	}
	return ""
}

// String renders the instruction in assembler syntax; branch targets
// appear as relative byte offsets.
func (i Instr) String() string {
	switch i.Op {
	case ADDI, ADDIS, MULLI:
		// The RA=0 forms are the li/lis idioms.
		if i.RA == 0 && i.Op == ADDI {
			return fmt.Sprintf("li %s, %d", rn(i.RT), i.SI)
		}
		if i.RA == 0 && i.Op == ADDIS {
			return fmt.Sprintf("lis %s, %d", rn(i.RT), i.SI)
		}
		return fmt.Sprintf("%s %s, %s, %d", i.Op, rn(i.RT), rn(i.RA), i.SI)
	case ADD, SUBF, MULLW, DIVW, DIVWU:
		return fmt.Sprintf("%s%s %s, %s, %s", i.Op, i.dot(), rn(i.RT), rn(i.RA), rn(i.RB))
	case NEG:
		return fmt.Sprintf("neg%s %s, %s", i.dot(), rn(i.RT), rn(i.RA))
	case AND, OR, XOR, SLW, SRW, SRAW:
		return fmt.Sprintf("%s%s %s, %s, %s", i.Op, i.dot(), rn(i.RA), rn(i.RT), rn(i.RB))
	case ANDI:
		return fmt.Sprintf("andi. %s, %s, %d", rn(i.RA), rn(i.RT), i.UI)
	case ORI, ORIS, XORI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, rn(i.RA), rn(i.RT), i.UI)
	case SRAWI:
		return fmt.Sprintf("srawi%s %s, %s, %d", i.dot(), rn(i.RA), rn(i.RT), i.SH)
	case RLWINM:
		return fmt.Sprintf("rlwinm%s %s, %s, %d, %d, %d", i.dot(), rn(i.RA), rn(i.RT), i.SH, i.MB, i.ME)
	case CMP:
		return fmt.Sprintf("cmpw cr%d, %s, %s", i.CRF, rn(i.RA), rn(i.RB))
	case CMPL:
		return fmt.Sprintf("cmplw cr%d, %s, %s", i.CRF, rn(i.RA), rn(i.RB))
	case CMPI:
		return fmt.Sprintf("cmpwi cr%d, %s, %d", i.CRF, rn(i.RA), i.SI)
	case CMPLI:
		return fmt.Sprintf("cmplwi cr%d, %s, %d", i.CRF, rn(i.RA), i.UI)
	case LWZ, LWZU, LBZ, LHZ, LHA, STW, STWU, STB, STH:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, rn(i.RT), i.SI, rn(i.RA))
	case LWZX, STWX, LBZX, STBX, LHZX, LHAX, STHX:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, rn(i.RT), rn(i.RA), rn(i.RB))
	case EXTSB, EXTSH:
		return fmt.Sprintf("%s%s %s, %s", i.Op, i.dot(), rn(i.RA), rn(i.RT))
	case B:
		m := "b"
		if i.LK {
			m = "bl"
		}
		return fmt.Sprintf("%s .%+d", m, i.LI)
	case BC:
		return fmt.Sprintf("bc %d, %d, .%+d", i.BO, i.BI, i.BD)
	case BCLR:
		if i.BO == 20 {
			return "blr"
		}
		return fmt.Sprintf("bclr %d, %d", i.BO, i.BI)
	case BCCTR:
		if i.BO == 20 {
			if i.LK {
				return "bctrl"
			}
			return "bctr"
		}
		return fmt.Sprintf("bcctr %d, %d", i.BO, i.BI)
	case MFSPR, MTSPR:
		name := map[int]string{SPRLR: "lr", SPRCTR: "ctr"}[i.SPR]
		if i.Op == MFSPR {
			return fmt.Sprintf("mf%s %s", name, rn(i.RT))
		}
		return fmt.Sprintf("mt%s %s", name, rn(i.RT))
	case SC:
		return "sc"
	}
	return fmt.Sprintf(".word 0x%08x", i.Raw)
}

// Disassemble decodes and renders a word, falling back to a raw
// ".word" directive for undecodable encodings.
func Disassemble(w uint32) string {
	ins, err := Decode(w)
	if err != nil {
		return fmt.Sprintf(".word 0x%08x", w)
	}
	return ins.String()
}
