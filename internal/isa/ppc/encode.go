package ppc

import "fmt"

// Primary and extended opcode numbers of the subset.
const (
	opcdMULLI  = 7
	opcdCMPLI  = 10
	opcdCMPI   = 11
	opcdADDI   = 14
	opcdADDIS  = 15
	opcdBC     = 16
	opcdSC     = 17
	opcdB      = 18
	opcd19     = 19
	opcdRLWINM = 21
	opcdORI    = 24
	opcdORIS   = 25
	opcdXORI   = 26
	opcdANDI   = 28
	opcd31     = 31
	opcdLWZ    = 32
	opcdLWZU   = 33
	opcdLBZ    = 34
	opcdSTW    = 36
	opcdSTWU   = 37
	opcdSTB    = 38
	opcdLHZ    = 40
	opcdLHA    = 42
	opcdSTH    = 44

	xoCMP   = 0
	xoSLW   = 24
	xoAND   = 28
	xoCMPL  = 32
	xoSUBF  = 40
	xoLWZX  = 23
	xoLBZX  = 87
	xoNEG   = 104
	xoSTWX  = 151
	xoSTBX  = 215
	xoMULLW = 235
	xoOR    = 444
	xoXOR   = 316
	xoMFSPR = 339
	xoMTSPR = 467
	xoDIVWU = 459
	xoDIVW  = 491
	xoSRW   = 536
	xoSRAW  = 792
	xoSRAWI = 824
	xoLHZX  = 279
	xoLHAX  = 343
	xoSTHX  = 407
	xoEXTSH = 922
	xoEXTSB = 954
	xoBCLR  = 16
	xoBCCTR = 528
)

func dform(opcd uint32, rt, ra int, imm uint32) uint32 {
	return opcd<<26 | uint32(rt&31)<<21 | uint32(ra&31)<<16 | imm&0xffff
}

func xform(xo uint32, rt, ra, rb int, rc bool) uint32 {
	w := uint32(opcd31)<<26 | uint32(rt&31)<<21 | uint32(ra&31)<<16 | uint32(rb&31)<<11 | xo<<1
	if rc {
		w |= 1
	}
	return w
}

// Encode produces the 32-bit big-endian PowerPC encoding.
func Encode(i Instr) (uint32, error) {
	switch i.Op {
	case ADDI:
		return dform(opcdADDI, i.RT, i.RA, uint32(i.SI)), nil
	case ADDIS:
		return dform(opcdADDIS, i.RT, i.RA, uint32(i.SI)), nil
	case MULLI:
		return dform(opcdMULLI, i.RT, i.RA, uint32(i.SI)), nil
	case CMPI:
		return dform(opcdCMPI, i.CRF<<2, i.RA, uint32(i.SI)), nil
	case CMPLI:
		return dform(opcdCMPLI, i.CRF<<2, i.RA, uint32(i.UI)), nil
	case ANDI:
		return dform(opcdANDI, i.RT, i.RA, i.UI), nil
	case ORI:
		return dform(opcdORI, i.RT, i.RA, i.UI), nil
	case ORIS:
		return dform(opcdORIS, i.RT, i.RA, i.UI), nil
	case XORI:
		return dform(opcdXORI, i.RT, i.RA, i.UI), nil
	case LWZ, LWZU, LBZ, LHZ, LHA, STW, STWU, STB, STH:
		opcd := map[Op]uint32{LWZ: opcdLWZ, LWZU: opcdLWZU, LBZ: opcdLBZ,
			LHZ: opcdLHZ, LHA: opcdLHA,
			STW: opcdSTW, STWU: opcdSTWU, STB: opcdSTB, STH: opcdSTH}[i.Op]
		return dform(opcd, i.RT, i.RA, uint32(i.SI)), nil
	case RLWINM:
		w := uint32(opcdRLWINM)<<26 | uint32(i.RT&31)<<21 | uint32(i.RA&31)<<16 |
			uint32(i.SH&31)<<11 | uint32(i.MB&31)<<6 | uint32(i.ME&31)<<1
		if i.Rc {
			w |= 1
		}
		return w, nil
	case ADD:
		return xform(266, i.RT, i.RA, i.RB, i.Rc), nil
	case SUBF:
		return xform(xoSUBF, i.RT, i.RA, i.RB, i.Rc), nil
	case NEG:
		return xform(xoNEG, i.RT, i.RA, 0, i.Rc), nil
	case MULLW:
		return xform(xoMULLW, i.RT, i.RA, i.RB, i.Rc), nil
	case DIVW:
		return xform(xoDIVW, i.RT, i.RA, i.RB, i.Rc), nil
	case DIVWU:
		return xform(xoDIVWU, i.RT, i.RA, i.RB, i.Rc), nil
	case AND:
		return xform(xoAND, i.RT, i.RA, i.RB, i.Rc), nil
	case OR:
		return xform(xoOR, i.RT, i.RA, i.RB, i.Rc), nil
	case XOR:
		return xform(xoXOR, i.RT, i.RA, i.RB, i.Rc), nil
	case SLW:
		return xform(xoSLW, i.RT, i.RA, i.RB, i.Rc), nil
	case SRW:
		return xform(xoSRW, i.RT, i.RA, i.RB, i.Rc), nil
	case SRAW:
		return xform(xoSRAW, i.RT, i.RA, i.RB, i.Rc), nil
	case SRAWI:
		return xform(xoSRAWI, i.RT, i.RA, i.SH, i.Rc), nil
	case CMP:
		return xform(xoCMP, i.CRF<<2, i.RA, i.RB, false), nil
	case CMPL:
		return xform(xoCMPL, i.CRF<<2, i.RA, i.RB, false), nil
	case LWZX:
		return xform(xoLWZX, i.RT, i.RA, i.RB, false), nil
	case LHZX:
		return xform(xoLHZX, i.RT, i.RA, i.RB, false), nil
	case LHAX:
		return xform(xoLHAX, i.RT, i.RA, i.RB, false), nil
	case STHX:
		return xform(xoSTHX, i.RT, i.RA, i.RB, false), nil
	case EXTSB:
		return xform(xoEXTSB, i.RT, i.RA, 0, i.Rc), nil
	case EXTSH:
		return xform(xoEXTSH, i.RT, i.RA, 0, i.Rc), nil
	case LBZX:
		return xform(xoLBZX, i.RT, i.RA, i.RB, false), nil
	case STWX:
		return xform(xoSTWX, i.RT, i.RA, i.RB, false), nil
	case STBX:
		return xform(xoSTBX, i.RT, i.RA, i.RB, false), nil
	case MFSPR, MTSPR:
		spr := uint32(i.SPR)
		sprField := (spr&0x1f)<<5 | spr>>5&0x1f
		xo := uint32(xoMFSPR)
		if i.Op == MTSPR {
			xo = xoMTSPR
		}
		return uint32(opcd31)<<26 | uint32(i.RT&31)<<21 | sprField<<11 | xo<<1, nil
	case B:
		if i.LI%4 != 0 {
			return 0, fmt.Errorf("ppc: branch target %d not word aligned", i.LI)
		}
		w := uint32(opcdB)<<26 | uint32(i.LI)&0x03fffffc
		if i.AA {
			w |= 2
		}
		if i.LK {
			w |= 1
		}
		return w, nil
	case BC:
		if i.BD%4 != 0 {
			return 0, fmt.Errorf("ppc: branch displacement %d not word aligned", i.BD)
		}
		if i.BD > 0x7fff*4 || i.BD < -0x8000*4 {
			return 0, fmt.Errorf("ppc: branch displacement %d out of range", i.BD)
		}
		w := uint32(opcdBC)<<26 | uint32(i.BO&31)<<21 | uint32(i.BI&31)<<16 | uint32(i.BD)&0xfffc
		if i.AA {
			w |= 2
		}
		if i.LK {
			w |= 1
		}
		return w, nil
	case BCLR, BCCTR:
		xo := uint32(xoBCLR)
		if i.Op == BCCTR {
			xo = xoBCCTR
		}
		w := uint32(opcd19)<<26 | uint32(i.BO&31)<<21 | uint32(i.BI&31)<<16 | xo<<1
		if i.LK {
			w |= 1
		}
		return w, nil
	case SC:
		return uint32(opcdSC)<<26 | 2, nil
	}
	return 0, fmt.Errorf("ppc: cannot encode op %s", i.Op)
}

func signExt16(v uint32) int32 { return int32(int16(v)) }

// Decode interprets a 32-bit word as an instruction of the subset.
func Decode(w uint32) (Instr, error) {
	i := Instr{Raw: w}
	opcd := w >> 26
	rt := int(w >> 21 & 31)
	ra := int(w >> 16 & 31)
	rb := int(w >> 11 & 31)
	i.RT, i.RA, i.RB = rt, ra, rb
	imm := w & 0xffff
	switch opcd {
	case opcdADDI, opcdADDIS, opcdMULLI:
		i.Op = map[uint32]Op{opcdADDI: ADDI, opcdADDIS: ADDIS, opcdMULLI: MULLI}[opcd]
		i.SI = signExt16(imm)
		return i, nil
	case opcdCMPI, opcdCMPLI:
		i.CRF = rt >> 2
		if opcd == opcdCMPI {
			i.Op = CMPI
			i.SI = signExt16(imm)
		} else {
			i.Op = CMPLI
			i.UI = imm
		}
		return i, nil
	case opcdANDI, opcdORI, opcdORIS, opcdXORI:
		i.Op = map[uint32]Op{opcdANDI: ANDI, opcdORI: ORI, opcdORIS: ORIS, opcdXORI: XORI}[opcd]
		i.UI = imm
		return i, nil
	case opcdRLWINM:
		i.Op = RLWINM
		i.SH = rb
		i.MB = int(w >> 6 & 31)
		i.ME = int(w >> 1 & 31)
		i.Rc = w&1 != 0
		return i, nil
	case opcdLWZ, opcdLWZU, opcdLBZ, opcdLHZ, opcdLHA, opcdSTW, opcdSTWU, opcdSTB, opcdSTH:
		i.Op = map[uint32]Op{opcdLWZ: LWZ, opcdLWZU: LWZU, opcdLBZ: LBZ,
			opcdLHZ: LHZ, opcdLHA: LHA,
			opcdSTW: STW, opcdSTWU: STWU, opcdSTB: STB, opcdSTH: STH}[opcd]
		i.SI = signExt16(imm)
		return i, nil
	case opcdB:
		i.Op = B
		i.LI = int32(w&0x03fffffc) << 6 >> 6
		i.AA = w&2 != 0
		i.LK = w&1 != 0
		return i, nil
	case opcdBC:
		i.Op = BC
		i.BO, i.BI = rt, ra
		i.BD = int32(w&0xfffc) << 16 >> 16
		i.AA = w&2 != 0
		i.LK = w&1 != 0
		return i, nil
	case opcdSC:
		i.Op = SC
		return i, nil
	case opcd19:
		xo := w >> 1 & 0x3ff
		i.BO, i.BI = rt, ra
		i.LK = w&1 != 0
		switch xo {
		case xoBCLR:
			i.Op = BCLR
			return i, nil
		case xoBCCTR:
			i.Op = BCCTR
			if i.BO&0x4 == 0 {
				return i, fmt.Errorf("ppc: decode %#08x: invalid form: bcctr with the CTR-decrement BO bit", w)
			}
			return i, nil
		}
		return i, fmt.Errorf("ppc: decode %#08x: unsupported opcode 19 extended %d", w, xo)
	case opcd31:
		xo := w >> 1 & 0x3ff
		i.Rc = w&1 != 0
		switch xo {
		case 266:
			i.Op = ADD
		case xoSUBF:
			i.Op = SUBF
		case xoNEG:
			i.Op = NEG
		case xoMULLW:
			i.Op = MULLW
		case xoDIVW:
			i.Op = DIVW
		case xoDIVWU:
			i.Op = DIVWU
		case xoAND:
			i.Op = AND
		case xoOR:
			i.Op = OR
		case xoXOR:
			i.Op = XOR
		case xoSLW:
			i.Op = SLW
		case xoSRW:
			i.Op = SRW
		case xoSRAW:
			i.Op = SRAW
		case xoSRAWI:
			i.Op = SRAWI
			i.SH = rb
		case xoCMP:
			i.Op = CMP
			i.CRF = rt >> 2
		case xoCMPL:
			i.Op = CMPL
			i.CRF = rt >> 2
		case xoLWZX:
			i.Op = LWZX
		case xoLHZX:
			i.Op = LHZX
		case xoLHAX:
			i.Op = LHAX
		case xoSTHX:
			i.Op = STHX
		case xoEXTSB:
			i.Op = EXTSB
		case xoEXTSH:
			i.Op = EXTSH
		case xoLBZX:
			i.Op = LBZX
		case xoSTWX:
			i.Op = STWX
		case xoSTBX:
			i.Op = STBX
		case xoMFSPR, xoMTSPR:
			if xo == xoMFSPR {
				i.Op = MFSPR
			} else {
				i.Op = MTSPR
			}
			spr := w >> 11 & 0x3ff
			i.SPR = int((spr&0x1f)<<5 | spr>>5&0x1f)
			i.Rc = false
			switch i.SPR {
			case SPRLR, SPRCTR:
			case SPRXER:
				// No classification predicate declares XER, so a timing
				// model would order these moves on nothing.
				return i, fmt.Errorf("ppc: decode %#08x: invalid form: %s of XER", w, i.Op)
			default:
				return i, fmt.Errorf("ppc: decode %#08x: unsupported SPR %d", w, i.SPR)
			}
		default:
			return i, fmt.Errorf("ppc: decode %#08x: unsupported opcode 31 extended %d", w, xo)
		}
		switch i.Op {
		case CMP, CMPL, LWZX, LBZX, LHZX, LHAX, STWX, STBX, STHX:
			if i.Rc {
				return i, fmt.Errorf("ppc: decode %#08x: invalid form: %s with Rc=1", w, i.Op)
			}
		}
		return i, nil
	}
	return i, fmt.Errorf("ppc: decode %#08x: unsupported primary opcode %d", w, opcd)
}
