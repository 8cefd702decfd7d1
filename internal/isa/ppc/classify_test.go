package ppc

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// FuzzClassification checks the hazard classification every timing
// simulator builds its dependences from — SrcRegs and DstRegs, and
// the CR, LR and CTR predicates — against execution. A decodable word
// runs on pseudo-random registers and memory. Every GPR the run
// changes must be in DstRegs, and a changed CR, LR or CTR needs
// WritesCR, WritesLR or WritesCTR. Then each input the classification
// does not declare — a GPR outside SrcRegs, or CR, LR or CTR when
// ReadsCR, ReadsLR or ReadsCTR is false — is perturbed in turn, and
// the run must produce the same outputs: the GPRs, CR, LR, CTR, the
// bytes it stores and whether it fails. The perturbed input itself is
// compared only when the instruction declares it written and writes
// it whole: CR is one token (DESIGN §7), so a record form or a compare
// keeps the fields it does not set. The PC is the instruction's
// static address, and the models resolve a branch's target on their
// control path, so it is neither an input nor an output here; nor is
// XER, which Decode refuses to move.
func FuzzClassification(f *testing.F) {
	f.Add(uint32(0x7c642a14), uint64(1)) // add r3, r4, r5
	f.Add(uint32(0x4200fff8), uint64(2)) // bdnz .-8
	// Invalid forms Decode must refuse. Accepted, the first two also
	// break the property: bcctr decrements CTR with WritesCTR false,
	// and cmpw with Rc=1 sets CR0 from a GPR SrcRegs omits.
	f.Add(uint32(0x4e33d421), uint64(1)) // bcctr decrementing CTR
	f.Add(uint32(0x7e3aa801), uint64(1)) // cmpw with Rc=1
	f.Add(uint32(0x7c64282f), uint64(1)) // lwzx with Rc=1
	f.Add(uint32(0x7c6103a6), uint64(1)) // mtxer r3
	f.Add(uint32(0x7c8102a6), uint64(1)) // mfxer r4
	f.Fuzz(func(t *testing.T, word uint32, seed uint64) {
		ins, err := Decode(word)
		if err != nil {
			return
		}
		if form := invalidForm(&ins); form != "" {
			t.Fatalf("%#08x (%s): Decode accepts the invalid form %s", word, ins.String(), form)
		}
		base := newClassState(seed)
		want := base.run(&ins)
		if want.err != nil {
			return
		}
		srcs, dsts := ins.SrcRegs(), ins.DstRegs()
		for r := range want.R {
			if want.R[r] != base.R[r] && !slices.Contains(dsts, r) {
				t.Fatalf("%#08x (%s): writes r%d, DstRegs %v", word, ins.String(), r, dsts)
			}
		}
		for k, w := range specials(&ins) {
			if want.spr[k] != base.spr[k] && !w.writes {
				t.Fatalf("%#08x (%s): writes %s, undeclared", word, ins.String(), sprNames[k])
			}
		}

		mask := uint32(splitmix(&seed)) | 1
		for r := range base.R {
			if slices.Contains(srcs, r) {
				continue
			}
			in := base
			in.R[r] ^= mask
			if diff := in.run(&ins).differ(want, r, slices.Contains(dsts, r)); diff != "" {
				t.Fatalf("%#08x (%s): r%d is not in SrcRegs %v, but perturbing it changes %s", word, ins.String(), r, srcs, diff)
			}
		}
		for k, w := range specials(&ins) {
			if w.reads {
				continue
			}
			in := base
			in.spr[k] ^= mask
			whole := w.writes && k != sprCR
			if diff := in.run(&ins).differ(want, len(base.R)+k, whole); diff != "" {
				t.Fatalf("%#08x (%s): %s is undeclared, but perturbing it changes %s", word, ins.String(), sprNames[k], diff)
			}
		}
	})
}

// invalidForm names the invalid form ins is, or returns "": the forms
// Decode refuses because the ISS would execute them differently from
// what the classification declares, or because the architecture
// leaves them undefined.
func invalidForm(ins *Instr) string {
	switch ins.Op {
	case BCCTR:
		if ins.BO&0x4 == 0 {
			return "bcctr with the CTR-decrement BO bit"
		}
	case CMP, CMPL, LWZX, LBZX, LHZX, LHAX, STWX, STBX, STHX:
		if ins.Rc {
			return ins.Op.String() + " with Rc=1"
		}
	case MFSPR, MTSPR:
		if ins.SPR == SPRXER {
			return ins.Op.String() + " of XER"
		}
	}
	return ""
}

// The special registers a classification run tracks, in classState.spr.
const (
	sprCR = iota
	sprLR
	sprCTR
	nSpecial
)

var sprNames = [nSpecial]string{"CR", "LR", "CTR"}

// access is what an instruction declares of one special register.
type access struct{ reads, writes bool }

// specials returns what i declares of CR, LR and CTR.
func specials(i *Instr) [nSpecial]access {
	return [nSpecial]access{
		sprCR:  {i.ReadsCR(), i.WritesCR()},
		sprLR:  {i.ReadsLR(), i.WritesLR()},
		sprCTR: {i.ReadsCTR(), i.WritesCTR()},
	}
}

// classState is the architectural state one classification run starts
// from: the GPRs, CR, LR and CTR, and the seed of memory's initial
// contents.
type classState struct {
	R   [32]uint32
	spr [nSpecial]uint32
	mem uint64
}

// newClassState derives a state from seed. Half the GPRs hold a
// multiple of 8, so that loads and stores often compute aligned
// addresses.
func newClassState(seed uint64) classState {
	s := classState{mem: splitmix(&seed)}
	for r := range s.R {
		v := splitmix(&seed)
		s.R[r] = uint32(v)
		if v>>32&1 == 0 {
			s.R[r] &^= 7
		}
	}
	for k := range s.spr {
		s.spr[k] = uint32(splitmix(&seed))
	}
	return s
}

// classResult is what one run produced.
type classResult struct {
	R      [32]uint32
	spr    [nSpecial]uint32
	stored map[uint32]byte
	err    error
}

// run executes ins once from s at a fixed PC.
func (s classState) run(ins *Instr) classResult {
	m := &classMem{seed: s.mem, stored: map[uint32]byte{}}
	c := &CPU{R: s.R, CR: s.spr[sprCR], LR: s.spr[sprLR], CTR: s.spr[sprCTR], NextPC: 0x8000, Mem: m,
		SCHandler: func(*CPU) error { return nil }}
	err := c.StepDecoded(*ins)
	return classResult{R: c.R, spr: [nSpecial]uint32{c.CR, c.LR, c.CTR}, stored: m.stored, err: err}
}

// differ names the first output in which r differs from want, or
// returns "". The perturbed input in (a GPR, or 32 plus a special
// register's index) is compared only when whole is set.
func (r classResult) differ(want classResult, in int, whole bool) string {
	if (r.err == nil) != (want.err == nil) {
		return "whether it fails"
	}
	for i := range r.R {
		if r.R[i] != want.R[i] && (i != in || whole) {
			return fmt.Sprintf("r%d", i)
		}
	}
	for k := range r.spr {
		if r.spr[k] != want.spr[k] && (len(r.R)+k != in || whole) {
			return sprNames[k]
		}
	}
	if !maps.Equal(r.stored, want.stored) {
		return "the stored bytes"
	}
	return ""
}

// classMem is a big-endian memory whose unwritten bytes hold a
// pseudo-random function of their address and whose stores are
// recorded.
type classMem struct {
	seed   uint64
	stored map[uint32]byte
}

func (m *classMem) Read8(a uint32) byte {
	if b, ok := m.stored[a]; ok {
		return b
	}
	x := m.seed ^ uint64(a)
	return byte(splitmix(&x))
}

func (m *classMem) Read16(a uint32) uint16 {
	return uint16(m.Read8(a))<<8 | uint16(m.Read8(a+1))
}

func (m *classMem) Read32(a uint32) uint32 {
	return uint32(m.Read16(a))<<16 | uint32(m.Read16(a+2))
}

func (m *classMem) Write8(a uint32, v byte) { m.stored[a] = v }

func (m *classMem) Write16(a uint32, v uint16) {
	m.Write8(a, byte(v>>8))
	m.Write8(a+1, byte(v))
}

func (m *classMem) Write32(a uint32, v uint32) {
	m.Write16(a, uint16(v>>16))
	m.Write16(a+2, uint16(v))
}

// splitmix advances x and returns the next SplitMix64 output.
func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
