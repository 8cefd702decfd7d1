package arm

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// FuzzClassification checks the hazard classification every timing
// simulator builds its dependences from — SrcRegs, DstRegs, ReadsFlags
// and WritesFlags — against execution. A decodable word runs on
// pseudo-random registers, flags and memory. Every register the run
// changes must be in DstRegs, and changed flags need WritesFlags. Then
// each input the classification does not declare — a register outside
// SrcRegs, or a flag when ReadsFlags is false — is perturbed in turn,
// and the run must produce the same outputs: the registers, the flags,
// the bytes it stores and whether it fails. The perturbed input itself
// is compared only when it is a register the instruction declares
// written, which it must overwrite whole; the flags are one token
// (DESIGN §7), so a declared flag write may keep flags it does not
// set. The PC is the instruction's static address, and the models
// resolve a branch's target on their control path, so the PC is
// neither an input nor an output here.
func FuzzClassification(f *testing.F) {
	f.Add(uint32(0xe0821003), uint64(1)) // add r1, r2, r3
	f.Add(uint32(0xe8b1000c), uint64(2)) // ldmia r1!, {r2, r3}
	// An RRX operand shifts the C flag into the result, so ReadsFlags
	// must report it: add r7, r6, lr, rrx.
	f.Add(uint32(0xe086706e), uint64(1))
	// The same for a scaled load offset: ldr r0, [r1, r2, rrx]. The
	// state seed makes the address word-aligned.
	f.Add(uint32(0xe7910062), uint64(4))
	f.Fuzz(func(t *testing.T, word uint32, seed uint64) {
		ins, err := Decode(word)
		if err != nil {
			return
		}
		base := newClassState(seed)
		want := base.run(&ins)
		if want.err != nil {
			return
		}
		srcs, dsts := ins.SrcRegs(), ins.DstRegs()
		for r := 0; r < PC; r++ {
			if want.R[r] != base.R[r] && !slices.Contains(dsts, r) {
				t.Fatalf("%#08x (%s): writes r%d, DstRegs %v", word, ins.String(), r, dsts)
			}
		}
		if want.flags != base.flags && !ins.WritesFlags() {
			t.Fatalf("%#08x (%s): writes the flags, WritesFlags false", word, ins.String())
		}

		mask := uint32(splitmix(&seed)) | 1
		for r := 0; r < PC; r++ {
			if slices.Contains(srcs, r) {
				continue
			}
			in := base
			in.R[r] ^= mask
			if diff := in.run(&ins).differ(want, r, slices.Contains(dsts, r)); diff != "" {
				t.Fatalf("%#08x (%s): r%d is not in SrcRegs %v, but perturbing it changes %s", word, ins.String(), r, srcs, diff)
			}
		}
		if ins.ReadsFlags() {
			return
		}
		for b := uint32(1); b < 16; b <<= 1 {
			in := base
			in.flags ^= b
			if diff := in.run(&ins).differ(want, flagsIn, false); diff != "" {
				t.Fatalf("%#08x (%s): ReadsFlags is false, but perturbing flag %#x changes %s", word, ins.String(), b, diff)
			}
		}
	})
}

// flagsIn names the flags as the perturbed input of classResult.differ.
const flagsIn = -1

// classState is the architectural state one classification run starts
// from: r0-r14, NZCV in Flags() order and the seed of memory's initial
// contents.
type classState struct {
	R     [PC]uint32
	flags uint32
	mem   uint64
}

// newClassState derives a state from seed. Half the registers hold a
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
	s.flags = uint32(splitmix(&seed)) & 15
	return s
}

// classResult is what one run produced.
type classResult struct {
	R      [PC]uint32
	flags  uint32
	stored map[uint32]byte
	err    error
}

// run executes ins once from s at a fixed PC.
func (s classState) run(ins *Instr) classResult {
	m := &classMem{seed: s.mem, stored: map[uint32]byte{}}
	c := &CPU{Mem: m, SWIHandler: func(*CPU, uint32) error { return nil }}
	copy(c.R[:], s.R[:])
	c.R[PC] = 0x8000
	c.SetFlagsWord(s.flags)
	err := c.StepDecoded(*ins)
	var out classResult
	copy(out.R[:], c.R[:PC])
	out.flags, out.stored, out.err = c.Flags(), m.stored, err
	return out
}

// differ names the first output in which r differs from want, or
// returns "". The perturbed input in (a register, or flagsIn) is
// compared only when whole is set.
func (r classResult) differ(want classResult, in int, whole bool) string {
	if (r.err == nil) != (want.err == nil) {
		return "whether it fails"
	}
	for i := range r.R {
		if r.R[i] != want.R[i] && (i != in || whole) {
			return fmt.Sprintf("r%d", i)
		}
	}
	if r.flags != want.flags && in != flagsIn {
		return "the flags"
	}
	if !maps.Equal(r.stored, want.stored) {
		return "the stored bytes"
	}
	return ""
}

// classMem is a little-endian memory whose unwritten bytes hold a
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
	return uint16(m.Read8(a)) | uint16(m.Read8(a+1))<<8
}

func (m *classMem) Read32(a uint32) uint32 {
	return uint32(m.Read16(a)) | uint32(m.Read16(a+2))<<16
}

func (m *classMem) Write8(a uint32, v byte) { m.stored[a] = v }

func (m *classMem) Write16(a uint32, v uint16) {
	m.Write8(a, byte(v))
	m.Write8(a+1, byte(v>>8))
}

func (m *classMem) Write32(a uint32, v uint32) {
	m.Write16(a, uint16(v))
	m.Write16(a+2, uint16(v>>16))
}

// splitmix advances x and returns the next SplitMix64 output.
func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
