// Code generated by osmgen; DO NOT EDIT.
//
// One monomorphic function per model edge for the generated engine
// (osm.EngineGenerated): When predicates and manager fast paths are
// inlined at source level; edges the compile stage could not prove
// pure, and attempts made while a gate closure is installed, delegate
// to the interpreter. Regenerate with: go generate ./...

package strongarm

import (
	"repro/internal/osm"
)

// genEdges returns the generated edge functions of the model, keyed
// by osm.GenKey, for Director.AttachGenerated.
func (s *Sim) genEdges() map[string]osm.EdgeFn {
	return map[string]osm.EdgeFn{
		"I/e0":      s.genTry_I_e0,
		"F/F-reset": s.genTry_F_F_reset,
		"F/e1":      s.genTry_F_e1,
		"D/D-reset": s.genTry_D_D_reset,
		"D/e2":      s.genTry_D_e2,
		"E/e3":      s.genTry_E_e3,
		"B/e4":      s.genTry_B_e4,
		"W/e5":      s.genTry_W_e5,
	}
}

// genTry_I_e0 evaluates and commits edge e0: I -> F
// (allocate IF:0).
func (s *Sim) genTry_I_e0(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.mf.AllocGate != nil {
		return m.GenFallback(e)
	}
	if !(s.whenFetch(m)) {
		return false, nil
	}
	if !s.mf.CanAllocate(0) {
		return m.GenBlock(e, 0), nil
	}
	tk0, _ := s.mf.Allocate(m, 0)
	m.GenAdd(tk0)
	return true, m.GenFinish(e)
}

// genTry_F_F_reset evaluates and commits edge F-reset: F -> I
// (inquire reset:0, discard <all>:-2).
func (s *Sim) genTry_F_F_reset(m *osm.Machine, e *osm.Edge) (bool, error) {
	if !s.reset.Inquire(m, 0) {
		return m.GenBlock(e, 0), nil
	}
	m.GenDiscard(e, 1)
	return true, m.GenFinish(e)
}

// genTry_F_e1 evaluates and commits edge e1: F -> D
// (release IF:0, allocate ID:0).
func (s *Sim) genTry_F_e1(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.mf.ReleaseGate != nil || s.md.AllocGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.mf, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.mf, 0)
	}
	if !s.mf.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	if !s.md.CanAllocate(0) {
		return m.GenBlock(e, 1), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.mf.Release(m, rt0)
	tk1, _ := s.md.Allocate(m, 0)
	m.GenAdd(tk1)
	return true, m.GenFinish(e)
}

// genTry_D_D_reset evaluates and commits edge D-reset: D -> I
// (inquire reset:0, discard <all>:-2).
func (s *Sim) genTry_D_D_reset(m *osm.Machine, e *osm.Edge) (bool, error) {
	if !s.reset.Inquire(m, 0) {
		return m.GenBlock(e, 0), nil
	}
	m.GenDiscard(e, 1)
	return true, m.GenFinish(e)
}

// genTry_D_e2 evaluates and commits edge e2: D -> E
// (release ID:0, inquire regfile+fwd:100, allocate EX:0, allocate regfile+fwd:101).
func (s *Sim) genTry_D_e2(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.md.ReleaseGate != nil || s.me.AllocGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.md, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.md, 0)
	}
	if !s.md.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	if !s.regs.Inquire(m, 100) {
		return m.GenBlock(e, 1), nil
	}
	if !s.me.CanAllocate(0) {
		return m.GenBlock(e, 2), nil
	}
	if !s.regs.CanAllocate(m, 101) {
		return m.GenBlock(e, 3), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.md.Release(m, rt0)
	tk2, _ := s.me.Allocate(m, 0)
	m.GenAdd(tk2)
	tk3, ok3 := s.regs.Allocate(m, 101)
	if !ok3 {
		return false, m.GenErrAllocContract(e, s.regs, 101)
	}
	m.GenAdd(tk3)
	s.regs.CommitAllocate(m, tk3)
	return true, m.GenFinish(e)
}

// genTry_E_e3 evaluates and commits edge e3: E -> B
// (release EX:0, allocate BF:0).
func (s *Sim) genTry_E_e3(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.me.ReleaseGate != nil || s.mb.AllocGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.me, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.me, 0)
	}
	if !s.me.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	if !s.mb.CanAllocate(0) {
		return m.GenBlock(e, 1), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.me.Release(m, rt0)
	tk1, _ := s.mb.Allocate(m, 0)
	m.GenAdd(tk1)
	return true, m.GenFinish(e)
}

// genTry_B_e4 evaluates and commits edge e4: B -> W
// (release BF:0, allocate WB:0).
func (s *Sim) genTry_B_e4(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.mb.ReleaseGate != nil || s.mw.AllocGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.mb, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.mb, 0)
	}
	if !s.mb.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	if !s.mw.CanAllocate(0) {
		return m.GenBlock(e, 1), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.mb.Release(m, rt0)
	tk1, _ := s.mw.Allocate(m, 0)
	m.GenAdd(tk1)
	return true, m.GenFinish(e)
}

// genTry_W_e5 evaluates and commits edge e5: W -> I
// (release WB:0, release regfile+fwd:101).
func (s *Sim) genTry_W_e5(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.mw.ReleaseGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.mw, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.mw, 0)
	}
	if !s.mw.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	t1 := m.GenFindHeld(s.regs, 101)
	if t1 < 0 {
		return false, m.GenErrNotHeld(e, s.regs, 101)
	}
	if !s.regs.CanRelease(m, m.GenTokenAt(t1)) {
		return m.GenBlock(e, 1), nil
	}
	rt0 := m.GenRemoveAt(t0)
	if t1 > t0 {
		t1--
	}
	s.mw.Release(m, rt0)
	rt1 := m.GenRemoveAt(t1)
	if !s.regs.Release(m, rt1) {
		return false, m.GenErrReleaseContract(e, s.regs)
	}
	s.regs.CommitRelease(m, rt1)
	return true, m.GenFinish(e)
}
