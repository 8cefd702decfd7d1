// Code generated by osmgen; DO NOT EDIT.
//
// One monomorphic function per model edge for the generated engine
// (osm.EngineGenerated): When predicates and manager fast paths are
// inlined at source level; edges the compile stage could not prove
// pure, and attempts made while a gate closure is installed, delegate
// to the interpreter. Regenerate with: go generate ./...

package ppc750

import (
	"repro/internal/osm"
)

// genEdges returns the generated edge functions of the model, keyed
// by osm.GenKey, for Director.AttachGenerated.
func (s *Sim) genEdges() map[string]osm.EdgeFn {
	return map[string]osm.EdgeFn{
		"I/fetch":        s.genTry_I_fetch,
		"Q/Q-reset":      s.genTry_Q_Q_reset,
		"Q/disp-iu2":     s.genTry_Q_disp_iu2,
		"Q/disp-iu1":     s.genTry_Q_disp_iu1,
		"Q/disp-lsu":     s.genTry_Q_disp_lsu,
		"Q/disp-bpu":     s.genTry_Q_disp_bpu,
		"Q/disp-sru":     s.genTry_Q_disp_sru,
		"Q/rs-iu2":       s.genTry_Q_rs_iu2,
		"Q/rs-iu1":       s.genTry_Q_rs_iu1,
		"Q/rs-lsu":       s.genTry_Q_rs_lsu,
		"Q/rs-bpu":       s.genTry_Q_rs_bpu,
		"Q/rs-sru":       s.genTry_Q_rs_sru,
		"Eiu2/fin-iu2":   s.genTry_Eiu2_fin_iu2,
		"C/complete":     s.genTry_C_complete,
		"Eiu1/fin-iu1":   s.genTry_Eiu1_fin_iu1,
		"Elsu/fin-lsu":   s.genTry_Elsu_fin_lsu,
		"Ebpu/fin-bpu":   s.genTry_Ebpu_fin_bpu,
		"Esru/fin-sru":   s.genTry_Esru_fin_sru,
		"Wiu2/issue-iu2": s.genTry_Wiu2_issue_iu2,
		"Wiu1/issue-iu1": s.genTry_Wiu1_issue_iu1,
		"Wlsu/issue-lsu": s.genTry_Wlsu_issue_lsu,
		"Wbpu/issue-bpu": s.genTry_Wbpu_issue_bpu,
		"Wsru/issue-sru": s.genTry_Wsru_issue_sru,
	}
}

// genTry_I_fetch evaluates and commits edge fetch: I -> Q
// (allocate fetch-queue:-1).
func (s *Sim) genTry_I_fetch(m *osm.Machine, e *osm.Edge) (bool, error) {
	if !(s.whenFetch(m)) {
		return false, nil
	}
	if !s.fq.CanAllocate(m, osm.AnyUnit) {
		return m.GenBlock(e, 0), nil
	}
	tk0, ok0 := s.fq.Allocate(m, osm.AnyUnit)
	if !ok0 {
		return false, m.GenErrAllocContract(e, s.fq, osm.AnyUnit)
	}
	m.GenAdd(tk0)
	s.fq.CommitAllocate(m, tk0)
	return true, m.GenFinish(e)
}

// genTry_Q_Q_reset evaluates and commits edge Q-reset: Q -> I
// (inquire reset:0, discard <all>:-2).
func (s *Sim) genTry_Q_Q_reset(m *osm.Machine, e *osm.Edge) (bool, error) {
	if !s.reset.Inquire(m, 0) {
		return m.GenBlock(e, 0), nil
	}
	m.GenDiscard(e, 1)
	return true, m.GenFinish(e)
}

// genTry_Q_disp_iu2 evaluates and commits edge disp-iu2: Q -> Eiu2
// (release fetch-queue:dyn, allocate completion-queue:-1, inquire regfiles+rename:200, allocate regfiles+rename:202, allocate iu2:0).
func (s *Sim) genTry_Q_disp_iu2(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[0].fu.AllocGate != nil {
		return m.GenFallback(e)
	}
	if !(s.whenHead(m)) {
		return false, nil
	}
	id0 := anyHeld(m)
	t0 := m.GenFindHeld(s.fq, id0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.fq, id0)
	}
	if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
		return m.GenBlock(e, 0), nil
	}
	if !s.cq.CanAllocate(m, osm.AnyUnit) {
		return m.GenBlock(e, 1), nil
	}
	if !s.ren.Inquire(m, 200) {
		return m.GenBlock(e, 2), nil
	}
	if !s.ren.CanAllocate(m, 202) {
		return m.GenBlock(e, 3), nil
	}
	if !s.units[0].fu.CanAllocate(0) {
		return m.GenBlock(e, 4), nil
	}
	rt0 := m.GenRemoveAt(t0)
	if !s.fq.Release(m, rt0) {
		return false, m.GenErrReleaseContract(e, s.fq)
	}
	s.fq.CommitRelease(m, rt0)
	tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
	if !ok1 {
		return false, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
	}
	m.GenAdd(tk1)
	s.cq.CommitAllocate(m, tk1)
	tk3, ok3 := s.ren.Allocate(m, 202)
	if !ok3 {
		return false, m.GenErrAllocContract(e, s.ren, 202)
	}
	m.GenAdd(tk3)
	s.ren.CommitAllocate(m, tk3)
	tk4, _ := s.units[0].fu.Allocate(m, 0)
	m.GenAdd(tk4)
	return true, m.GenFinish(e)
}

// genTry_Q_disp_iu1 evaluates and commits edge disp-iu1: Q -> Eiu1
// (release fetch-queue:dyn, allocate completion-queue:-1, inquire regfiles+rename:200, allocate regfiles+rename:202, allocate iu1:0).
func (s *Sim) genTry_Q_disp_iu1(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[1].fu.AllocGate != nil {
		return m.GenFallback(e)
	}
	if !(s.whenHead(m)) {
		return false, nil
	}
	id0 := anyHeld(m)
	t0 := m.GenFindHeld(s.fq, id0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.fq, id0)
	}
	if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
		return m.GenBlock(e, 0), nil
	}
	if !s.cq.CanAllocate(m, osm.AnyUnit) {
		return m.GenBlock(e, 1), nil
	}
	if !s.ren.Inquire(m, 200) {
		return m.GenBlock(e, 2), nil
	}
	if !s.ren.CanAllocate(m, 202) {
		return m.GenBlock(e, 3), nil
	}
	if !s.units[1].fu.CanAllocate(0) {
		return m.GenBlock(e, 4), nil
	}
	rt0 := m.GenRemoveAt(t0)
	if !s.fq.Release(m, rt0) {
		return false, m.GenErrReleaseContract(e, s.fq)
	}
	s.fq.CommitRelease(m, rt0)
	tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
	if !ok1 {
		return false, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
	}
	m.GenAdd(tk1)
	s.cq.CommitAllocate(m, tk1)
	tk3, ok3 := s.ren.Allocate(m, 202)
	if !ok3 {
		return false, m.GenErrAllocContract(e, s.ren, 202)
	}
	m.GenAdd(tk3)
	s.ren.CommitAllocate(m, tk3)
	tk4, _ := s.units[1].fu.Allocate(m, 0)
	m.GenAdd(tk4)
	return true, m.GenFinish(e)
}

// genTry_Q_disp_lsu evaluates and commits edge disp-lsu: Q -> Elsu
// (release fetch-queue:dyn, allocate completion-queue:-1, inquire regfiles+rename:200, allocate regfiles+rename:202, allocate lsu:0).
func (s *Sim) genTry_Q_disp_lsu(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[2].fu.AllocGate != nil {
		return m.GenFallback(e)
	}
	if !(s.whenHead(m)) {
		return false, nil
	}
	id0 := anyHeld(m)
	t0 := m.GenFindHeld(s.fq, id0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.fq, id0)
	}
	if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
		return m.GenBlock(e, 0), nil
	}
	if !s.cq.CanAllocate(m, osm.AnyUnit) {
		return m.GenBlock(e, 1), nil
	}
	if !s.ren.Inquire(m, 200) {
		return m.GenBlock(e, 2), nil
	}
	if !s.ren.CanAllocate(m, 202) {
		return m.GenBlock(e, 3), nil
	}
	if !s.units[2].fu.CanAllocate(0) {
		return m.GenBlock(e, 4), nil
	}
	rt0 := m.GenRemoveAt(t0)
	if !s.fq.Release(m, rt0) {
		return false, m.GenErrReleaseContract(e, s.fq)
	}
	s.fq.CommitRelease(m, rt0)
	tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
	if !ok1 {
		return false, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
	}
	m.GenAdd(tk1)
	s.cq.CommitAllocate(m, tk1)
	tk3, ok3 := s.ren.Allocate(m, 202)
	if !ok3 {
		return false, m.GenErrAllocContract(e, s.ren, 202)
	}
	m.GenAdd(tk3)
	s.ren.CommitAllocate(m, tk3)
	tk4, _ := s.units[2].fu.Allocate(m, 0)
	m.GenAdd(tk4)
	return true, m.GenFinish(e)
}

// genTry_Q_disp_bpu evaluates and commits edge disp-bpu: Q -> Ebpu
// (release fetch-queue:dyn, allocate completion-queue:-1, inquire regfiles+rename:200, allocate regfiles+rename:202, allocate bpu:0).
func (s *Sim) genTry_Q_disp_bpu(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[3].fu.AllocGate != nil {
		return m.GenFallback(e)
	}
	if !(s.whenHead(m)) {
		return false, nil
	}
	id0 := anyHeld(m)
	t0 := m.GenFindHeld(s.fq, id0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.fq, id0)
	}
	if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
		return m.GenBlock(e, 0), nil
	}
	if !s.cq.CanAllocate(m, osm.AnyUnit) {
		return m.GenBlock(e, 1), nil
	}
	if !s.ren.Inquire(m, 200) {
		return m.GenBlock(e, 2), nil
	}
	if !s.ren.CanAllocate(m, 202) {
		return m.GenBlock(e, 3), nil
	}
	if !s.units[3].fu.CanAllocate(0) {
		return m.GenBlock(e, 4), nil
	}
	rt0 := m.GenRemoveAt(t0)
	if !s.fq.Release(m, rt0) {
		return false, m.GenErrReleaseContract(e, s.fq)
	}
	s.fq.CommitRelease(m, rt0)
	tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
	if !ok1 {
		return false, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
	}
	m.GenAdd(tk1)
	s.cq.CommitAllocate(m, tk1)
	tk3, ok3 := s.ren.Allocate(m, 202)
	if !ok3 {
		return false, m.GenErrAllocContract(e, s.ren, 202)
	}
	m.GenAdd(tk3)
	s.ren.CommitAllocate(m, tk3)
	tk4, _ := s.units[3].fu.Allocate(m, 0)
	m.GenAdd(tk4)
	return true, m.GenFinish(e)
}

// genTry_Q_disp_sru evaluates and commits edge disp-sru: Q -> Esru
// (release fetch-queue:dyn, allocate completion-queue:-1, inquire regfiles+rename:200, allocate regfiles+rename:202, allocate sru:0).
func (s *Sim) genTry_Q_disp_sru(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[4].fu.AllocGate != nil {
		return m.GenFallback(e)
	}
	if !(s.whenHead(m)) {
		return false, nil
	}
	id0 := anyHeld(m)
	t0 := m.GenFindHeld(s.fq, id0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.fq, id0)
	}
	if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
		return m.GenBlock(e, 0), nil
	}
	if !s.cq.CanAllocate(m, osm.AnyUnit) {
		return m.GenBlock(e, 1), nil
	}
	if !s.ren.Inquire(m, 200) {
		return m.GenBlock(e, 2), nil
	}
	if !s.ren.CanAllocate(m, 202) {
		return m.GenBlock(e, 3), nil
	}
	if !s.units[4].fu.CanAllocate(0) {
		return m.GenBlock(e, 4), nil
	}
	rt0 := m.GenRemoveAt(t0)
	if !s.fq.Release(m, rt0) {
		return false, m.GenErrReleaseContract(e, s.fq)
	}
	s.fq.CommitRelease(m, rt0)
	tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
	if !ok1 {
		return false, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
	}
	m.GenAdd(tk1)
	s.cq.CommitAllocate(m, tk1)
	tk3, ok3 := s.ren.Allocate(m, 202)
	if !ok3 {
		return false, m.GenErrAllocContract(e, s.ren, 202)
	}
	m.GenAdd(tk3)
	s.ren.CommitAllocate(m, tk3)
	tk4, _ := s.units[4].fu.Allocate(m, 0)
	m.GenAdd(tk4)
	return true, m.GenFinish(e)
}

// genTry_Q_rs_iu2 evaluates and commits edge rs-iu2: Q -> Wiu2
// (release fetch-queue:dyn, allocate completion-queue:-1, allocate regfiles+rename:202, allocate iu2-rs:0).
func (s *Sim) genTry_Q_rs_iu2(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[0].rs.AllocGate != nil {
		return m.GenFallback(e)
	}
	if !(s.whenHead(m)) {
		return false, nil
	}
	id0 := anyHeld(m)
	t0 := m.GenFindHeld(s.fq, id0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.fq, id0)
	}
	if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
		return m.GenBlock(e, 0), nil
	}
	if !s.cq.CanAllocate(m, osm.AnyUnit) {
		return m.GenBlock(e, 1), nil
	}
	if !s.ren.CanAllocate(m, 202) {
		return m.GenBlock(e, 2), nil
	}
	if !s.units[0].rs.CanAllocate(0) {
		return m.GenBlock(e, 3), nil
	}
	rt0 := m.GenRemoveAt(t0)
	if !s.fq.Release(m, rt0) {
		return false, m.GenErrReleaseContract(e, s.fq)
	}
	s.fq.CommitRelease(m, rt0)
	tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
	if !ok1 {
		return false, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
	}
	m.GenAdd(tk1)
	s.cq.CommitAllocate(m, tk1)
	tk2, ok2 := s.ren.Allocate(m, 202)
	if !ok2 {
		return false, m.GenErrAllocContract(e, s.ren, 202)
	}
	m.GenAdd(tk2)
	s.ren.CommitAllocate(m, tk2)
	tk3, _ := s.units[0].rs.Allocate(m, 0)
	m.GenAdd(tk3)
	return true, m.GenFinish(e)
}

// genTry_Q_rs_iu1 evaluates and commits edge rs-iu1: Q -> Wiu1
// (release fetch-queue:dyn, allocate completion-queue:-1, allocate regfiles+rename:202, allocate iu1-rs:0).
func (s *Sim) genTry_Q_rs_iu1(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[1].rs.AllocGate != nil {
		return m.GenFallback(e)
	}
	if !(s.whenHead(m)) {
		return false, nil
	}
	id0 := anyHeld(m)
	t0 := m.GenFindHeld(s.fq, id0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.fq, id0)
	}
	if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
		return m.GenBlock(e, 0), nil
	}
	if !s.cq.CanAllocate(m, osm.AnyUnit) {
		return m.GenBlock(e, 1), nil
	}
	if !s.ren.CanAllocate(m, 202) {
		return m.GenBlock(e, 2), nil
	}
	if !s.units[1].rs.CanAllocate(0) {
		return m.GenBlock(e, 3), nil
	}
	rt0 := m.GenRemoveAt(t0)
	if !s.fq.Release(m, rt0) {
		return false, m.GenErrReleaseContract(e, s.fq)
	}
	s.fq.CommitRelease(m, rt0)
	tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
	if !ok1 {
		return false, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
	}
	m.GenAdd(tk1)
	s.cq.CommitAllocate(m, tk1)
	tk2, ok2 := s.ren.Allocate(m, 202)
	if !ok2 {
		return false, m.GenErrAllocContract(e, s.ren, 202)
	}
	m.GenAdd(tk2)
	s.ren.CommitAllocate(m, tk2)
	tk3, _ := s.units[1].rs.Allocate(m, 0)
	m.GenAdd(tk3)
	return true, m.GenFinish(e)
}

// genTry_Q_rs_lsu evaluates and commits edge rs-lsu: Q -> Wlsu
// (release fetch-queue:dyn, allocate completion-queue:-1, allocate regfiles+rename:202, allocate lsu-rs:0).
func (s *Sim) genTry_Q_rs_lsu(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[2].rs.AllocGate != nil {
		return m.GenFallback(e)
	}
	if !(s.whenHead(m)) {
		return false, nil
	}
	id0 := anyHeld(m)
	t0 := m.GenFindHeld(s.fq, id0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.fq, id0)
	}
	if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
		return m.GenBlock(e, 0), nil
	}
	if !s.cq.CanAllocate(m, osm.AnyUnit) {
		return m.GenBlock(e, 1), nil
	}
	if !s.ren.CanAllocate(m, 202) {
		return m.GenBlock(e, 2), nil
	}
	if !s.units[2].rs.CanAllocate(0) {
		return m.GenBlock(e, 3), nil
	}
	rt0 := m.GenRemoveAt(t0)
	if !s.fq.Release(m, rt0) {
		return false, m.GenErrReleaseContract(e, s.fq)
	}
	s.fq.CommitRelease(m, rt0)
	tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
	if !ok1 {
		return false, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
	}
	m.GenAdd(tk1)
	s.cq.CommitAllocate(m, tk1)
	tk2, ok2 := s.ren.Allocate(m, 202)
	if !ok2 {
		return false, m.GenErrAllocContract(e, s.ren, 202)
	}
	m.GenAdd(tk2)
	s.ren.CommitAllocate(m, tk2)
	tk3, _ := s.units[2].rs.Allocate(m, 0)
	m.GenAdd(tk3)
	return true, m.GenFinish(e)
}

// genTry_Q_rs_bpu evaluates and commits edge rs-bpu: Q -> Wbpu
// (release fetch-queue:dyn, allocate completion-queue:-1, allocate regfiles+rename:202, allocate bpu-rs:0).
func (s *Sim) genTry_Q_rs_bpu(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[3].rs.AllocGate != nil {
		return m.GenFallback(e)
	}
	if !(s.whenHead(m)) {
		return false, nil
	}
	id0 := anyHeld(m)
	t0 := m.GenFindHeld(s.fq, id0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.fq, id0)
	}
	if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
		return m.GenBlock(e, 0), nil
	}
	if !s.cq.CanAllocate(m, osm.AnyUnit) {
		return m.GenBlock(e, 1), nil
	}
	if !s.ren.CanAllocate(m, 202) {
		return m.GenBlock(e, 2), nil
	}
	if !s.units[3].rs.CanAllocate(0) {
		return m.GenBlock(e, 3), nil
	}
	rt0 := m.GenRemoveAt(t0)
	if !s.fq.Release(m, rt0) {
		return false, m.GenErrReleaseContract(e, s.fq)
	}
	s.fq.CommitRelease(m, rt0)
	tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
	if !ok1 {
		return false, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
	}
	m.GenAdd(tk1)
	s.cq.CommitAllocate(m, tk1)
	tk2, ok2 := s.ren.Allocate(m, 202)
	if !ok2 {
		return false, m.GenErrAllocContract(e, s.ren, 202)
	}
	m.GenAdd(tk2)
	s.ren.CommitAllocate(m, tk2)
	tk3, _ := s.units[3].rs.Allocate(m, 0)
	m.GenAdd(tk3)
	return true, m.GenFinish(e)
}

// genTry_Q_rs_sru evaluates and commits edge rs-sru: Q -> Wsru
// (release fetch-queue:dyn, allocate completion-queue:-1, allocate regfiles+rename:202, allocate sru-rs:0).
func (s *Sim) genTry_Q_rs_sru(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[4].rs.AllocGate != nil {
		return m.GenFallback(e)
	}
	if !(s.whenHead(m)) {
		return false, nil
	}
	id0 := anyHeld(m)
	t0 := m.GenFindHeld(s.fq, id0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.fq, id0)
	}
	if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
		return m.GenBlock(e, 0), nil
	}
	if !s.cq.CanAllocate(m, osm.AnyUnit) {
		return m.GenBlock(e, 1), nil
	}
	if !s.ren.CanAllocate(m, 202) {
		return m.GenBlock(e, 2), nil
	}
	if !s.units[4].rs.CanAllocate(0) {
		return m.GenBlock(e, 3), nil
	}
	rt0 := m.GenRemoveAt(t0)
	if !s.fq.Release(m, rt0) {
		return false, m.GenErrReleaseContract(e, s.fq)
	}
	s.fq.CommitRelease(m, rt0)
	tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
	if !ok1 {
		return false, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
	}
	m.GenAdd(tk1)
	s.cq.CommitAllocate(m, tk1)
	tk2, ok2 := s.ren.Allocate(m, 202)
	if !ok2 {
		return false, m.GenErrAllocContract(e, s.ren, 202)
	}
	m.GenAdd(tk2)
	s.ren.CommitAllocate(m, tk2)
	tk3, _ := s.units[4].rs.Allocate(m, 0)
	m.GenAdd(tk3)
	return true, m.GenFinish(e)
}

// genTry_Eiu2_fin_iu2 evaluates and commits edge fin-iu2: Eiu2 -> C
// (release iu2:0).
func (s *Sim) genTry_Eiu2_fin_iu2(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[0].fu.ReleaseGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.units[0].fu, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.units[0].fu, 0)
	}
	if !s.units[0].fu.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.units[0].fu.Release(m, rt0)
	return true, m.GenFinish(e)
}

// genTry_C_complete evaluates and commits edge complete: C -> I
// (release completion-queue:dyn, release regfiles+rename:202).
func (s *Sim) genTry_C_complete(m *osm.Machine, e *osm.Edge) (bool, error) {
	id0 := anyHeld(m)
	t0 := m.GenFindHeld(s.cq, id0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.cq, id0)
	}
	if !s.cq.CanRelease(m, m.GenTokenAt(t0)) {
		return m.GenBlock(e, 0), nil
	}
	t1 := m.GenFindHeld(s.ren, 202)
	if t1 < 0 {
		return false, m.GenErrNotHeld(e, s.ren, 202)
	}
	if !s.ren.CanRelease(m, m.GenTokenAt(t1)) {
		return m.GenBlock(e, 1), nil
	}
	rt0 := m.GenRemoveAt(t0)
	if t1 > t0 {
		t1--
	}
	if !s.cq.Release(m, rt0) {
		return false, m.GenErrReleaseContract(e, s.cq)
	}
	s.cq.CommitRelease(m, rt0)
	rt1 := m.GenRemoveAt(t1)
	if !s.ren.Release(m, rt1) {
		return false, m.GenErrReleaseContract(e, s.ren)
	}
	s.ren.CommitRelease(m, rt1)
	return true, m.GenFinish(e)
}

// genTry_Eiu1_fin_iu1 evaluates and commits edge fin-iu1: Eiu1 -> C
// (release iu1:0).
func (s *Sim) genTry_Eiu1_fin_iu1(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[1].fu.ReleaseGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.units[1].fu, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.units[1].fu, 0)
	}
	if !s.units[1].fu.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.units[1].fu.Release(m, rt0)
	return true, m.GenFinish(e)
}

// genTry_Elsu_fin_lsu evaluates and commits edge fin-lsu: Elsu -> C
// (release lsu:0).
func (s *Sim) genTry_Elsu_fin_lsu(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[2].fu.ReleaseGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.units[2].fu, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.units[2].fu, 0)
	}
	if !s.units[2].fu.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.units[2].fu.Release(m, rt0)
	return true, m.GenFinish(e)
}

// genTry_Ebpu_fin_bpu evaluates and commits edge fin-bpu: Ebpu -> C
// (release bpu:0).
func (s *Sim) genTry_Ebpu_fin_bpu(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[3].fu.ReleaseGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.units[3].fu, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.units[3].fu, 0)
	}
	if !s.units[3].fu.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.units[3].fu.Release(m, rt0)
	return true, m.GenFinish(e)
}

// genTry_Esru_fin_sru evaluates and commits edge fin-sru: Esru -> C
// (release sru:0).
func (s *Sim) genTry_Esru_fin_sru(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[4].fu.ReleaseGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.units[4].fu, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.units[4].fu, 0)
	}
	if !s.units[4].fu.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.units[4].fu.Release(m, rt0)
	return true, m.GenFinish(e)
}

// genTry_Wiu2_issue_iu2 evaluates and commits edge issue-iu2: Wiu2 -> Eiu2
// (release iu2-rs:0, inquire regfiles+rename:201, allocate iu2:0).
func (s *Sim) genTry_Wiu2_issue_iu2(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[0].rs.ReleaseGate != nil || s.units[0].fu.AllocGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.units[0].rs, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.units[0].rs, 0)
	}
	if !s.units[0].rs.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	if !s.ren.Inquire(m, 201) {
		return m.GenBlock(e, 1), nil
	}
	if !s.units[0].fu.CanAllocate(0) {
		return m.GenBlock(e, 2), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.units[0].rs.Release(m, rt0)
	tk2, _ := s.units[0].fu.Allocate(m, 0)
	m.GenAdd(tk2)
	return true, m.GenFinish(e)
}

// genTry_Wiu1_issue_iu1 evaluates and commits edge issue-iu1: Wiu1 -> Eiu1
// (release iu1-rs:0, inquire regfiles+rename:201, allocate iu1:0).
func (s *Sim) genTry_Wiu1_issue_iu1(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[1].rs.ReleaseGate != nil || s.units[1].fu.AllocGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.units[1].rs, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.units[1].rs, 0)
	}
	if !s.units[1].rs.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	if !s.ren.Inquire(m, 201) {
		return m.GenBlock(e, 1), nil
	}
	if !s.units[1].fu.CanAllocate(0) {
		return m.GenBlock(e, 2), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.units[1].rs.Release(m, rt0)
	tk2, _ := s.units[1].fu.Allocate(m, 0)
	m.GenAdd(tk2)
	return true, m.GenFinish(e)
}

// genTry_Wlsu_issue_lsu evaluates and commits edge issue-lsu: Wlsu -> Elsu
// (release lsu-rs:0, inquire regfiles+rename:201, allocate lsu:0).
func (s *Sim) genTry_Wlsu_issue_lsu(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[2].rs.ReleaseGate != nil || s.units[2].fu.AllocGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.units[2].rs, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.units[2].rs, 0)
	}
	if !s.units[2].rs.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	if !s.ren.Inquire(m, 201) {
		return m.GenBlock(e, 1), nil
	}
	if !s.units[2].fu.CanAllocate(0) {
		return m.GenBlock(e, 2), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.units[2].rs.Release(m, rt0)
	tk2, _ := s.units[2].fu.Allocate(m, 0)
	m.GenAdd(tk2)
	return true, m.GenFinish(e)
}

// genTry_Wbpu_issue_bpu evaluates and commits edge issue-bpu: Wbpu -> Ebpu
// (release bpu-rs:0, inquire regfiles+rename:201, allocate bpu:0).
func (s *Sim) genTry_Wbpu_issue_bpu(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[3].rs.ReleaseGate != nil || s.units[3].fu.AllocGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.units[3].rs, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.units[3].rs, 0)
	}
	if !s.units[3].rs.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	if !s.ren.Inquire(m, 201) {
		return m.GenBlock(e, 1), nil
	}
	if !s.units[3].fu.CanAllocate(0) {
		return m.GenBlock(e, 2), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.units[3].rs.Release(m, rt0)
	tk2, _ := s.units[3].fu.Allocate(m, 0)
	m.GenAdd(tk2)
	return true, m.GenFinish(e)
}

// genTry_Wsru_issue_sru evaluates and commits edge issue-sru: Wsru -> Esru
// (release sru-rs:0, inquire regfiles+rename:201, allocate sru:0).
func (s *Sim) genTry_Wsru_issue_sru(m *osm.Machine, e *osm.Edge) (bool, error) {
	if s.units[4].rs.ReleaseGate != nil || s.units[4].fu.AllocGate != nil {
		return m.GenFallback(e)
	}
	t0 := m.GenFindHeld(s.units[4].rs, 0)
	if t0 < 0 {
		return false, m.GenErrNotHeld(e, s.units[4].rs, 0)
	}
	if !s.units[4].rs.CanRelease(m.GenTokenAt(t0).ID) {
		return m.GenBlock(e, 0), nil
	}
	if !s.ren.Inquire(m, 201) {
		return m.GenBlock(e, 1), nil
	}
	if !s.units[4].fu.CanAllocate(0) {
		return m.GenBlock(e, 2), nil
	}
	rt0 := m.GenRemoveAt(t0)
	s.units[4].rs.Release(m, rt0)
	tk2, _ := s.units[4].fu.Allocate(m, 0)
	m.GenAdd(tk2)
	return true, m.GenFinish(e)
}
