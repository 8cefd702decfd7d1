// Code generated by osmgen; DO NOT EDIT.
//
// One monomorphic function per model state for the generated engine
// (osm.EngineGenerated): each tries its state's edges in priority
// order with route masks, shared When predicates and manager fast
// paths inlined at source level; edges the compile stage could not
// prove pure delegate to the interpreter. Regenerate with: go generate ./...

package ppc750

import (
	"repro/internal/osm"
)

// genStates returns the generated state functions of the model, keyed
// by state name, for Director.AttachGenerated.
func (s *Sim) genStates() map[string]osm.GenState {
	return map[string]osm.GenState{
		"I": {Fn: s.genServe_I, Edges: []osm.GenEdge{
			{Name: "fetch"},
		}},
		"Q": {Fn: s.genServe_Q, Edges: []osm.GenEdge{
			{Name: "Q-reset"},
			{Name: "disp-iu2", Routes: 0x1},
			{Name: "disp-iu1", Routes: 0x3},
			{Name: "disp-lsu", Routes: 0xc},
			{Name: "disp-bpu", Routes: 0x10},
			{Name: "disp-sru", Routes: 0x8000000000000020},
			{Name: "rs-iu2", Routes: 0x1},
			{Name: "rs-iu1", Routes: 0x3},
			{Name: "rs-lsu", Routes: 0xc},
			{Name: "rs-bpu", Routes: 0x10},
			{Name: "rs-sru", Routes: 0x20},
		}},
		"Eiu2": {Fn: s.genServe_Eiu2, Edges: []osm.GenEdge{
			{Name: "fin-iu2"},
		}},
		"C": {Fn: s.genServe_C, Edges: []osm.GenEdge{
			{Name: "complete"},
		}},
		"Eiu1": {Fn: s.genServe_Eiu1, Edges: []osm.GenEdge{
			{Name: "fin-iu1"},
		}},
		"Elsu": {Fn: s.genServe_Elsu, Edges: []osm.GenEdge{
			{Name: "fin-lsu"},
		}},
		"Ebpu": {Fn: s.genServe_Ebpu, Edges: []osm.GenEdge{
			{Name: "fin-bpu"},
		}},
		"Esru": {Fn: s.genServe_Esru, Edges: []osm.GenEdge{
			{Name: "fin-sru"},
		}},
		"Wiu2": {Fn: s.genServe_Wiu2, Edges: []osm.GenEdge{
			{Name: "issue-iu2"},
		}},
		"Wiu1": {Fn: s.genServe_Wiu1, Edges: []osm.GenEdge{
			{Name: "issue-iu1"},
		}},
		"Wlsu": {Fn: s.genServe_Wlsu, Edges: []osm.GenEdge{
			{Name: "issue-lsu"},
		}},
		"Wbpu": {Fn: s.genServe_Wbpu, Edges: []osm.GenEdge{
			{Name: "issue-bpu"},
		}},
		"Wsru": {Fn: s.genServe_Wsru, Edges: []osm.GenEdge{
			{Name: "issue-sru"},
		}},
	}
}

// genServe_I serves state I: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_I(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// fetch: I -> Q (allocate fetch-queue:-1).
	if e := es[0]; e != nil {
		if !(s.whenFetch(m)) {
			goto next0
		}
		if !s.fq.CanAllocate(m, osm.AnyUnit) {
			m.GenBlock(e, 0)
			goto next0
		}
		tk0, ok0 := s.fq.Allocate(m, osm.AnyUnit)
		if !ok0 {
			return nil, m.GenErrAllocContract(e, s.fq, osm.AnyUnit)
		}
		m.GenAdd(tk0)
		s.fq.CommitAllocate(m, tk0)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_Q serves state Q: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_Q(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	r := m.Route
	// Q-reset: Q -> I (inquire reset:0, discard <all>:-2).
	if e := es[0]; e != nil {
		if !s.reset.Inquire(m, 0) {
			m.GenBlock(e, 0)
			goto next0
		}
		m.GenDiscard(e, 1)
		return e, m.GenFinish(e)
	}
next0:
	w0 := s.whenHead(m)
	if w0 {
		// disp-iu2: Q -> Eiu2 (release fetch-queue:-1, allocate completion-queue:-1, inquire regfiles+rename:200, allocate regfiles+rename:202, allocate iu2:0).
		if e := es[1]; e != nil && (r == 0 || r&0x1 != 0) {
			t0 := m.GenFindHeld(s.fq, osm.AnyUnit)
			if t0 < 0 {
				return nil, m.GenErrNotHeld(e, s.fq, osm.AnyUnit)
			}
			if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
				m.GenBlock(e, 0)
				goto next1
			}
			if !s.cq.CanAllocate(m, osm.AnyUnit) {
				m.GenBlock(e, 1)
				goto next1
			}
			if !s.ren.Inquire(m, 200) {
				m.GenBlock(e, 2)
				goto next1
			}
			if !s.ren.CanAllocate(m, 202) {
				m.GenBlock(e, 3)
				goto next1
			}
			if !s.units[0].fu.CanAllocate(0) {
				m.GenBlock(e, 4)
				goto next1
			}
			rt0 := m.GenRemoveAt(t0)
			if !s.fq.Release(m, rt0) {
				return nil, m.GenErrReleaseContract(e, s.fq)
			}
			s.fq.CommitRelease(m, rt0)
			tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
			if !ok1 {
				return nil, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
			}
			m.GenAdd(tk1)
			s.cq.CommitAllocate(m, tk1)
			tk3, ok3 := s.ren.Allocate(m, 202)
			if !ok3 {
				return nil, m.GenErrAllocContract(e, s.ren, 202)
			}
			m.GenAdd(tk3)
			s.ren.CommitAllocate(m, tk3)
			tk4, _ := s.units[0].fu.Allocate(m, 0)
			m.GenAdd(tk4)
			return e, m.GenFinish(e)
		}
	next1:
		// disp-iu1: Q -> Eiu1 (release fetch-queue:-1, allocate completion-queue:-1, inquire regfiles+rename:200, allocate regfiles+rename:202, allocate iu1:0).
		if e := es[2]; e != nil && (r == 0 || r&0x3 != 0) {
			t0 := m.GenFindHeld(s.fq, osm.AnyUnit)
			if t0 < 0 {
				return nil, m.GenErrNotHeld(e, s.fq, osm.AnyUnit)
			}
			if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
				m.GenBlock(e, 0)
				goto next2
			}
			if !s.cq.CanAllocate(m, osm.AnyUnit) {
				m.GenBlock(e, 1)
				goto next2
			}
			if !s.ren.Inquire(m, 200) {
				m.GenBlock(e, 2)
				goto next2
			}
			if !s.ren.CanAllocate(m, 202) {
				m.GenBlock(e, 3)
				goto next2
			}
			if !s.units[1].fu.CanAllocate(0) {
				m.GenBlock(e, 4)
				goto next2
			}
			rt0 := m.GenRemoveAt(t0)
			if !s.fq.Release(m, rt0) {
				return nil, m.GenErrReleaseContract(e, s.fq)
			}
			s.fq.CommitRelease(m, rt0)
			tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
			if !ok1 {
				return nil, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
			}
			m.GenAdd(tk1)
			s.cq.CommitAllocate(m, tk1)
			tk3, ok3 := s.ren.Allocate(m, 202)
			if !ok3 {
				return nil, m.GenErrAllocContract(e, s.ren, 202)
			}
			m.GenAdd(tk3)
			s.ren.CommitAllocate(m, tk3)
			tk4, _ := s.units[1].fu.Allocate(m, 0)
			m.GenAdd(tk4)
			return e, m.GenFinish(e)
		}
	next2:
		// disp-lsu: Q -> Elsu (release fetch-queue:-1, allocate completion-queue:-1, inquire regfiles+rename:200, allocate regfiles+rename:202, allocate lsu:0).
		if e := es[3]; e != nil && (r == 0 || r&0xc != 0) {
			t0 := m.GenFindHeld(s.fq, osm.AnyUnit)
			if t0 < 0 {
				return nil, m.GenErrNotHeld(e, s.fq, osm.AnyUnit)
			}
			if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
				m.GenBlock(e, 0)
				goto next3
			}
			if !s.cq.CanAllocate(m, osm.AnyUnit) {
				m.GenBlock(e, 1)
				goto next3
			}
			if !s.ren.Inquire(m, 200) {
				m.GenBlock(e, 2)
				goto next3
			}
			if !s.ren.CanAllocate(m, 202) {
				m.GenBlock(e, 3)
				goto next3
			}
			if !s.units[2].fu.CanAllocate(0) {
				m.GenBlock(e, 4)
				goto next3
			}
			rt0 := m.GenRemoveAt(t0)
			if !s.fq.Release(m, rt0) {
				return nil, m.GenErrReleaseContract(e, s.fq)
			}
			s.fq.CommitRelease(m, rt0)
			tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
			if !ok1 {
				return nil, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
			}
			m.GenAdd(tk1)
			s.cq.CommitAllocate(m, tk1)
			tk3, ok3 := s.ren.Allocate(m, 202)
			if !ok3 {
				return nil, m.GenErrAllocContract(e, s.ren, 202)
			}
			m.GenAdd(tk3)
			s.ren.CommitAllocate(m, tk3)
			tk4, _ := s.units[2].fu.Allocate(m, 0)
			m.GenAdd(tk4)
			return e, m.GenFinish(e)
		}
	next3:
		// disp-bpu: Q -> Ebpu (release fetch-queue:-1, allocate completion-queue:-1, inquire regfiles+rename:200, allocate regfiles+rename:202, allocate bpu:0).
		if e := es[4]; e != nil && (r == 0 || r&0x10 != 0) {
			t0 := m.GenFindHeld(s.fq, osm.AnyUnit)
			if t0 < 0 {
				return nil, m.GenErrNotHeld(e, s.fq, osm.AnyUnit)
			}
			if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
				m.GenBlock(e, 0)
				goto next4
			}
			if !s.cq.CanAllocate(m, osm.AnyUnit) {
				m.GenBlock(e, 1)
				goto next4
			}
			if !s.ren.Inquire(m, 200) {
				m.GenBlock(e, 2)
				goto next4
			}
			if !s.ren.CanAllocate(m, 202) {
				m.GenBlock(e, 3)
				goto next4
			}
			if !s.units[3].fu.CanAllocate(0) {
				m.GenBlock(e, 4)
				goto next4
			}
			rt0 := m.GenRemoveAt(t0)
			if !s.fq.Release(m, rt0) {
				return nil, m.GenErrReleaseContract(e, s.fq)
			}
			s.fq.CommitRelease(m, rt0)
			tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
			if !ok1 {
				return nil, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
			}
			m.GenAdd(tk1)
			s.cq.CommitAllocate(m, tk1)
			tk3, ok3 := s.ren.Allocate(m, 202)
			if !ok3 {
				return nil, m.GenErrAllocContract(e, s.ren, 202)
			}
			m.GenAdd(tk3)
			s.ren.CommitAllocate(m, tk3)
			tk4, _ := s.units[3].fu.Allocate(m, 0)
			m.GenAdd(tk4)
			return e, m.GenFinish(e)
		}
	next4:
		// disp-sru: Q -> Esru (release fetch-queue:-1, allocate completion-queue:-1, inquire regfiles+rename:200, allocate regfiles+rename:202, allocate sru:0).
		if e := es[5]; e != nil && (r == 0 || r&0x8000000000000020 != 0) {
			t0 := m.GenFindHeld(s.fq, osm.AnyUnit)
			if t0 < 0 {
				return nil, m.GenErrNotHeld(e, s.fq, osm.AnyUnit)
			}
			if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
				m.GenBlock(e, 0)
				goto next5
			}
			if !s.cq.CanAllocate(m, osm.AnyUnit) {
				m.GenBlock(e, 1)
				goto next5
			}
			if !s.ren.Inquire(m, 200) {
				m.GenBlock(e, 2)
				goto next5
			}
			if !s.ren.CanAllocate(m, 202) {
				m.GenBlock(e, 3)
				goto next5
			}
			if !s.units[4].fu.CanAllocate(0) {
				m.GenBlock(e, 4)
				goto next5
			}
			rt0 := m.GenRemoveAt(t0)
			if !s.fq.Release(m, rt0) {
				return nil, m.GenErrReleaseContract(e, s.fq)
			}
			s.fq.CommitRelease(m, rt0)
			tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
			if !ok1 {
				return nil, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
			}
			m.GenAdd(tk1)
			s.cq.CommitAllocate(m, tk1)
			tk3, ok3 := s.ren.Allocate(m, 202)
			if !ok3 {
				return nil, m.GenErrAllocContract(e, s.ren, 202)
			}
			m.GenAdd(tk3)
			s.ren.CommitAllocate(m, tk3)
			tk4, _ := s.units[4].fu.Allocate(m, 0)
			m.GenAdd(tk4)
			return e, m.GenFinish(e)
		}
	next5:
		// rs-iu2: Q -> Wiu2 (release fetch-queue:-1, allocate completion-queue:-1, allocate regfiles+rename:202, allocate iu2-rs:0).
		if e := es[6]; e != nil && (r == 0 || r&0x1 != 0) {
			t0 := m.GenFindHeld(s.fq, osm.AnyUnit)
			if t0 < 0 {
				return nil, m.GenErrNotHeld(e, s.fq, osm.AnyUnit)
			}
			if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
				m.GenBlock(e, 0)
				goto next6
			}
			if !s.cq.CanAllocate(m, osm.AnyUnit) {
				m.GenBlock(e, 1)
				goto next6
			}
			if !s.ren.CanAllocate(m, 202) {
				m.GenBlock(e, 2)
				goto next6
			}
			if !s.units[0].rs.CanAllocate(0) {
				m.GenBlock(e, 3)
				goto next6
			}
			rt0 := m.GenRemoveAt(t0)
			if !s.fq.Release(m, rt0) {
				return nil, m.GenErrReleaseContract(e, s.fq)
			}
			s.fq.CommitRelease(m, rt0)
			tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
			if !ok1 {
				return nil, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
			}
			m.GenAdd(tk1)
			s.cq.CommitAllocate(m, tk1)
			tk2, ok2 := s.ren.Allocate(m, 202)
			if !ok2 {
				return nil, m.GenErrAllocContract(e, s.ren, 202)
			}
			m.GenAdd(tk2)
			s.ren.CommitAllocate(m, tk2)
			tk3, _ := s.units[0].rs.Allocate(m, 0)
			m.GenAdd(tk3)
			return e, m.GenFinish(e)
		}
	next6:
		// rs-iu1: Q -> Wiu1 (release fetch-queue:-1, allocate completion-queue:-1, allocate regfiles+rename:202, allocate iu1-rs:0).
		if e := es[7]; e != nil && (r == 0 || r&0x3 != 0) {
			t0 := m.GenFindHeld(s.fq, osm.AnyUnit)
			if t0 < 0 {
				return nil, m.GenErrNotHeld(e, s.fq, osm.AnyUnit)
			}
			if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
				m.GenBlock(e, 0)
				goto next7
			}
			if !s.cq.CanAllocate(m, osm.AnyUnit) {
				m.GenBlock(e, 1)
				goto next7
			}
			if !s.ren.CanAllocate(m, 202) {
				m.GenBlock(e, 2)
				goto next7
			}
			if !s.units[1].rs.CanAllocate(0) {
				m.GenBlock(e, 3)
				goto next7
			}
			rt0 := m.GenRemoveAt(t0)
			if !s.fq.Release(m, rt0) {
				return nil, m.GenErrReleaseContract(e, s.fq)
			}
			s.fq.CommitRelease(m, rt0)
			tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
			if !ok1 {
				return nil, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
			}
			m.GenAdd(tk1)
			s.cq.CommitAllocate(m, tk1)
			tk2, ok2 := s.ren.Allocate(m, 202)
			if !ok2 {
				return nil, m.GenErrAllocContract(e, s.ren, 202)
			}
			m.GenAdd(tk2)
			s.ren.CommitAllocate(m, tk2)
			tk3, _ := s.units[1].rs.Allocate(m, 0)
			m.GenAdd(tk3)
			return e, m.GenFinish(e)
		}
	next7:
		// rs-lsu: Q -> Wlsu (release fetch-queue:-1, allocate completion-queue:-1, allocate regfiles+rename:202, allocate lsu-rs:0).
		if e := es[8]; e != nil && (r == 0 || r&0xc != 0) {
			t0 := m.GenFindHeld(s.fq, osm.AnyUnit)
			if t0 < 0 {
				return nil, m.GenErrNotHeld(e, s.fq, osm.AnyUnit)
			}
			if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
				m.GenBlock(e, 0)
				goto next8
			}
			if !s.cq.CanAllocate(m, osm.AnyUnit) {
				m.GenBlock(e, 1)
				goto next8
			}
			if !s.ren.CanAllocate(m, 202) {
				m.GenBlock(e, 2)
				goto next8
			}
			if !s.units[2].rs.CanAllocate(0) {
				m.GenBlock(e, 3)
				goto next8
			}
			rt0 := m.GenRemoveAt(t0)
			if !s.fq.Release(m, rt0) {
				return nil, m.GenErrReleaseContract(e, s.fq)
			}
			s.fq.CommitRelease(m, rt0)
			tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
			if !ok1 {
				return nil, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
			}
			m.GenAdd(tk1)
			s.cq.CommitAllocate(m, tk1)
			tk2, ok2 := s.ren.Allocate(m, 202)
			if !ok2 {
				return nil, m.GenErrAllocContract(e, s.ren, 202)
			}
			m.GenAdd(tk2)
			s.ren.CommitAllocate(m, tk2)
			tk3, _ := s.units[2].rs.Allocate(m, 0)
			m.GenAdd(tk3)
			return e, m.GenFinish(e)
		}
	next8:
		// rs-bpu: Q -> Wbpu (release fetch-queue:-1, allocate completion-queue:-1, allocate regfiles+rename:202, allocate bpu-rs:0).
		if e := es[9]; e != nil && (r == 0 || r&0x10 != 0) {
			t0 := m.GenFindHeld(s.fq, osm.AnyUnit)
			if t0 < 0 {
				return nil, m.GenErrNotHeld(e, s.fq, osm.AnyUnit)
			}
			if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
				m.GenBlock(e, 0)
				goto next9
			}
			if !s.cq.CanAllocate(m, osm.AnyUnit) {
				m.GenBlock(e, 1)
				goto next9
			}
			if !s.ren.CanAllocate(m, 202) {
				m.GenBlock(e, 2)
				goto next9
			}
			if !s.units[3].rs.CanAllocate(0) {
				m.GenBlock(e, 3)
				goto next9
			}
			rt0 := m.GenRemoveAt(t0)
			if !s.fq.Release(m, rt0) {
				return nil, m.GenErrReleaseContract(e, s.fq)
			}
			s.fq.CommitRelease(m, rt0)
			tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
			if !ok1 {
				return nil, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
			}
			m.GenAdd(tk1)
			s.cq.CommitAllocate(m, tk1)
			tk2, ok2 := s.ren.Allocate(m, 202)
			if !ok2 {
				return nil, m.GenErrAllocContract(e, s.ren, 202)
			}
			m.GenAdd(tk2)
			s.ren.CommitAllocate(m, tk2)
			tk3, _ := s.units[3].rs.Allocate(m, 0)
			m.GenAdd(tk3)
			return e, m.GenFinish(e)
		}
	next9:
		// rs-sru: Q -> Wsru (release fetch-queue:-1, allocate completion-queue:-1, allocate regfiles+rename:202, allocate sru-rs:0).
		if e := es[10]; e != nil && (r == 0 || r&0x20 != 0) {
			t0 := m.GenFindHeld(s.fq, osm.AnyUnit)
			if t0 < 0 {
				return nil, m.GenErrNotHeld(e, s.fq, osm.AnyUnit)
			}
			if !s.fq.CanRelease(m, m.GenTokenAt(t0)) {
				m.GenBlock(e, 0)
				goto next10
			}
			if !s.cq.CanAllocate(m, osm.AnyUnit) {
				m.GenBlock(e, 1)
				goto next10
			}
			if !s.ren.CanAllocate(m, 202) {
				m.GenBlock(e, 2)
				goto next10
			}
			if !s.units[4].rs.CanAllocate(0) {
				m.GenBlock(e, 3)
				goto next10
			}
			rt0 := m.GenRemoveAt(t0)
			if !s.fq.Release(m, rt0) {
				return nil, m.GenErrReleaseContract(e, s.fq)
			}
			s.fq.CommitRelease(m, rt0)
			tk1, ok1 := s.cq.Allocate(m, osm.AnyUnit)
			if !ok1 {
				return nil, m.GenErrAllocContract(e, s.cq, osm.AnyUnit)
			}
			m.GenAdd(tk1)
			s.cq.CommitAllocate(m, tk1)
			tk2, ok2 := s.ren.Allocate(m, 202)
			if !ok2 {
				return nil, m.GenErrAllocContract(e, s.ren, 202)
			}
			m.GenAdd(tk2)
			s.ren.CommitAllocate(m, tk2)
			tk3, _ := s.units[4].rs.Allocate(m, 0)
			m.GenAdd(tk3)
			return e, m.GenFinish(e)
		}
	next10:
	}
	return nil, nil
}

// genServe_Eiu2 serves state Eiu2: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_Eiu2(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// fin-iu2: Eiu2 -> C (release iu2:0).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.units[0].fu, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.units[0].fu, 0)
		}
		if !s.units[0].fu.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		s.units[0].fu.Release(m, rt0)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_C serves state C: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_C(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// complete: C -> I (release completion-queue:-1, release regfiles+rename:202).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.cq, osm.AnyUnit)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.cq, osm.AnyUnit)
		}
		if !s.cq.CanRelease(m, m.GenTokenAt(t0)) {
			m.GenBlock(e, 0)
			goto next0
		}
		t1 := m.GenFindHeld(s.ren, 202)
		if t1 < 0 {
			return nil, m.GenErrNotHeld(e, s.ren, 202)
		}
		if !s.ren.CanRelease(m, m.GenTokenAt(t1)) {
			m.GenBlock(e, 1)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		if t1 > t0 {
			t1--
		}
		if !s.cq.Release(m, rt0) {
			return nil, m.GenErrReleaseContract(e, s.cq)
		}
		s.cq.CommitRelease(m, rt0)
		rt1 := m.GenRemoveAt(t1)
		if !s.ren.Release(m, rt1) {
			return nil, m.GenErrReleaseContract(e, s.ren)
		}
		s.ren.CommitRelease(m, rt1)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_Eiu1 serves state Eiu1: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_Eiu1(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// fin-iu1: Eiu1 -> C (release iu1:0).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.units[1].fu, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.units[1].fu, 0)
		}
		if !s.units[1].fu.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		s.units[1].fu.Release(m, rt0)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_Elsu serves state Elsu: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_Elsu(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// fin-lsu: Elsu -> C (release lsu:0).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.units[2].fu, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.units[2].fu, 0)
		}
		if !s.units[2].fu.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		s.units[2].fu.Release(m, rt0)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_Ebpu serves state Ebpu: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_Ebpu(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// fin-bpu: Ebpu -> C (release bpu:0).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.units[3].fu, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.units[3].fu, 0)
		}
		if !s.units[3].fu.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		s.units[3].fu.Release(m, rt0)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_Esru serves state Esru: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_Esru(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// fin-sru: Esru -> C (release sru:0).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.units[4].fu, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.units[4].fu, 0)
		}
		if !s.units[4].fu.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		s.units[4].fu.Release(m, rt0)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_Wiu2 serves state Wiu2: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_Wiu2(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// issue-iu2: Wiu2 -> Eiu2 (release iu2-rs:0, inquire regfiles+rename:201, allocate iu2:0).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.units[0].rs, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.units[0].rs, 0)
		}
		if !s.units[0].rs.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next0
		}
		if !s.ren.Inquire(m, 201) {
			m.GenBlock(e, 1)
			goto next0
		}
		if !s.units[0].fu.CanAllocate(0) {
			m.GenBlock(e, 2)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		s.units[0].rs.Release(m, rt0)
		tk2, _ := s.units[0].fu.Allocate(m, 0)
		m.GenAdd(tk2)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_Wiu1 serves state Wiu1: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_Wiu1(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// issue-iu1: Wiu1 -> Eiu1 (release iu1-rs:0, inquire regfiles+rename:201, allocate iu1:0).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.units[1].rs, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.units[1].rs, 0)
		}
		if !s.units[1].rs.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next0
		}
		if !s.ren.Inquire(m, 201) {
			m.GenBlock(e, 1)
			goto next0
		}
		if !s.units[1].fu.CanAllocate(0) {
			m.GenBlock(e, 2)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		s.units[1].rs.Release(m, rt0)
		tk2, _ := s.units[1].fu.Allocate(m, 0)
		m.GenAdd(tk2)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_Wlsu serves state Wlsu: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_Wlsu(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// issue-lsu: Wlsu -> Elsu (release lsu-rs:0, inquire regfiles+rename:201, allocate lsu:0).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.units[2].rs, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.units[2].rs, 0)
		}
		if !s.units[2].rs.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next0
		}
		if !s.ren.Inquire(m, 201) {
			m.GenBlock(e, 1)
			goto next0
		}
		if !s.units[2].fu.CanAllocate(0) {
			m.GenBlock(e, 2)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		s.units[2].rs.Release(m, rt0)
		tk2, _ := s.units[2].fu.Allocate(m, 0)
		m.GenAdd(tk2)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_Wbpu serves state Wbpu: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_Wbpu(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// issue-bpu: Wbpu -> Ebpu (release bpu-rs:0, inquire regfiles+rename:201, allocate bpu:0).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.units[3].rs, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.units[3].rs, 0)
		}
		if !s.units[3].rs.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next0
		}
		if !s.ren.Inquire(m, 201) {
			m.GenBlock(e, 1)
			goto next0
		}
		if !s.units[3].fu.CanAllocate(0) {
			m.GenBlock(e, 2)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		s.units[3].rs.Release(m, rt0)
		tk2, _ := s.units[3].fu.Allocate(m, 0)
		m.GenAdd(tk2)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_Wsru serves state Wsru: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_Wsru(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// issue-sru: Wsru -> Esru (release sru-rs:0, inquire regfiles+rename:201, allocate sru:0).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.units[4].rs, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.units[4].rs, 0)
		}
		if !s.units[4].rs.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next0
		}
		if !s.ren.Inquire(m, 201) {
			m.GenBlock(e, 1)
			goto next0
		}
		if !s.units[4].fu.CanAllocate(0) {
			m.GenBlock(e, 2)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		s.units[4].rs.Release(m, rt0)
		tk2, _ := s.units[4].fu.Allocate(m, 0)
		m.GenAdd(tk2)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}
