// Code generated by osmgen; DO NOT EDIT.
//
// One monomorphic function per model state for the generated engine
// (osm.EngineGenerated): each tries its state's edges in priority
// order with route masks, shared When predicates and manager fast
// paths inlined at source level; edges the compile stage could not
// prove pure delegate to the interpreter. Regenerate with: go generate ./...

package strongarm

import (
	"repro/internal/osm"
)

// genStates returns the generated state functions of the model, keyed
// by state name, for Director.AttachGenerated.
func (s *Sim) genStates() map[string]osm.GenState {
	return map[string]osm.GenState{
		"I": {Fn: s.genServe_I, Edges: []osm.GenEdge{
			{Name: "e0"},
		}},
		"F": {Fn: s.genServe_F, Edges: []osm.GenEdge{
			{Name: "F-reset"},
			{Name: "e1"},
		}},
		"D": {Fn: s.genServe_D, Edges: []osm.GenEdge{
			{Name: "D-reset"},
			{Name: "e2"},
		}},
		"E": {Fn: s.genServe_E, Edges: []osm.GenEdge{
			{Name: "e3"},
		}},
		"B": {Fn: s.genServe_B, Edges: []osm.GenEdge{
			{Name: "e4"},
		}},
		"W": {Fn: s.genServe_W, Edges: []osm.GenEdge{
			{Name: "e5"},
		}},
	}
}

// genServe_I serves state I: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_I(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// e0: I -> F (allocate IF:0).
	if e := es[0]; e != nil {
		if !(s.whenFetch(m)) {
			goto next0
		}
		if !s.mf.CanAllocate(0) {
			m.GenBlock(e, 0)
			goto next0
		}
		tk0, _ := s.mf.Allocate(m, 0)
		m.GenAdd(tk0)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_F serves state F: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_F(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// F-reset: F -> I (inquire reset:0, discard <all>:-2).
	if e := es[0]; e != nil {
		if !s.reset.Inquire(m, 0) {
			m.GenBlock(e, 0)
			goto next0
		}
		m.GenDiscard(e, 1)
		return e, m.GenFinish(e)
	}
next0:
	// e1: F -> D (release IF:0, allocate ID:0).
	if e := es[1]; e != nil {
		t0 := m.GenFindHeld(s.mf, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.mf, 0)
		}
		if !s.mf.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next1
		}
		if !s.md.CanAllocate(0) {
			m.GenBlock(e, 1)
			goto next1
		}
		rt0 := m.GenRemoveAt(t0)
		s.mf.Release(m, rt0)
		tk1, _ := s.md.Allocate(m, 0)
		m.GenAdd(tk1)
		return e, m.GenFinish(e)
	}
next1:
	return nil, nil
}

// genServe_D serves state D: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_D(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// D-reset: D -> I (inquire reset:0, discard <all>:-2).
	if e := es[0]; e != nil {
		if !s.reset.Inquire(m, 0) {
			m.GenBlock(e, 0)
			goto next0
		}
		m.GenDiscard(e, 1)
		return e, m.GenFinish(e)
	}
next0:
	// e2: D -> E (release ID:0, inquire regfile+fwd:100, allocate EX:0, allocate regfile+fwd:101).
	if e := es[1]; e != nil {
		t0 := m.GenFindHeld(s.md, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.md, 0)
		}
		if !s.md.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next1
		}
		if !s.regs.Inquire(m, 100) {
			m.GenBlock(e, 1)
			goto next1
		}
		if !s.me.CanAllocate(0) {
			m.GenBlock(e, 2)
			goto next1
		}
		if !s.regs.CanAllocate(m, 101) {
			m.GenBlock(e, 3)
			goto next1
		}
		rt0 := m.GenRemoveAt(t0)
		s.md.Release(m, rt0)
		tk2, _ := s.me.Allocate(m, 0)
		m.GenAdd(tk2)
		tk3, ok3 := s.regs.Allocate(m, 101)
		if !ok3 {
			return nil, m.GenErrAllocContract(e, s.regs, 101)
		}
		m.GenAdd(tk3)
		s.regs.CommitAllocate(m, tk3)
		return e, m.GenFinish(e)
	}
next1:
	return nil, nil
}

// genServe_E serves state E: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_E(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// e3: E -> B (release EX:0, allocate BF:0).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.me, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.me, 0)
		}
		if !s.me.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next0
		}
		if !s.mb.CanAllocate(0) {
			m.GenBlock(e, 1)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		s.me.Release(m, rt0)
		tk1, _ := s.mb.Allocate(m, 0)
		m.GenAdd(tk1)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_B serves state B: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_B(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// e4: B -> W (release BF:0, allocate WB:0).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.mb, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.mb, 0)
		}
		if !s.mb.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next0
		}
		if !s.mw.CanAllocate(0) {
			m.GenBlock(e, 1)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		s.mb.Release(m, rt0)
		tk1, _ := s.mw.Allocate(m, 0)
		m.GenAdd(tk1)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}

// genServe_W serves state W: it tries the state's edges in
// priority order and commits the first that holds.
func (s *Sim) genServe_W(m *osm.Machine, es []*osm.Edge) (*osm.Edge, error) {
	// e5: W -> I (release WB:0, release regfile+fwd:101).
	if e := es[0]; e != nil {
		t0 := m.GenFindHeld(s.mw, 0)
		if t0 < 0 {
			return nil, m.GenErrNotHeld(e, s.mw, 0)
		}
		if !s.mw.CanRelease(m.GenTokenAt(t0).ID) {
			m.GenBlock(e, 0)
			goto next0
		}
		t1 := m.GenFindHeld(s.regs, 101)
		if t1 < 0 {
			return nil, m.GenErrNotHeld(e, s.regs, 101)
		}
		if !s.regs.CanRelease(m, m.GenTokenAt(t1)) {
			m.GenBlock(e, 1)
			goto next0
		}
		rt0 := m.GenRemoveAt(t0)
		if t1 > t0 {
			t1--
		}
		s.mw.Release(m, rt0)
		rt1 := m.GenRemoveAt(t1)
		if !s.regs.Release(m, rt1) {
			return nil, m.GenErrReleaseContract(e, s.regs)
		}
		s.regs.CommitRelease(m, rt1)
		return e, m.GenFinish(e)
	}
next0:
	return nil, nil
}
