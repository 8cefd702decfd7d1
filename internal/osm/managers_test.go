package osm

import (
	"slices"
	"testing"
)

func TestUnitManagerAnyUnitPicksFirstFree(t *testing.T) {
	u := NewUnitManager("fu", 3)
	i := NewState("I")
	a, b := NewMachine("a", i), NewMachine("b", i)
	t1, ok := u.Allocate(a, AnyUnit)
	if !ok || t1.ID != 0 {
		t.Fatalf("first AnyUnit grant = %v,%v; want unit 0", t1, ok)
	}
	t2, ok := u.Allocate(b, AnyUnit)
	if !ok || t2.ID != 1 {
		t.Fatalf("second AnyUnit grant = %v,%v; want unit 1", t2, ok)
	}
	if u.Free() != 1 {
		t.Fatalf("Free() = %d, want 1", u.Free())
	}
}

func TestUnitManagerOutOfRange(t *testing.T) {
	u := NewUnitManager("fu", 2)
	m := NewMachine("m", NewState("I"))
	if _, ok := u.Allocate(m, 5); ok {
		t.Fatal("allocation of out-of-range unit must fail")
	}
	if u.Inquire(m, 5) {
		t.Fatal("inquiry of out-of-range unit must fail")
	}
	if u.Holder(5) != nil || u.Holder(AnyUnit) != nil {
		t.Fatal("Holder of out-of-range/AnyUnit id must be nil")
	}
}

func TestUnitManagerAllocGate(t *testing.T) {
	u := NewUnitManager("fu", 2)
	u.AllocGate = func(m *Machine, unit TokenID) bool { return unit == 1 }
	m := NewMachine("m", NewState("I"))
	if _, ok := u.Allocate(m, 0); ok {
		t.Fatal("gate must refuse unit 0")
	}
	tok, ok := u.Allocate(m, AnyUnit)
	if !ok || tok.ID != 1 {
		t.Fatalf("AnyUnit with gate = %v,%v; want unit 1", tok, ok)
	}
}

func TestUnitManagerBusyGatesRelease(t *testing.T) {
	u := NewUnitManager("cache", 1)
	m := NewMachine("m", NewState("I"))
	tok, _ := u.Allocate(m, 0)
	u.CommitAllocate(m, tok)
	u.SetBusy(0, 2) // at step 0: busy through steps 1 and 2
	if u.Release(m, tok) {
		t.Fatal("release must be refused in the step the miss is signalled")
	}
	u.BeginStep(1)
	if u.Release(m, tok) {
		t.Fatal("release must be refused during the first busy step")
	}
	u.BeginStep(2)
	if u.Release(m, tok) {
		t.Fatal("release must be refused during the second busy step")
	}
	if u.Busy(0) != 1 {
		t.Fatalf("Busy = %d, want 1", u.Busy(0))
	}
	u.BeginStep(3)
	if !u.Release(m, tok) {
		t.Fatal("release must succeed once the busy window passes")
	}
	if u.Busy(0) != 0 {
		t.Fatalf("Busy = %d, want 0", u.Busy(0))
	}
}

func TestUnitManagerReleaseGate(t *testing.T) {
	u := NewUnitManager("wb", 1)
	open := false
	u.ReleaseGate = func(m *Machine, unit TokenID) bool { return open }
	m := NewMachine("m", NewState("I"))
	tok, _ := u.Allocate(m, 0)
	if u.Release(m, tok) {
		t.Fatal("closed gate must refuse release")
	}
	open = true
	if !u.Release(m, tok) {
		t.Fatal("open gate must accept release")
	}
}

func TestUnitManagerReleaseCancelRestoresOwner(t *testing.T) {
	u := NewUnitManager("s", 1)
	m := NewMachine("m", NewState("I"))
	tok, _ := u.Allocate(m, 0)
	if !u.Release(m, tok) {
		t.Fatal("release request should succeed")
	}
	if u.Holder(0) != nil {
		t.Fatal("tentative release should free the unit")
	}
	u.CancelRelease(m, tok)
	if u.Holder(0) != m {
		t.Fatal("cancel must restore ownership")
	}
}

func TestUnitManagerInquireSeesOwnUnit(t *testing.T) {
	u := NewUnitManager("s", 1)
	m, other := NewMachine("m", NewState("I")), NewMachine("o", NewState("I"))
	tok, _ := u.Allocate(m, 0)
	_ = tok
	if !u.Inquire(m, 0) {
		t.Fatal("owner's inquiry must succeed")
	}
	if u.Inquire(other, 0) {
		t.Fatal("other machine's inquiry of an owned unit must fail")
	}
	if !u.Inquire(m, AnyUnit) {
		t.Fatal("AnyUnit inquiry by owner must succeed")
	}
	if u.Inquire(other, AnyUnit) {
		t.Fatal("AnyUnit inquiry with no free units must fail for non-owners")
	}
}

func TestNewUnitManagerPanicsOnNonPositiveCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n<=0")
		}
	}()
	NewUnitManager("bad", 0)
}

func TestRegFileScoreboard(t *testing.T) {
	rf := NewRegFileManager("r", 8)
	i := NewState("I")
	writer, reader := NewMachine("w", i), NewMachine("r", i)

	// No pending writes: value inquiry succeeds.
	if !rf.Inquire(reader, TokenID(3)) {
		t.Fatal("value inquiry with no pending updates must succeed")
	}
	tok, ok := rf.Allocate(writer, UpdateToken(3))
	if !ok {
		t.Fatal("update-token allocation must succeed")
	}
	rf.CommitAllocate(writer, tok)
	if rf.Inquire(reader, TokenID(3)) {
		t.Fatal("value inquiry must fail while an update is outstanding")
	}
	if !rf.Inquire(writer, TokenID(3)) {
		t.Fatal("the writer itself must not stall on its own update token")
	}
	// Second writer refused at depth 1.
	if _, ok := rf.Allocate(reader, UpdateToken(3)); ok {
		t.Fatal("second update token must be refused at rename depth 1")
	}
	// Release with data retires and writes.
	tok.Data = 42
	if !rf.Release(writer, tok) {
		t.Fatal("release must be accepted")
	}
	rf.CommitRelease(writer, tok)
	if rf.Read(3) != 42 {
		t.Fatalf("register = %d, want 42", rf.Read(3))
	}
	if !rf.Inquire(reader, TokenID(3)) {
		t.Fatal("value inquiry must succeed after the update retires")
	}
}

func TestRegFileRenameDepth(t *testing.T) {
	rf := NewRegFileManager("r", 4)
	rf.RenameDepth = 2
	i := NewState("I")
	w1, w2, w3 := NewMachine("w1", i), NewMachine("w2", i), NewMachine("w3", i)
	t1, ok1 := rf.Allocate(w1, UpdateToken(0))
	_, ok2 := rf.Allocate(w2, UpdateToken(0))
	_, ok3 := rf.Allocate(w3, UpdateToken(0))
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("grants = %v,%v,%v; want true,true,false", ok1, ok2, ok3)
	}
	if rf.Pending(0) != 2 {
		t.Fatalf("pending = %d, want 2", rf.Pending(0))
	}
	// Update-token inquiry reflects slot availability.
	if rf.Inquire(w3, UpdateToken(0)) {
		t.Fatal("update inquiry must fail when rename slots are exhausted")
	}
	t1.Data = 7
	rf.CommitRelease(w1, t1)
	if rf.Pending(0) != 1 || rf.Read(0) != 7 {
		t.Fatalf("after retire: pending=%d val=%d", rf.Pending(0), rf.Read(0))
	}
}

func TestRegFileDiscardDropsUpdateWithoutWrite(t *testing.T) {
	rf := NewRegFileManager("r", 2)
	w := NewMachine("w", NewState("I"))
	tok, _ := rf.Allocate(w, UpdateToken(1))
	rf.Write(1, 99)
	tok.Data = 5
	rf.Discarded(w, tok)
	if rf.Read(1) != 99 {
		t.Fatalf("discard must not write the register: got %d", rf.Read(1))
	}
	if rf.Pending(1) != 0 {
		t.Fatal("discard must retire the pending update")
	}
}

func TestRegFileCancelAllocate(t *testing.T) {
	rf := NewRegFileManager("r", 2)
	w := NewMachine("w", NewState("I"))
	tok, _ := rf.Allocate(w, UpdateToken(0))
	rf.CancelAllocate(w, tok)
	if rf.Pending(0) != 0 {
		t.Fatal("cancel must restore the pending count")
	}
	if rf.Holder(UpdateToken(0)) != nil {
		t.Fatal("cancel must clear the writer list")
	}
}

func TestRegFileRejectsValueAllocationAndBadIDs(t *testing.T) {
	rf := NewRegFileManager("r", 2)
	m := NewMachine("m", NewState("I"))
	if _, ok := rf.Allocate(m, TokenID(0)); ok {
		t.Fatal("value tokens must not be allocatable")
	}
	if _, ok := rf.Allocate(m, UpdateToken(17)); ok {
		t.Fatal("out-of-range register must be refused")
	}
	if rf.Inquire(m, TokenID(17)) {
		t.Fatal("out-of-range inquiry must fail")
	}
}

func TestRegFileHolderReporting(t *testing.T) {
	rf := NewRegFileManager("r", 2)
	w := NewMachine("w", NewState("I"))
	if rf.Holder(TokenID(0)) != nil {
		t.Fatal("no writer yet")
	}
	rf.Allocate(w, UpdateToken(0))
	if rf.Holder(TokenID(0)) != w || rf.Holder(UpdateToken(0)) != w {
		t.Fatal("holder must be the outstanding writer")
	}
}

func TestBypassPublishReadExpiry(t *testing.T) {
	b := NewBypassManager("fwd")
	m := NewMachine("m", NewState("I"))
	b.BeginStep(10)
	b.Publish(3, 0xbeef, 1)
	if !b.Inquire(m, 3) {
		t.Fatal("published value must be inquirable in the same step")
	}
	if v, ok := b.Read(3); !ok || v != 0xbeef {
		t.Fatalf("Read = %#x,%v", v, ok)
	}
	b.BeginStep(11)
	if !b.Inquire(m, 3) {
		t.Fatal("life=1 value must survive into the next step")
	}
	b.BeginStep(12)
	if b.Inquire(m, 3) {
		t.Fatal("value must expire after its lifetime")
	}
}

func TestBypassZeroLifeDefaultsToOne(t *testing.T) {
	b := NewBypassManager("fwd")
	b.BeginStep(0)
	b.Publish(1, 5, 0)
	b.BeginStep(1)
	if _, ok := b.Read(1); !ok {
		t.Fatal("life 0 must behave as life 1")
	}
}

func TestBypassGrantsNoTokens(t *testing.T) {
	b := NewBypassManager("fwd")
	m := NewMachine("m", NewState("I"))
	if _, ok := b.Allocate(m, 0); ok {
		t.Fatal("bypass must not allocate")
	}
	if b.Release(m, Token{Mgr: b}) {
		t.Fatal("bypass must not accept releases")
	}
}

func TestResetManagerProtocol(t *testing.T) {
	r := NewResetManager("reset")
	i := NewState("I")
	normal, spec := NewMachine("n", i), NewMachine("s", i)
	if r.Inquire(normal, 0) || r.Inquire(spec, 0) {
		t.Fatal("unmarked machines must be rejected")
	}
	r.Mark(spec)
	if !r.Marked(spec) || r.MarkedCount() != 1 {
		t.Fatal("mark bookkeeping wrong")
	}
	if r.Inquire(normal, 0) {
		t.Fatal("normal machine must still be rejected")
	}
	if !r.Inquire(spec, 0) {
		t.Fatal("marked machine must be accepted")
	}
	r.Unmark(spec)
	if r.Inquire(spec, 0) {
		t.Fatal("unmarked machine must be rejected again")
	}
	if _, ok := r.Allocate(spec, 0); ok {
		t.Fatal("reset manager must not grant tokens")
	}
	if r.Release(spec, Token{Mgr: r}) {
		t.Fatal("reset manager must not accept releases")
	}
}

func TestResetEdgeSquashesSpeculativeOperation(t *testing.T) {
	i, f := NewState("I"), NewState("F")
	mf := NewUnitManager("fetch", 1)
	reset := NewResetManager("reset")
	i.Connect("fetch", f, Alloc(mf, 0))
	ResetEdge(f, i, reset)
	if f.Out[0].Name != "F-reset" {
		t.Fatal("reset edge must take the highest static priority")
	}
	m := NewMachine("op", i)
	if ok, _ := m.tryEdge(i.Out[0]); !ok {
		t.Fatal("fetch failed")
	}
	// Not marked: the reset edge stays dormant.
	if ok, _ := m.tryEdge(f.Out[0]); ok {
		t.Fatal("reset edge must not fire for a normal machine")
	}
	reset.Mark(m)
	if ok, err := m.tryEdge(f.Out[0]); !ok || err != nil {
		t.Fatalf("reset edge: ok=%v err=%v", ok, err)
	}
	if !m.InInitial() || len(m.Tokens()) != 0 {
		t.Fatal("squashed machine must rest empty in initial state")
	}
	if mf.Free() != 1 {
		t.Fatal("discarded fetch token must be reclaimed")
	}
	if reset.Marked(m) {
		t.Fatal("reset edge action must unmark the machine")
	}
}

func TestPoolManagerCounting(t *testing.T) {
	p := NewPoolManager("fq", 2)
	m := NewMachine("m", NewState("I"))
	if p.Cap() != 2 || p.Free() != 2 || p.InUse() != 0 {
		t.Fatal("fresh pool bookkeeping wrong")
	}
	t1, ok1 := p.Allocate(m, AnyUnit)
	t2, ok2 := p.Allocate(m, AnyUnit)
	_, ok3 := p.Allocate(m, AnyUnit)
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("grants = %v,%v,%v; want true,true,false", ok1, ok2, ok3)
	}
	if t1.ID == t2.ID {
		t.Fatal("pool tokens must have distinct sequence ids")
	}
	if p.Inquire(m, AnyUnit) {
		t.Fatal("inquiry of an empty pool must fail")
	}
	if !p.Release(m, t1) {
		t.Fatal("release must succeed")
	}
	if p.Free() != 1 {
		t.Fatalf("free = %d, want 1", p.Free())
	}
	p.CancelRelease(m, t1)
	if p.Free() != 0 {
		t.Fatal("cancel-release must retake the token")
	}
	p.Discarded(m, t1)
	p.Discarded(m, t2)
	if p.Free() != 2 {
		t.Fatal("discards must refill the pool")
	}
}

func TestPoolManagerAllocGateAndCancel(t *testing.T) {
	p := NewPoolManager("fq", 1)
	m := NewMachine("m", NewState("I"))
	p.AllocGate = func(*Machine) bool { return false }
	if _, ok := p.Allocate(m, AnyUnit); ok {
		t.Fatal("gate must refuse")
	}
	p.AllocGate = nil
	tok, _ := p.Allocate(m, AnyUnit)
	p.CancelAllocate(m, tok)
	if p.Free() != 1 {
		t.Fatal("cancel must return the token")
	}
}

func TestQueueManagerInOrderRelease(t *testing.T) {
	q := NewQueueManager("cq", 3)
	i := NewState("I")
	a, b := NewMachine("a", i), NewMachine("b", i)
	ta, _ := q.Allocate(a, AnyUnit)
	tb, _ := q.Allocate(b, AnyUnit)
	if q.Len() != 2 || q.Head() != a {
		t.Fatalf("queue bookkeeping wrong: len=%d head=%v", q.Len(), q.Head())
	}
	if q.Release(b, tb) {
		t.Fatal("younger entry must not release before the head")
	}
	if !q.Release(a, ta) {
		t.Fatal("head must release")
	}
	if !q.Release(b, tb) {
		t.Fatal("after the head retires, the next entry must release")
	}
	if q.Len() != 0 || q.Head() != nil {
		t.Fatal("queue should drain")
	}
}

func TestQueueManagerCapacityAndCancel(t *testing.T) {
	q := NewQueueManager("cq", 1)
	m := NewMachine("m", NewState("I"))
	tok, ok := q.Allocate(m, AnyUnit)
	if !ok {
		t.Fatal("first allocation must succeed")
	}
	if _, ok := q.Allocate(m, AnyUnit); ok {
		t.Fatal("full queue must refuse")
	}
	q.CancelAllocate(m, tok)
	if q.Len() != 0 {
		t.Fatal("cancel must remove the tentative entry")
	}
	tok, _ = q.Allocate(m, AnyUnit)
	if !q.Release(m, tok) {
		t.Fatal("head release must succeed")
	}
	q.CancelRelease(m, tok)
	if q.Len() != 1 || q.Head() != m {
		t.Fatal("cancel-release must restore the head")
	}
}

func TestQueueManagerInquireAndDiscard(t *testing.T) {
	q := NewQueueManager("cq", 2)
	i := NewState("I")
	a, b := NewMachine("a", i), NewMachine("b", i)
	ta, _ := q.Allocate(a, AnyUnit)
	tb, _ := q.Allocate(b, AnyUnit)
	if q.Inquire(a, AnyUnit) {
		t.Fatal("full queue: AnyUnit inquiry must fail")
	}
	if !q.Inquire(a, ta.ID) {
		t.Fatal("head-id inquiry must succeed for the head")
	}
	if q.Inquire(b, tb.ID) {
		t.Fatal("non-head inquiry must fail")
	}
	// Squash the head; b becomes the head and can retire.
	q.Discarded(a, ta)
	if q.Head() != b {
		t.Fatal("discard must remove the squashed entry")
	}
	if !q.Release(b, tb) {
		t.Fatal("new head must release")
	}
	if q.Holder(tb.ID) != nil && q.Len() != 0 {
		t.Fatal("released entry must be gone")
	}
}

func TestQueueManagerReleaseGate(t *testing.T) {
	q := NewQueueManager("cq", 1)
	m := NewMachine("m", NewState("I"))
	tok, _ := q.Allocate(m, AnyUnit)
	q.ReleaseGate = func(*Machine, Token) bool { return false }
	if q.Release(m, tok) {
		t.Fatal("gate must refuse the release")
	}
	q.ReleaseGate = nil
	if !q.Release(m, tok) {
		t.Fatal("release must succeed with the gate removed")
	}
}

func TestQueueManagerHolder(t *testing.T) {
	q := NewQueueManager("cq", 2)
	i := NewState("I")
	a, b := NewMachine("a", i), NewMachine("b", i)
	ta, _ := q.Allocate(a, AnyUnit)
	q.Allocate(b, AnyUnit)
	if q.Holder(ta.ID) != a {
		t.Fatal("holder by id wrong")
	}
	if q.Holder(999) != a {
		t.Fatal("unknown id must report the head (blocked allocators wait on it)")
	}
}

// grants collects a manager's outstanding grants in enumeration order.
func grants(a GrantAuditor) []Grant {
	var gs []Grant
	a.OutstandingGrants(func(g Grant) { gs = append(gs, g) })
	return gs
}

// TestBuiltinManagersOutstandingGrants: each built-in manager reports
// exactly its committed grants to the invariant checker
// (GrantAuditor) — owners where it tracks them, anonymous grants by
// count where it does not, and nothing for managers that never grant.
func TestBuiltinManagersOutstandingGrants(t *testing.T) {
	i := NewState("I")
	a, b := NewMachine("a", i), NewMachine("b", i)

	u := NewUnitManager("u", 3)
	u.Allocate(a, 2)
	if gs := grants(u); !slices.Equal(gs, []Grant{{Owner: a, ID: 2}}) {
		t.Errorf("unit grants = %v", gs)
	}

	p := NewPoolManager("p", 3)
	p.Allocate(a, AnyUnit)
	p.Allocate(b, AnyUnit)
	if gs := grants(p); !slices.Equal(gs, []Grant{{ID: AnyUnit}, {ID: AnyUnit}}) {
		t.Errorf("pool grants = %v", gs)
	}

	q := NewQueueManager("q", 3)
	ta, _ := q.Allocate(a, AnyUnit)
	tb, _ := q.Allocate(b, AnyUnit)
	q.Release(a, ta)
	if gs := grants(q); !slices.Equal(gs, []Grant{{Owner: b, ID: tb.ID}}) {
		t.Errorf("queue grants = %v", gs)
	}

	rf := NewRegFileManager("r", 8)
	tok, _ := rf.Allocate(b, UpdateToken(5))
	rf.CommitAllocate(b, tok)
	if gs := grants(rf); !slices.Equal(gs, []Grant{{Owner: b, ID: UpdateToken(5)}}) {
		t.Errorf("regfile grants = %v", gs)
	}

	reset := NewResetManager("reset")
	reset.Mark(a)
	if gs := append(grants(NewBypassManager("fwd")), grants(reset)...); len(gs) != 0 {
		t.Errorf("bypass and reset grants = %v, want none", gs)
	}
}

// TestQueueManagerCheckThenCommit pins the mutation-free predicates
// check-then-commit callers use: CanAllocate while a slot is free,
// CanRelease only for the head's token and regardless of any release
// gate.
func TestQueueManagerCheckThenCommit(t *testing.T) {
	q := NewQueueManager("cq", 2)
	i := NewState("I")
	a, b := NewMachine("a", i), NewMachine("b", i)
	if q.Cap() != 2 || !q.CanAllocate() {
		t.Fatalf("fresh queue: cap %d, can allocate %v", q.Cap(), q.CanAllocate())
	}
	ta, _ := q.Allocate(a, AnyUnit)
	tb, _ := q.Allocate(b, AnyUnit)
	if q.CanAllocate() {
		t.Fatal("full queue reports a free slot")
	}
	if !q.CanRelease(ta.ID) || q.CanRelease(tb.ID) {
		t.Fatal("CanRelease must hold for the head's token alone")
	}
	q.Release(a, ta)
	q.ReleaseGate = func(*Machine, Token) bool { return false }
	if !q.CanAllocate() || !q.CanRelease(tb.ID) || q.CanRelease(ta.ID) {
		t.Fatal("after the head retires: the slot frees and the next entry can release, gate or not")
	}
	if q.Len() != 1 || q.Cap() != 2 {
		t.Fatalf("len %d cap %d", q.Len(), q.Cap())
	}
}
