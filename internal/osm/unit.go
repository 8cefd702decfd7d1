package osm

import "fmt"

// UnitManager manages a group of identical exclusive units, such as
// the occupancy of a pipeline stage (one unit), a reservation station
// (several entries) or a bank of function units. At most one machine
// owns a unit at a time, which is exactly how structure hazards are
// resolved in the OSM model: an operation that cannot allocate the
// next stage's token stalls.
//
// Variable latency (the paper's instruction-cache-miss example) is
// modeled by refusing release: while a unit is busy (SetBusy) the
// manager turns down release requests, so the owning operation stalls
// in place.
type UnitManager struct {
	BaseManager

	owner     []*Machine
	busyUntil []uint64 // first control step at which each unit is free again
	step      uint64   // current control step, updated by BeginStep
}

// NewUnitManager returns a manager of n identical exclusive units.
func NewUnitManager(name string, n int) *UnitManager {
	if n <= 0 {
		panic(fmt.Sprintf("osm: NewUnitManager(%q, %d): unit count must be positive", name, n))
	}
	return &UnitManager{
		BaseManager: BaseManager{ManagerName: name},
		owner:       make([]*Machine, n),
		busyUntil:   make([]uint64, n),
	}
}

// Len returns the number of units.
func (u *UnitManager) Len() int { return len(u.owner) }

// Free returns the number of currently unowned units.
func (u *UnitManager) Free() int {
	n := 0
	for _, o := range u.owner {
		if o == nil {
			n++
		}
	}
	return n
}

// Holder reports the machine owning the given unit (HolderReporter).
func (u *UnitManager) Holder(id TokenID) *Machine {
	if id < 0 || int(id) >= len(u.owner) {
		if id == AnyUnit {
			return nil
		}
		return nil
	}
	return u.owner[id]
}

// SetBusy marks a unit busy for n control steps beyond the current
// one: a release that would otherwise have succeeded at the next step
// is delayed by exactly n steps. The hardware layer calls this to
// model variable-latency activities such as cache misses, the paper's
// example of a fetch manager turning down token release requests
// until the access finishes.
func (u *UnitManager) SetBusy(unit TokenID, n uint64) {
	u.busyUntil[unit] = u.step + n + 1
}

// Busy reports the number of control steps (including the current
// one) for which the unit remains busy.
func (u *UnitManager) Busy(unit TokenID) uint64 {
	if u.busyUntil[unit] > u.step {
		return u.busyUntil[unit] - u.step
	}
	return 0
}

// CanAllocate reports whether Allocate(id) would grant, without
// transacting anything: the check of the compiled engine's pure path
// and of generated state functions.
func (u *UnitManager) CanAllocate(id TokenID) bool {
	_, ok := u.pick(id)
	return ok
}

// CanRelease reports whether Release of the held token id would
// accept: the unit's busy window has expired.
func (u *UnitManager) CanRelease(id TokenID) bool {
	return id >= 0 && int(id) < len(u.busyUntil) && u.busyUntil[id] <= u.step
}

// BeginStep records the current control step (Stepper). When a unit's
// busy window expires at this step, previously refused releases can
// now succeed, so the manager wakes its waiters. Without a wake hook
// there are no waiters, and the scan is skipped.
func (u *UnitManager) BeginStep(cycle uint64) {
	u.step = cycle
	if !u.HasWake() {
		return
	}
	for _, until := range u.busyUntil {
		if until == cycle {
			u.Wake()
			break
		}
	}
}

// SleepSafeManager reports that machines blocked on the manager may be
// suspended (SleepSafe): every grant and release depends on ownership,
// which changes only through token transactions, and on busy windows,
// whose expiry BeginStep announces.
func (u *UnitManager) SleepSafeManager() bool { return true }

// pick returns the unit Allocate(id) grants: the named unit when it is
// free, or with AnyUnit the first free one.
func (u *UnitManager) pick(id TokenID) (TokenID, bool) {
	if id == AnyUnit {
		for i, o := range u.owner {
			if o == nil {
				return TokenID(i), true
			}
		}
		return 0, false
	}
	if id < 0 || int(id) >= len(u.owner) || u.owner[id] != nil {
		return 0, false
	}
	return id, true
}

// Allocate tentatively grants a free unit to m.
func (u *UnitManager) Allocate(m *Machine, id TokenID) (Token, bool) {
	unit, ok := u.pick(id)
	if !ok {
		return Token{}, false
	}
	u.owner[unit] = m
	return Token{Mgr: u, ID: unit}, true
}

// CancelAllocate frees the tentatively granted unit.
func (u *UnitManager) CancelAllocate(m *Machine, t Token) { u.owner[t.ID] = nil }

// Inquire reports whether the named unit (or, with AnyUnit, any unit)
// is free or already owned by m.
func (u *UnitManager) Inquire(m *Machine, id TokenID) bool {
	if id == AnyUnit {
		for _, o := range u.owner {
			if o == nil || o == m {
				return true
			}
		}
		return false
	}
	if id < 0 || int(id) >= len(u.owner) {
		return false
	}
	return u.owner[id] == nil || u.owner[id] == m
}

// Release tentatively accepts the return of t unless the unit is busy.
func (u *UnitManager) Release(m *Machine, t Token) bool {
	if u.busyUntil[t.ID] > u.step {
		return false
	}
	u.owner[t.ID] = nil
	return true
}

// CancelRelease restores m's ownership of the unit.
func (u *UnitManager) CancelRelease(m *Machine, t Token) { u.owner[t.ID] = m }

// OutstandingGrants enumerates the owned units (GrantAuditor).
func (u *UnitManager) OutstandingGrants(yield func(Grant)) {
	for i, o := range u.owner {
		if o != nil {
			yield(Grant{Owner: o, ID: TokenID(i)})
		}
	}
}

// Discarded reclaims the unit unconditionally. It wakes waiters
// itself because Machine.Reset discards outside any edge commit.
func (u *UnitManager) Discarded(m *Machine, t Token) {
	u.owner[t.ID] = nil
	u.busyUntil[t.ID] = 0
	u.Wake()
}
