package osm

import "fmt"

// UpdateToken converts a register number into the identifier of its
// register-update token in a RegFileManager's namespace. Plain
// register numbers identify value tokens.
func UpdateToken(reg int) TokenID { return TokenID(reg) | regUpdateFlag }

const regUpdateFlag TokenID = 1 << 32

// RegFileManager models a register file in the OSM hardware layer. It
// manages two families of tokens, as in the paper's Section 4:
//
//   - value tokens, one per register, accessed non-exclusively with
//     Inquire: an inquiry about register r succeeds only while no
//     update of r is outstanding, which is how data hazards are
//     resolved (dependent operations stall until the writer retires);
//
//   - register-update tokens, allocated exclusively by an operation
//     that will write r, held from issue to write-back, and released
//     with the computed result attached as the token's Data.
//
// RenameDepth > 1 permits several outstanding updates of the same
// register, modeling rename buffers; readers still wait until every
// outstanding update has retired (value tokens track architected
// state only — models wanting forwarding add a BypassManager).
type RegFileManager struct {
	BaseManager
	// RenameDepth is the number of update tokens available per
	// register. The zero value is treated as 1 (a scoreboard).
	RenameDepth int

	vals    []uint64
	pending []int
	writers [][]*Machine // outstanding writers per register, oldest first
}

// NewRegFileManager returns a register file of n registers with all
// values zero and no outstanding updates.
func NewRegFileManager(name string, n int) *RegFileManager {
	return &RegFileManager{
		BaseManager: BaseManager{ManagerName: name},
		vals:        make([]uint64, n),
		pending:     make([]int, n),
		writers:     make([][]*Machine, n),
	}
}

// Len returns the number of registers.
func (r *RegFileManager) Len() int { return len(r.vals) }

// Read returns the architected value of register reg. The hardware
// layer and edge actions use it to fetch granted operand values.
func (r *RegFileManager) Read(reg int) uint64 { return r.vals[reg] }

// Write sets the architected value of register reg directly,
// bypassing the token protocol. It is intended for initialization and
// for the functional (instruction-set) simulation layer.
func (r *RegFileManager) Write(reg int, v uint64) {
	r.vals[reg] = v
	r.Wake()
}

// SleepSafeManager reports that machines blocked on the manager may be
// suspended (SleepSafe): availability only changes through the token
// protocol and Write, which wakes.
func (r *RegFileManager) SleepSafeManager() bool { return true }

// Pending returns the number of outstanding updates of register reg.
func (r *RegFileManager) Pending(reg int) int { return r.pending[reg] }

func (r *RegFileManager) depth() int {
	if r.RenameDepth <= 0 {
		return 1
	}
	return r.RenameDepth
}

func (r *RegFileManager) split(id TokenID) (reg int, update bool, ok bool) {
	update = id&regUpdateFlag != 0
	reg = int(id &^ regUpdateFlag)
	return reg, update, reg >= 0 && reg < len(r.vals)
}

// Allocate grants a register-update token for the named register if a
// rename slot is free. Value tokens cannot be allocated: they are
// non-exclusive and only support Inquire.
func (r *RegFileManager) Allocate(m *Machine, id TokenID) (Token, bool) {
	reg, update, ok := r.split(id)
	if !ok || !update {
		return Token{}, false
	}
	if r.pending[reg] >= r.depth() {
		return Token{}, false
	}
	r.pending[reg]++
	r.writers[reg] = append(r.writers[reg], m)
	return Token{Mgr: r, ID: id}, true
}

// CanAllocate reports whether Allocate(id) would grant, without
// taking the rename slot. Mutation-free, for check-then-commit
// callers (the compiled engine's pure path and generated edge
// functions).
func (r *RegFileManager) CanAllocate(id TokenID) bool {
	reg, update, ok := r.split(id)
	return ok && update && r.pending[reg] < r.depth()
}

// CancelAllocate returns the tentatively taken rename slot.
func (r *RegFileManager) CancelAllocate(m *Machine, t Token) {
	reg, _, _ := r.split(t.ID)
	r.pending[reg]--
	r.writers[reg] = r.writers[reg][:len(r.writers[reg])-1]
}

// Inquire reports availability: for a value token, that no update of
// the register is outstanding (other than by m itself); for an update
// token, that a rename slot is free.
func (r *RegFileManager) Inquire(m *Machine, id TokenID) bool {
	reg, update, ok := r.split(id)
	if !ok {
		return false
	}
	if update {
		return r.pending[reg] < r.depth()
	}
	if r.pending[reg] == 0 {
		return true
	}
	// An operation that writes a register it also reads must not
	// stall on its own update token.
	for _, w := range r.writers[reg] {
		if w != m {
			return false
		}
	}
	return true
}

// Release accepts the return of an update token.
func (r *RegFileManager) Release(m *Machine, t Token) bool { return true }

// CommitRelease retires the oldest outstanding update by m and writes
// the token's Data payload into the register.
func (r *RegFileManager) CommitRelease(m *Machine, t Token) {
	reg, update, _ := r.split(t.ID)
	if !update {
		return
	}
	r.retire(m, reg)
	r.vals[reg] = t.Data
}

// Discarded drops an outstanding update without writing the register
// (a squashed speculative writer).
func (r *RegFileManager) Discarded(m *Machine, t Token) {
	reg, update, ok := r.split(t.ID)
	if !ok || !update {
		return
	}
	r.retire(m, reg)
	// Machine.Reset discards outside any edge commit; wake waiters.
	r.Wake()
}

func (r *RegFileManager) retire(m *Machine, reg int) {
	ws := r.writers[reg]
	for i, w := range ws {
		if w == m {
			r.writers[reg] = append(ws[:i], ws[i+1:]...)
			r.pending[reg]--
			return
		}
	}
	panic(fmt.Sprintf("osm: %s: machine %s retires update of r%d it never allocated",
		r.ManagerName, m.Name, reg))
}

// OutstandingGrants enumerates the outstanding register-update tokens,
// one per writer per register (GrantAuditor). Value tokens are
// non-exclusive and never granted, so they do not appear.
func (r *RegFileManager) OutstandingGrants(yield func(Grant)) {
	for reg, ws := range r.writers {
		for _, w := range ws {
			yield(Grant{Owner: w, ID: UpdateToken(reg)})
		}
	}
}

// Holder reports the oldest outstanding writer of the register named
// by an update token (HolderReporter); readers blocked on the value
// token wait, transitively, on that writer.
func (r *RegFileManager) Holder(id TokenID) *Machine {
	reg, _, ok := r.split(id)
	if !ok || len(r.writers[reg]) == 0 {
		return nil
	}
	return r.writers[reg][0]
}
