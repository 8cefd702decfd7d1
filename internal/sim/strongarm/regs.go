// Package strongarm implements the paper's first case study: a
// cycle-accurate OSM model of the StrongARM (SA-1100) core, a
// five-stage pipelined implementation of the ARM architecture with
// forwarding paths and a multi-cycle multiplier.
//
// The model follows Section 4 of the paper exactly: each in-flight
// operation is an operation state machine traversing
// I → F → D → E → B → W → I; pipeline stages are token managers
// owning one occupancy token each; the combined register file and
// forwarding-path module is a token manager resolving data hazards;
// control hazards use a reset manager with high-priority reset edges;
// and variable memory latency is modeled by the stage managers
// refusing token release while an access is in flight. Operation
// semantics execute in the E-stage edge action by stepping the
// underlying instruction-set simulator, so the architectural state is
// always in-order and exact.
package strongarm

import (
	"repro/internal/isa/arm"
	"repro/internal/osm"
)

// Token identifiers of the register-file manager's namespace.
const (
	// SrcsToken inquires about the readiness of every source operand
	// of the requesting machine's operation (including the CPSR flags
	// when the operation reads them). The manager inspects the
	// requester's context, which the paper explicitly allows ("token
	// managers may check the identity of the requesting OSMs").
	SrcsToken osm.TokenID = 100
	// WriterToken allocates the update rights for every destination
	// register of the requesting machine's operation (plus the flags
	// when written). It is released at write-back.
	WriterToken osm.TokenID = 101
)

// flagsIdx tracks the CPSR condition flags as a 17th scoreboard entry.
const flagsIdx = 15 // PC (r15) is excluded from dependency tracking

// regFile is the combined register file and forwarding-path module of
// the StrongARM model. It is a pure timing scoreboard: values live in
// the underlying ISS (which executes in order at the E stage), so the
// manager tracks, per register, the number of outstanding updates and
// the cycle at which the newest result becomes available on the
// forwarding network.
type regFile struct {
	osm.BaseManager
	cycle   uint64
	pending [16]int
	readyAt [16]uint64
	// writers holds the live WriterToken grants, in no significant
	// order. The single-issue pipeline holds at most three, one each
	// in E, B and W, so a linear search beats a map.
	writers []writer
}

// writer is one WriterToken grant: the machine and the scoreboard
// entries it updates.
type writer struct {
	m    *osm.Machine
	dsts []int
}

func newRegFile() *regFile {
	return &regFile{BaseManager: osm.BaseManager{ManagerName: "regfile+fwd"}}
}

// BeginStep tracks the current control step (osm.Stepper) and wakes
// waiters when a forwarding-network availability time is reached this
// cycle: sources that previously inquired unavailable can now issue.
// Without a wake hook there are no waiters, and the scan is skipped.
func (r *regFile) BeginStep(cycle uint64) {
	r.cycle = cycle
	if !r.HasWake() {
		return
	}
	for i, at := range r.readyAt {
		if r.pending[i] > 0 && at == cycle {
			r.Wake()
			break
		}
	}
}

// SleepSafeManager reports that machines blocked on the manager may be
// suspended (osm.SleepSafe): every availability change is either a
// committed transaction or a forwarding-time crossing announced by
// BeginStep.
func (r *regFile) SleepSafeManager() bool { return true }

// trackedDsts lists the scoreboard indices an operation updates.
func trackedDsts(ins *arm.Instr) []int {
	var out []int
	for _, d := range ins.DstRegs() {
		if d != arm.PC {
			out = append(out, d)
		}
	}
	if ins.WritesFlags() {
		out = append(out, flagsIdx)
	}
	return out
}

// trackedSrcs lists the scoreboard indices an operation reads.
func trackedSrcs(ins *arm.Instr) []int {
	var out []int
	for _, s := range ins.SrcRegs() {
		if s != arm.PC {
			out = append(out, s)
		}
	}
	if ins.ReadsFlags() {
		out = append(out, flagsIdx)
	}
	return out
}

func (r *regFile) available(idx int) bool {
	return r.pending[idx] == 0 || r.cycle >= r.readyAt[idx]
}

// Inquire implements the value-token side: SrcsToken succeeds when
// every source operand is architecturally committed or available on a
// forwarding path this cycle.
func (r *regFile) Inquire(m *osm.Machine, id osm.TokenID) bool {
	if id != SrcsToken {
		return false
	}
	op := ctxOf(m)
	if !op.decodeOK {
		return true // wrong-path garbage stalls on nothing
	}
	for _, s := range op.srcs {
		if !r.available(s) {
			return false
		}
	}
	return true
}

// Allocate implements the register-update-token side: WriterToken
// claims update rights for all destinations at once. The in-order
// pipeline has no WAW limit, so the grant never fails.
func (r *regFile) Allocate(m *osm.Machine, id osm.TokenID) (osm.Token, bool) {
	if id != WriterToken {
		return osm.Token{}, false
	}
	dsts := ctxOf(m).dsts
	for _, d := range dsts {
		r.pending[d]++
	}
	r.writers = append(r.writers, writer{m, dsts})
	return osm.Token{Mgr: r, ID: WriterToken}, true
}

// CancelAllocate reverses a tentative WriterToken grant.
func (r *regFile) CancelAllocate(m *osm.Machine, t osm.Token) { r.retire(m) }

// The manager opts in to the compiled engine's check-then-commit fast
// path: its grant decisions depend only on its own scoreboard and the
// requester's committed context, and a cancelled grant leaves no
// residue, so predicting the outcome is exact.
var _ osm.CheckableManager = (*regFile)(nil)

// CanAllocate predicts Allocate: WriterToken grants never fail (the
// in-order pipeline has no WAW limit), any other identifier is
// refused.
func (r *regFile) CanAllocate(m *osm.Machine, id osm.TokenID) bool { return id == WriterToken }

// CanRelease predicts Release, which always accepts the writer token
// back.
func (r *regFile) CanRelease(m *osm.Machine, t osm.Token) bool { return true }

// Release always accepts the writer token back.
func (r *regFile) Release(m *osm.Machine, t osm.Token) bool { return true }

// CommitRelease retires the machine's outstanding updates.
func (r *regFile) CommitRelease(m *osm.Machine, t osm.Token) { r.retire(m) }

// Discarded retires the updates of a squashed machine. It wakes
// waiters itself because Machine.Reset discards outside any edge
// commit.
func (r *regFile) Discarded(m *osm.Machine, t osm.Token) {
	r.retire(m)
	r.Wake()
}

// OutstandingGrants enumerates the committed writer tokens
// (osm.GrantAuditor): every machine in the writers table holds one
// WriterToken. Order is unspecified; the checker matches multisets.
func (r *regFile) OutstandingGrants(yield func(osm.Grant)) {
	for _, w := range r.writers {
		yield(osm.Grant{Owner: w.m, ID: WriterToken})
	}
}

// retire drops m's grant, if it holds one, and its outstanding
// updates.
func (r *regFile) retire(m *osm.Machine) {
	for i, w := range r.writers {
		if w.m == m {
			for _, d := range w.dsts {
				r.pending[d]--
			}
			r.writers = append(r.writers[:i], r.writers[i+1:]...)
			return
		}
	}
}

// SetReady publishes a forwarding-network availability time for a
// scoreboard entry: dependents may issue at cycle `at` or later.
func (r *regFile) SetReady(idx int, at uint64) { r.readyAt[idx] = at }
