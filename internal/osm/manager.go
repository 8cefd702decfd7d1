package osm

// TokenManager is the token manager interface (TMI) through which a
// hardware module participates in the operation layer. It controls the
// use of one or more closely related tokens.
//
// Transactions are two-phase. The Director evaluates an edge's guard
// by issuing every primitive as a tentative request; a request may
// mutate manager state to reflect the tentative grant. If every
// conjunct succeeds the Director commits them all simultaneously;
// otherwise it cancels the ones that had succeeded. Managers must
// restore their pre-request state exactly on cancel.
//
// Managers may check the identity (the *Machine) of the requester when
// making decisions — the reset manager, for instance, only answers
// inquiries from machines it has marked as squashed.
type TokenManager interface {
	// Name identifies the manager in traces, errors and ADL bindings.
	Name() string

	// Allocate tentatively grants the token named by id to m. It
	// reports whether the token is available to m; on success the
	// returned token records the concrete unit granted.
	Allocate(m *Machine, id TokenID) (Token, bool)
	// CancelAllocate undoes a successful tentative Allocate.
	CancelAllocate(m *Machine, t Token)
	// CommitAllocate finalizes a successful tentative Allocate. After
	// commit the token sits in m's token buffer.
	CommitAllocate(m *Machine, t Token)

	// Inquire reports whether the resource unit named by id is
	// available to m, without transferring ownership. Inquiries are
	// side-effect free.
	Inquire(m *Machine, id TokenID) bool

	// Release tentatively accepts the return of t from m. A manager
	// may reject the request (for example while a variable-latency
	// access is still in flight), in which case the machine retains
	// the token and stalls.
	Release(m *Machine, t Token) bool
	// CancelRelease undoes a successful tentative Release.
	CancelRelease(m *Machine, t Token)
	// CommitRelease finalizes a successful tentative Release; the
	// token returns to the manager. t.Data carries any payload the
	// operation attached (for example a computed register value).
	CommitRelease(m *Machine, t Token)

	// Discarded notifies the manager that m dropped t without
	// permission (a Discard primitive, used on reset edges). The
	// manager reclaims the unit unconditionally.
	Discarded(m *Machine, t Token)
}

// Stepper is implemented by managers that need a notification at the
// start of every control step (to age busy counters, clear per-cycle
// forwarding values, and so on). The Director calls BeginStep on every
// registered manager that implements it, in registration order, before
// scheduling any machine.
type Stepper interface {
	BeginStep(cycle uint64)
}

// WakeNotifier is implemented by managers that accept a
// change-notification hook. The event-driven director (see
// director_event.go) installs a function that re-queues every machine
// suspended on the manager; the manager calls it — via
// BaseManager.Wake — whenever its state changes in a way that could
// turn a previously refused request into a granted one, other than
// through a committed token transaction (which the director observes
// by itself). Typical call sites are time-based state crossings in
// BeginStep (a busy window expiring) and model-level mutators such as
// ResetManager.Mark or BypassManager.Publish.
type WakeNotifier interface {
	// SetWake installs the notification hook. A nil hook disables
	// notification. A manager serves at most one event-driven
	// director at a time; a later SetWake replaces the hook.
	SetWake(func())
}

// SleepSafe is implemented by managers that uphold the wake contract:
// every state change that can unblock a refused Allocate, Inquire or
// Release is either a committed token transaction or is announced
// through the hook installed with SetWake. Machines blocked only on
// sleep-safe managers may be suspended until a wake arrives; machines
// blocked on any other manager are re-evaluated every control step,
// which is always correct but forgoes the event-driven savings. Every
// built-in manager answers true; the interface exists for custom
// managers.
type SleepSafe interface {
	SleepSafeManager() bool
}

// Grant describes one outstanding token grant from the granting
// manager's perspective: which machine holds which token. Managers
// that track only a grant count — the pool manager hands out
// anonymous, interchangeable tokens — report a nil Owner, and the
// invariant checker matches them by count instead of identity.
type Grant struct {
	// Owner is the machine the grant is bound to, or nil when the
	// manager tracks counts rather than owners.
	Owner *Machine
	// ID is the granted token's identifier in the manager's
	// namespace, or AnyUnit for anonymous grants.
	ID TokenID
}

// GrantAuditor is implemented by managers that can enumerate their
// outstanding grants. The invariant checker cross-checks the
// enumeration against every machine's token buffer to verify the
// paper's conservation law: each token is held by exactly one machine
// or by its manager, never both and never neither. All built-in
// managers implement it.
type GrantAuditor interface {
	// OutstandingGrants calls yield once per outstanding grant. The
	// enumeration must reflect committed state only; it is invoked
	// between control steps, never mid-transaction.
	OutstandingGrants(yield func(Grant))
}

// CheckableManager is an optional TokenManager extension for managers
// whose request-phase outcome can be predicted without transacting.
// The compile stage (Director.Compile) uses it to admit guards over
// custom managers to the check-then-commit fast path, which decides
// the whole conjunction with side-effect-free checks and applies the
// transactions only once success is certain — skipping the tentative
// grant/cancel machinery entirely.
//
// Implementations must satisfy the prediction contract:
//
//   - CanAllocate(m, id) reports exactly what Allocate(m, id) would
//     return, and CanRelease(m, t) exactly what Release(m, t) would,
//     given unchanged state; neither mutates anything.
//   - The prediction, and the transaction itself, must depend only on
//     the manager's own state and on committed machine state — never
//     on another manager's tentative (uncommitted) transactions.
//   - A cancelled tentative grant must leave the manager bit-identical
//     to before the grant — sequence counters and other bookkeeping
//     included. (The built-in managers all satisfy this: pool and
//     queue CancelAllocate rewind their token sequence exactly.)
//
// Managers that cannot promise this simply do not implement the
// interface, and an edge that allocates from or releases to one runs
// through the interpreter; the result is identical either way, only
// slower. The cross-engine differential suites
// exercise both paths against the interpreter.
type CheckableManager interface {
	TokenManager
	// CanAllocate reports whether Allocate(m, id) would succeed,
	// without mutating state.
	CanAllocate(m *Machine, id TokenID) bool
	// CanRelease reports whether Release(m, t) would succeed, without
	// mutating state.
	CanRelease(m *Machine, t Token) bool
}

// HolderReporter is implemented by managers that can report which
// machine currently owns a unit. The deadlock detector uses it to
// build the wait-for graph of the paper's Section 3.4.
type HolderReporter interface {
	// Holder returns the machine owning the unit named by id, or nil
	// if the unit is free or the id does not resolve to an exclusive
	// unit.
	Holder(id TokenID) *Machine
}

// BaseManager provides no-op commit/cancel/notification methods so
// that simple managers only implement the request-phase logic they
// care about. It intentionally does not implement Allocate, Inquire or
// Release: every concrete manager must decide its own grant policy.
type BaseManager struct {
	// ManagerName is returned by Name.
	ManagerName string

	wake func()
}

// Name returns the manager's name.
func (b *BaseManager) Name() string { return b.ManagerName }

// SetWake installs the director's change-notification hook
// (WakeNotifier).
func (b *BaseManager) SetWake(f func()) { b.wake = f }

// HasWake reports whether a change-notification hook is installed.
// Only the event-driven director installs one, before its first
// BeginStep; without one a manager may skip work whose only purpose is
// to decide whether to call Wake.
func (b *BaseManager) HasWake() bool { return b.wake != nil }

// Wake invokes the installed change-notification hook, re-queuing any
// machines suspended on the manager. Safe to call when no hook is
// installed.
func (b *BaseManager) Wake() {
	if b.wake != nil {
		b.wake()
	}
}

// CancelAllocate is a no-op.
func (b *BaseManager) CancelAllocate(m *Machine, t Token) {}

// CommitAllocate is a no-op.
func (b *BaseManager) CommitAllocate(m *Machine, t Token) {}

// CancelRelease is a no-op.
func (b *BaseManager) CancelRelease(m *Machine, t Token) {}

// CommitRelease is a no-op.
func (b *BaseManager) CommitRelease(m *Machine, t Token) {}

// Discarded is a no-op.
func (b *BaseManager) Discarded(m *Machine, t Token) {}
