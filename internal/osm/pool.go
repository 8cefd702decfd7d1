package osm

// PoolManager manages a counted pool of anonymous, interchangeable
// tokens — entries of a fetch queue or rename-buffer credits. The
// identifier presented with Allocate is ignored except that AnyUnit is
// conventional; each grant carries a fresh sequence number so a
// machine can hold several pool tokens at once.
type PoolManager struct {
	BaseManager

	capacity int
	free     int
	seq      TokenID
}

// NewPoolManager returns a pool of n free tokens.
func NewPoolManager(name string, n int) *PoolManager {
	return &PoolManager{
		BaseManager: BaseManager{ManagerName: name},
		capacity:    n,
		free:        n,
	}
}

// Cap returns the pool's capacity.
func (p *PoolManager) Cap() int { return p.capacity }

// Free returns the number of tokens currently available.
func (p *PoolManager) Free() int { return p.free }

// InUse returns the number of tokens currently granted.
func (p *PoolManager) InUse() int { return p.capacity - p.free }

// Allocate grants a token when the pool is non-empty.
func (p *PoolManager) Allocate(m *Machine, id TokenID) (Token, bool) {
	if p.free == 0 {
		return Token{}, false
	}
	p.free--
	p.seq++
	return Token{Mgr: p, ID: p.seq}, true
}

// CancelAllocate reverses a tentative grant exactly, sequence counter
// included, leaving the pool bit-identical to before the grant. The
// compiled engine's check-then-commit path relies on tentative grants
// having no residue (see CheckableManager).
func (p *PoolManager) CancelAllocate(m *Machine, t Token) { p.free++; p.seq-- }

// Inquire reports whether at least one token is available.
func (p *PoolManager) Inquire(m *Machine, id TokenID) bool { return p.free > 0 }

// Release accepts the return of any granted token.
func (p *PoolManager) Release(m *Machine, t Token) bool {
	p.free++
	return true
}

// CancelRelease re-takes the tentatively returned token.
func (p *PoolManager) CancelRelease(m *Machine, t Token) { p.free-- }

// Discarded reclaims a granted token unconditionally. It wakes
// waiters itself because Machine.Reset discards outside any edge
// commit.
func (p *PoolManager) Discarded(m *Machine, t Token) {
	p.free++
	p.Wake()
}

// SleepSafeManager reports that machines blocked on the manager may be
// suspended (SleepSafe): the free count changes only through token
// transactions and discards, which wake.
func (p *PoolManager) SleepSafeManager() bool { return true }

// OutstandingGrants enumerates the granted tokens (GrantAuditor).
// Pool tokens are anonymous — the pool remembers how many are out,
// not who holds them — so each grant carries a nil Owner and the
// checker matches by count.
func (p *PoolManager) OutstandingGrants(yield func(Grant)) {
	for i := p.InUse(); i > 0; i-- {
		yield(Grant{ID: AnyUnit})
	}
}
