package osm

// QueueManager manages the entries of an in-order queue, such as the
// completion queue of the PowerPC 750 model: tokens are granted in
// program order and may only be released in the same order. An
// operation whose completion-queue token is not at the head of the
// queue has its release refused and stalls, which is exactly in-order
// retirement. Discard (squash) may remove a token from anywhere in the
// queue.
type QueueManager struct {
	BaseManager

	capacity int
	ring     []queueEntry // fixed-size circular buffer
	head, n  int
	seq      TokenID
}

type queueEntry struct {
	id    TokenID
	owner *Machine
}

// NewQueueManager returns an empty in-order queue with n entries.
func NewQueueManager(name string, n int) *QueueManager {
	return &QueueManager{
		BaseManager: BaseManager{ManagerName: name},
		capacity:    n,
		ring:        make([]queueEntry, n),
	}
}

func (q *QueueManager) at(i int) *queueEntry {
	return &q.ring[(q.head+i)%q.capacity]
}

// Cap returns the queue capacity.
func (q *QueueManager) Cap() int { return q.capacity }

// Len returns the number of occupied entries.
func (q *QueueManager) Len() int { return q.n }

// Head returns the machine owning the oldest entry, or nil if empty.
func (q *QueueManager) Head() *Machine {
	if q.n == 0 {
		return nil
	}
	return q.ring[q.head].owner
}

// Holder reports the owner of the queue's head when id names it
// (HolderReporter): a machine blocked allocating a full queue waits on
// the head's owner.
func (q *QueueManager) Holder(id TokenID) *Machine {
	for i := 0; i < q.n; i++ {
		if e := q.at(i); e.id == id {
			return e.owner
		}
	}
	return q.Head()
}

// Allocate grants the next entry in program order when the queue is
// not full.
func (q *QueueManager) Allocate(m *Machine, id TokenID) (Token, bool) {
	if q.n >= q.capacity {
		return Token{}, false
	}
	q.seq++
	*q.at(q.n) = queueEntry{id: q.seq, owner: m}
	q.n++
	return Token{Mgr: q, ID: q.seq}, true
}

// CancelAllocate removes the tentatively appended entry and rewinds
// the sequence counter, leaving the queue bit-identical to before the
// grant. The compiled engine's check-then-commit path relies on
// tentative grants having no residue (see CheckableManager).
func (q *QueueManager) CancelAllocate(m *Machine, t Token) {
	q.n--
	q.seq--
}

// Inquire reports, for AnyUnit, whether the queue has a free entry;
// for a granted identifier, whether that entry is at the head (useful
// to guard "may I complete?" edges without releasing yet).
func (q *QueueManager) Inquire(m *Machine, id TokenID) bool {
	if id == AnyUnit {
		return q.n < q.capacity
	}
	return q.n > 0 && q.ring[q.head].id == id
}

// CanAllocate reports whether Allocate would grant: the queue has a
// free slot. Mutation-free, for check-then-commit callers.
func (q *QueueManager) CanAllocate() bool { return q.n < q.capacity }

// CanRelease reports whether Release of the held token id would
// accept: the token is the queue's head. Mutation-free, for
// check-then-commit callers.
func (q *QueueManager) CanRelease(id TokenID) bool { return q.n > 0 && q.ring[q.head].id == id }

// Release accepts the return of t only when t is the queue's head —
// in-order retirement.
func (q *QueueManager) Release(m *Machine, t Token) bool {
	if !q.CanRelease(t.ID) {
		return false
	}
	q.head = (q.head + 1) % q.capacity
	q.n--
	return true
}

// CancelRelease restores the tentatively popped head.
func (q *QueueManager) CancelRelease(m *Machine, t Token) {
	q.head = (q.head - 1 + q.capacity) % q.capacity
	q.ring[q.head] = queueEntry{id: t.ID, owner: m}
	q.n++
}

// SleepSafeManager reports that machines blocked on the manager may be
// suspended (SleepSafe): occupancy and head order change only through
// token transactions and discards, which wake.
func (q *QueueManager) SleepSafeManager() bool { return true }

// OutstandingGrants enumerates the occupied entries in queue order
// (GrantAuditor).
func (q *QueueManager) OutstandingGrants(yield func(Grant)) {
	for i := 0; i < q.n; i++ {
		e := q.at(i)
		yield(Grant{Owner: e.owner, ID: e.id})
	}
}

// Discarded removes a squashed operation's entry from anywhere in the
// queue. It wakes waiters itself because Machine.Reset discards
// outside any edge commit.
func (q *QueueManager) Discarded(m *Machine, t Token) {
	defer q.Wake()
	for i := 0; i < q.n; i++ {
		if q.at(i).id == t.ID {
			// Shift the tail down one slot.
			for j := i; j < q.n-1; j++ {
				*q.at(j) = *q.at(j + 1)
			}
			q.n--
			return
		}
	}
}
