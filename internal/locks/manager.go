// Package locks implements the lock-based synchronization of the paper:
// per-register locks with lock(x)/unlock(x) events, a strict two-phase
// locking discipline checker (the construction behind the second half of
// Theorem 1: "fine-grained locks can implement 2-phase-locking"), a
// deadlock-detecting lock manager, and lock striping used by the
// lock-based baseline data structures.
package locks

import (
	"errors"
	"fmt"
	"sync"
)

// Lock manager errors.
var (
	// ErrDeadlock is returned by Acquire when granting the request would
	// close a cycle in the waits-for graph.
	ErrDeadlock = errors.New("locks: deadlock detected")

	// ErrNotHeld is returned when releasing a lock the owner does not hold.
	ErrNotHeld = errors.New("locks: lock not held by owner")

	// ErrWouldBlock is returned by TryAcquire when the lock is busy.
	ErrWouldBlock = errors.New("locks: lock busy")
)

// lockState is the per-key record.
type lockState struct {
	holder uint64 // 0 = free
	depth  int    // reentrancy depth
	cond   *sync.Cond
}

// Manager is a blocking lock manager over arbitrary comparable keys
// (the paper's shared registers x, y, z). It grants exclusive,
// reentrant locks, blocks waiters on per-key condition variables, and
// detects deadlock by searching the waits-for graph before blocking.
//
// Owner ids are caller-chosen and must be non-zero and unique per
// concurrent actor (the paper's processes p1, p2, p3).
type Manager struct {
	mu      sync.Mutex
	locks   map[any]*lockState
	waitFor map[uint64]*lockState // waiting owner -> lock it waits on

	acquired  uint64
	contended uint64
	deadlocks uint64
}

// NewManager creates an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		locks:   make(map[any]*lockState),
		waitFor: make(map[uint64]*lockState),
	}
}

func (m *Manager) state(key any) *lockState {
	ls, ok := m.locks[key]
	if !ok {
		ls = &lockState{}
		ls.cond = sync.NewCond(&m.mu)
		m.locks[key] = ls
	}
	return ls
}

// Acquire blocks until owner holds key, or returns ErrDeadlock if
// blocking would create a waits-for cycle. Re-acquiring a held key
// increments its reentrancy depth.
func (m *Manager) Acquire(owner uint64, key any) error {
	if owner == 0 {
		return fmt.Errorf("locks: owner id must be non-zero")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.state(key)
	for {
		if ls.holder == 0 {
			ls.holder = owner
			ls.depth = 1
			m.acquired++
			return nil
		}
		if ls.holder == owner {
			ls.depth++
			return nil
		}
		// Would block: check for a waits-for cycle holder -> ... -> owner.
		if m.wouldDeadlock(owner, ls.holder) {
			m.deadlocks++
			return ErrDeadlock
		}
		m.contended++
		m.waitFor[owner] = ls
		ls.cond.Wait()
		delete(m.waitFor, owner)
	}
}

// wouldDeadlock walks the waits-for chain from holder; each owner waits
// on at most one lock, so the graph is a union of chains. An edge is
// the CURRENT holder of the lock a waiter sleeps on, read here rather
// than remembered from when it went to sleep: Release wakes one waiter,
// so a lock can change hands past the others, and an edge still naming
// the old holder hid the cycle through the new one (both slept forever).
// A free lock whose waiter has not run yet ends the chain.
func (m *Manager) wouldDeadlock(requester, holder uint64) bool {
	seen := 0
	for cur := holder; ; {
		if cur == requester {
			return true
		}
		ls, ok := m.waitFor[cur]
		if !ok || ls.holder == 0 {
			return false
		}
		cur = ls.holder
		if seen++; seen > len(m.waitFor)+1 {
			return true // defensive: malformed graph treated as cycle
		}
	}
}

// TryAcquire acquires key for owner without blocking, returning
// ErrWouldBlock if it is held by someone else.
func (m *Manager) TryAcquire(owner uint64, key any) error {
	if owner == 0 {
		return fmt.Errorf("locks: owner id must be non-zero")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.state(key)
	switch ls.holder {
	case 0:
		ls.holder = owner
		ls.depth = 1
		m.acquired++
		return nil
	case owner:
		ls.depth++
		return nil
	default:
		return ErrWouldBlock
	}
}

// Release releases one level of owner's hold on key, waking a waiter
// when the lock becomes free.
func (m *Manager) Release(owner uint64, key any) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls, ok := m.locks[key]
	if !ok || ls.holder != owner {
		return ErrNotHeld
	}
	ls.depth--
	if ls.depth == 0 {
		ls.holder = 0
		ls.cond.Signal()
	}
	return nil
}

// ReleaseAll releases every lock owner holds (any depth), returning how
// many keys were freed. It is the shrinking phase of strict 2PL.
func (m *Manager) ReleaseAll(owner uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, ls := range m.locks {
		if ls.holder == owner {
			ls.holder = 0
			ls.depth = 0
			ls.cond.Broadcast()
			n++
		}
	}
	return n
}

// Holder reports the current holder of key (0 if free or unknown).
func (m *Manager) Holder(key any) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ls, ok := m.locks[key]; ok {
		return ls.holder
	}
	return 0
}

// HeldBy reports whether owner currently holds key.
func (m *Manager) HeldBy(owner uint64, key any) bool { return m.Holder(key) == owner }

// Stats returns (acquired, contended, deadlocks) counters.
func (m *Manager) Stats() (acquired, contended, deadlocks uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acquired, m.contended, m.deadlocks
}
