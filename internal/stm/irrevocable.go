package stm

import "runtime"

// Irrevocable path (SemanticsIrrevocable).
//
// An irrevocable transaction is guaranteed to commit on its only
// attempt: it never validates, never aborts on conflict, and may
// therefore perform irreversible side effects (I/O). The guarantee is
// obtained pessimistically: a global token serializes irrevocable
// transactions against each other, and every variable the transaction
// touches — reads included — is locked at encounter time and held until
// commit (strict two-phase locking). Optimistic transactions that hit
// those locks resolve the conflict through their contention manager; the
// engine refuses to kill an irrevocable owner, so they back off or
// abort, preserving the liveness guarantee.
//
// Deadlock cannot occur: the token means at most one irrevocable
// transaction holds encounter locks, and optimistic committers either
// acquire all their commit locks or abort in bounded time (their lock
// acquisition never blocks indefinitely), after which the irrevocable
// spinner proceeds.

// readIrrevocable performs one irrevocable-mode read: lock the variable
// (if not already held) and read its head, which the lock now stabilizes.
func (tx *Txn) readIrrevocable(v *Var) (any, error) {
	if err := tx.encounterLock(v); err != nil {
		return nil, err
	}
	return v.head.Load().val, nil
}

// encounterLock acquires and records an encounter-time lock on v,
// spinning until any optimistic holder releases it. Whether the lock is
// already held is one lock-word load: attempt ids are engine-unique, so
// an owner equal to tx.id can only be this attempt's own encounter lock
// — so a walk over n variables costs O(n).
func (tx *Txn) encounterLock(v *Var) error {
	if owner, locked := v.lockedBy(); locked && owner == tx.id {
		return nil
	}
	// About to take a lock: become resolvable as a lock owner first.
	tx.registerLive()
	for {
		prev, ok := v.tryLock(tx.id)
		if ok {
			tx.encLocks = append(tx.encLocks, encLock{v: v, prevLW: prev})
			return nil
		}
		// The holder is an optimistic committer (irrevocable peers are
		// excluded by the token); it finishes or aborts in bounded time.
		runtime.Gosched()
	}
}

// commitIrrevocable publishes buffered writes at a fresh commit
// timestamp and releases every encounter lock. It cannot fail.
func (tx *Txn) commitIrrevocable() {
	wv := tx.eng.clock.Tick()
	needed := tx.eng.snaps.minActive()
	for i := range tx.wset {
		tx.wset[i].v.install(tx.wset[i].rec, wv, needed)
	}
	for _, el := range tx.encLocks {
		if tx.findWrite(el.v) >= 0 {
			el.v.unlockTo(packVersion(wv))
		} else {
			el.v.unlockTo(el.prevLW)
		}
	}
	clear(tx.encLocks)
	tx.encLocks = tx.encLocks[:0]
	tx.finish(statusCommitted)
}
