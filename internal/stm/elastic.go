package stm

import "slices"

// Elastic read path (SemanticsWeak before the first write).
//
// An elastic transaction [Felber, Gramoli, Guerraoui, DISC 2009] relaxes
// the default semantics for the search phases of pointer-chasing
// operations: instead of requiring all reads to be mutually consistent
// (one critical step), only each window of consecutive accesses must be
// — the paper's semantics s assigning r(x),r(y) to γ1 and r(y),r(z) to
// γ2 for a sorted-list contains. Operationally (following ε-STM):
//
//   - The read set retains only the last elasticWindow reads (two,
//     ε-STM's read buffer) plus any pinned anchors (a pinned ReadVersion).
//   - On a consistent read (head version <= rv) the window slides.
//   - On an inconsistent read (head version > rv: someone committed to
//     this variable after we started) the transaction attempts a *cut*:
//     it re-timestamps to the current clock and revalidates only the
//     most recent read (the γ partner of the incoming one) and the
//     anchors; all older window entries are dropped — they were each
//     part of a consistent pair when read, which is all the pairwise
//     critical-step semantics requires. This is what accepts the
//     Figure 1 schedule that every monomorphic TM must reject. If the
//     immediate predecessor or an anchor is stale, the binding critical
//     step is unsatisfiable and the transaction aborts.
//   - After the first write, Txn.Write flips tx.written and all
//     subsequent accesses use the default (monomorphic) path; the
//     window at the time of the write — the last two reads, typically
//     the reads that located the write's position, e.g. pred and curr of
//     a sorted-list insert — remains in the read set and is validated
//     at commit, anchoring the write's critical step.

// elasticWindow is the number of trailing unpinned reads an elastic
// transaction retains. Two is the semantics, not a tuning value: one
// critical step covers a pair of consecutive reads.
const elasticWindow = 2

// unpinnedSince counts unpinned read-set entries at index >= floor.
func (tx *Txn) unpinnedSince(floor int) int {
	n := 0
	for i := floor; i < len(tx.rset); i++ {
		if !tx.rset[i].pinned {
			n++
		}
	}
	return n
}

// dropOldestUnpinned removes the first unpinned entry at or above the
// elastic floor, compacting in place. Like cutUnpinned it zeroes the
// slot it vacates: recycle and begin clear a set only up to its length,
// so a stale slot past it would keep its variable and that variable's
// version chain reachable for as long as the shell is pooled.
func (tx *Txn) dropOldestUnpinned() {
	for i := tx.elasticFloor; i < len(tx.rset); i++ {
		if !tx.rset[i].pinned {
			tx.rset = slices.Delete(tx.rset, i, i+1) // zeroes the vacated slot
			return
		}
	}
}

// lastUnpinned returns the index of the newest unpinned entry at or
// above the elastic floor, or -1.
func (tx *Txn) lastUnpinned() int {
	for i := len(tx.rset) - 1; i >= tx.elasticFloor; i-- {
		if !tx.rset[i].pinned {
			return i
		}
	}
	return -1
}

// validateElasticCut checks the entries that must survive a cut: every
// pinned anchor and the most recent unpinned read (the incoming read's
// γ partner).
func (tx *Txn) validateElasticCut() bool {
	for i := range tx.rset {
		if tx.rset[i].pinned && !tx.rset[i].current(tx.id) {
			return false
		}
	}
	if li := tx.lastUnpinned(); li >= 0 {
		return tx.rset[li].current(tx.id)
	}
	return true
}

// cutUnpinned drops every unpinned entry of the current elastic scope
// except the most recent one — the cut itself.
func (tx *Txn) cutUnpinned() {
	li := tx.lastUnpinned()
	out := tx.rset[:0]
	for i := range tx.rset {
		if i < tx.elasticFloor || tx.rset[i].pinned || i == li {
			out = append(out, tx.rset[i])
		}
	}
	clear(tx.rset[len(out):]) // a pooled shell keeps no dropped read alive
	tx.rset = out
}

// readElastic performs one elastic-mode read. A pinned read is anchored:
// it stays in the validated set for the rest of the transaction.
func (tx *Txn) readElastic(v *Var, pinned bool) (*Version, error) {
	for {
		if err := tx.waitUnlocked(v); err != nil {
			return nil, err
		}
		h := v.head.Load()
		if h.ver&stampMask <= tx.rv {
			tx.rset = append(tx.rset, readEntry{v: v, ver: h, pinned: pinned})
			if tx.unpinnedSince(tx.elasticFloor) > elasticWindow {
				tx.dropOldestUnpinned()
			}
			return h, nil
		}
		// Cut: the variable changed since rv. Re-timestamp, keep only
		// the still-binding critical step (anchors + the last read).
		now := tx.eng.clock.Now()
		if !tx.validateElasticCut() {
			tx.stat(statReadAborts)
			tx.abortCleanup()
			return nil, tx.abortConflict("elastic window invalidated", v.ID())
		}
		tx.cutUnpinned()
		tx.rv = now
		tx.stat(statElasticCuts)
	}
}
