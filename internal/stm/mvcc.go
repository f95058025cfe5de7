package stm

// Snapshot read path (SemanticsSnapshot).
//
// A snapshot transaction reads the committed state at its start
// timestamp by resolving each read against the variable's version chain.
// It therefore never aborts and never interferes with writers — the
// per-transaction liveness guarantee the paper lists as an application
// of polymorphism, and the "multi versioned" semantics of its concluding
// composition question. The engine-wide composition rule that makes this
// safe next to single-version writers: every writer preserves the
// overwritten version on the chain for as long as a registered snapshot
// reader may need it (see snapshotRegistry and retainHistory), and the
// last reader that needed it releases it (see owedQueue).

// readSnapshot performs one snapshot-mode read.
//
// If the variable is locked, a writer may be mid-publish with a commit
// timestamp taken BEFORE this snapshot started (it locks its write set
// before ticking the clock), so the current head might not yet show a
// version the snapshot must observe. Waiting for the unlock closes that
// window: afterwards, every in-flight commit has a timestamp greater
// than rv and is correctly skipped by the chain resolution. Every
// committer, an irrevocable one included, holds its locks only across
// its short commit window, so a snapshot reader never waits for a
// transaction's body.
func (tx *Txn) readSnapshot(v *Var) (*Version, error) {
	if err := tx.waitUnlocked(v); err != nil {
		return nil, err
	}
	h := v.head.Load()
	res := h.resolveAt(tx.rv)
	if res == nil {
		// Defensive: cannot happen for a registered snapshot (writers
		// never trim versions a registered reader needs), but fail safe.
		tx.stat(statReadAborts)
		tx.abortCleanup()
		return nil, tx.abortConflict("snapshot history trimmed", v.ID())
	}
	if res != h {
		tx.stat(statSnapshotReads)
	}
	return res, nil
}
