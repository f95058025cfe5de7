package stm

// Version is one immutable committed state of a transactional variable.
// Versions form a singly linked chain from newest (the variable's head)
// to oldest. The chain exists so that snapshot-semantics readers can
// resolve reads against the committed state at their start timestamp —
// this is the composition rule the paper's concluding remarks call for:
// "a multi versioned transaction could not return stale data if a singly
// versioned transaction does not backup data when overwriting it". In
// this engine every writer backs up the overwritten version for as long
// as any active snapshot transaction may need it.
//
// The record is allocated by whoever writes, not by commit: a write hands
// the engine a fresh, unstamped record (Txn.WriteVersion; Txn.Write and
// NewVar make one for an untyped value), it rides the write set, and
// commit stamps and installs that very record (Var.install, the one
// place a record gets its timestamp and its link). A record belongs to
// one write of one variable: it must never be handed to the engine
// twice, and its value and timestamp never change once it is installed.
// An attempt that aborts simply drops its records.
//
// Because the writer allocates, the record may be the first field of a
// larger typed cell that also stores the value: package core embeds
// Version in cell[T]{Version; v T} and Holds &cell.v, so a committed
// write of a non-pointer T is one heap object instead of a Version plus
// the box behind val (a string written from borrowed bytes goes one
// further: core.SetBytes keeps the bytes in the cell too). The engine
// never looks past the Version header; a chain freely mixes cells and
// plain records.
type Version struct {
	val  any
	ver  uint64
	prev *Version
}

// Hold sets the value of a record that has not been handed to the engine
// yet, and returns the record.
func (v *Version) Hold(val any) *Version {
	v.val = val
	return v
}

// Value returns the committed value held by this version.
func (v *Version) Value() any { return v.val }

// Timestamp returns the commit timestamp of this version.
func (v *Version) Timestamp() uint64 { return v.ver }

// resolveAt returns the newest version in the chain whose timestamp is
// <= at, or nil if the chain has been trimmed past that point (which the
// snapshot registry guarantees cannot happen for registered snapshots).
func (v *Version) resolveAt(at uint64) *Version {
	for cur := v; cur != nil; cur = cur.prev {
		if cur.ver <= at {
			return cur
		}
	}
	return nil
}

// retainHistory decides what of the overwritten chain a writer committing
// at timestamp wv must keep: nothing, if no live snapshot reader can need
// a version older than wv; otherwise the chain trimmed to the oldest
// timestamp still needed.
func retainHistory(old *Version, wv, needed uint64) *Version {
	if needed >= wv {
		return nil
	}
	return old.trimmed(needed)
}

// trimmed returns the chain headed by v with every version strictly older
// than needed removed, where needed is the oldest timestamp any active
// snapshot reader may still request. The newest version with ver <=
// needed is kept (it is the one such a reader resolves to); everything
// older is unlinked so the garbage collector can reclaim it.
func (v *Version) trimmed(needed uint64) *Version {
	for cur := v; cur != nil; cur = cur.prev {
		if cur.ver <= needed {
			cur.prev = nil
			return v
		}
	}
	return v
}
