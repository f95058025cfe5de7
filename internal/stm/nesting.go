package stm

// Nested-transaction support: flat (subsumption) nesting with a
// semantics-composition stack. The paper's concluding remarks ask
// "what should be the semantics of a nested transaction? the semantics
// indicated by its parameter as if it was not nested, the parent
// transaction semantics, or the strongest of the two?" — the core layer
// implements all three policies; this file provides the mechanism: a
// per-transaction stack of effective semantics that the read and write
// paths consult.
//
// Composition rules enforced here rather than by policy:
//
//   - An irrevocable transaction can never weaken: its reads are
//     untracked, made safe by the commit gate rather than by
//     validation, and an optimistic scope's accesses could only be
//     validated by aborting — forfeiting the no-abort guarantee — so
//     every nested scope of an irrevocable transaction is irrevocable.
//   - SemanticsSnapshot applies only as an outermost semantics (its read
//     timestamp registration happens at begin); a nested snapshot scope
//     inside an optimistic transaction is handled as SemanticsDef.
//   - A def scope inside a weak transaction forms one critical step of
//     the surrounding elastic operation: its reads are fully tracked
//     while the scope is active (no window sliding), and are all
//     mutually consistent at the transaction's read timestamp. After the
//     scope pops, elastic sliding may drop them — by then the scope's
//     single critical step has already been atomic at the read
//     timestamp, which is what the polymorphic model requires.
type semFrame struct {
	sem Semantics
	// savedFloor is the elastic floor to restore on pop; entries of the
	// read set below the floor belong to enclosing scopes and must never
	// be dropped by elastic window sliding.
	savedFloor int
}

type semStack struct {
	stack []semFrame
}

// PushMode enters a nested scope with effective semantics s. The
// caller (package core) is responsible for computing s from the nesting
// policy; PushMode only enforces the hard rules above.
func (tx *Txn) PushMode(s Semantics) {
	tx.modes.stack = append(tx.modes.stack, semFrame{sem: s, savedFloor: tx.elasticFloor})
	if s == SemanticsWeak {
		// A fresh elastic scope: its window starts empty and sliding may
		// not reach into the enclosing scope's tracked reads.
		tx.elasticFloor = len(tx.rset)
	}
}

// PopMode leaves the innermost nested scope. Popping an empty stack is
// a no-op (defensive).
func (tx *Txn) PopMode() {
	if n := len(tx.modes.stack); n > 0 {
		tx.elasticFloor = tx.modes.stack[n-1].savedFloor
		tx.modes.stack = tx.modes.stack[:n-1]
	}
}

// effective returns the semantics governing the next access.
func (tx *Txn) effective() Semantics {
	if tx.sem == SemanticsIrrevocable {
		return SemanticsIrrevocable
	}
	if n := len(tx.modes.stack); n > 0 {
		s := tx.modes.stack[n-1].sem
		if s == SemanticsSnapshot && tx.sem != SemanticsSnapshot {
			return SemanticsDef
		}
		return s
	}
	return tx.sem
}

// EffectiveSemantics exposes the current effective semantics (for tests
// and diagnostics).
func (tx *Txn) EffectiveSemantics() Semantics { return tx.effective() }
