package structures

import (
	"context"

	"polytm/internal/core"
)

// setOp names one integer-set operation.
type setOp uint8

const (
	opContains setOp = iota
	opInsert
	opRemove
)

// setBody is what an integer set writes itself: one body that runs op on
// key inside tx and reports what the operation returns — found for
// Contains, added for Insert, removed for Remove.
type setBody interface {
	apply(tx *core.Tx, op setOp, key uint64) (bool, error)
}

// intSet is the front end the integer sets share: the plain, Ctx and Tx
// forms of Contains, Insert and Remove, written once over a structure's
// setBody. Searches run under searchSem and updates under
// updateSem — the same semantics for TList and THash, Def updates for
// TSkipList.
type intSet struct {
	tm                   *core.TM
	searchSem, updateSem core.Semantics
	body                 setBody
}

func newIntSet(tm *core.TM, searchSem, updateSem core.Semantics, body setBody) intSet {
	return intSet{tm: tm, searchSem: searchSem, updateSem: updateSem, body: body}
}

// run runs op as its own transaction bounded by ctx or, when tx is
// non-nil, as a scope nested in tx whose semantics the TM's nesting
// policy composes from the enclosing semantics and sem; a nested scope
// runs under the enclosing run's context, so ctx is unused there.
func (s *intSet) run(ctx context.Context, tx *core.Tx, sem core.Semantics, op setOp, key uint64) (out bool, err error) {
	body := func(tx *core.Tx) error {
		var err error
		out, err = s.body.apply(tx, op, key)
		return err
	}
	if tx != nil {
		err = tx.AtomicAs(sem, body)
	} else {
		err = s.tm.AtomicAsCtx(ctx, sem, body)
	}
	return out, err
}

// Contains reports whether key is in the set.
func (s *intSet) Contains(key uint64) bool {
	found, err := s.ContainsCtx(context.Background(), key)
	must(err)
	return found
}

// ContainsCtx is Contains bounded by ctx: cancellation aborts the
// operation's retry loop and surfaces as an error matching
// stm.ErrCancelled; the structure is untouched.
func (s *intSet) ContainsCtx(ctx context.Context, key uint64) (bool, error) {
	return s.run(ctx, nil, s.searchSem, opContains, key)
}

// ContainsTx is Contains inside an enclosing transaction; the operation
// becomes a nested scope whose semantics the TM's nesting policy
// composes from the enclosing semantics and the set's own.
func (s *intSet) ContainsTx(tx *core.Tx, key uint64) (bool, error) {
	return s.run(context.TODO(), tx, s.searchSem, opContains, key)
}

// Insert adds key, returning false if it was already present. Like
// Remove, it runs under the set's updates semantics (Def for TSkipList).
func (s *intSet) Insert(key uint64) bool {
	added, err := s.InsertCtx(context.Background(), key)
	must(err)
	return added
}

// InsertCtx is Insert bounded by ctx; a cancelled insert's writes are
// discarded, never partially applied.
func (s *intSet) InsertCtx(ctx context.Context, key uint64) (bool, error) {
	return s.run(ctx, nil, s.updateSem, opInsert, key)
}

// InsertTx is Insert inside an enclosing transaction.
func (s *intSet) InsertTx(tx *core.Tx, key uint64) (bool, error) {
	return s.run(context.TODO(), tx, s.updateSem, opInsert, key)
}

// Remove deletes key, returning false if it was absent.
func (s *intSet) Remove(key uint64) bool {
	removed, err := s.RemoveCtx(context.Background(), key)
	must(err)
	return removed
}

// RemoveCtx is Remove bounded by ctx; a cancelled remove's writes are
// discarded, never partially applied.
func (s *intSet) RemoveCtx(ctx context.Context, key uint64) (bool, error) {
	return s.run(ctx, nil, s.updateSem, opRemove, key)
}

// RemoveTx is Remove inside an enclosing transaction.
func (s *intSet) RemoveTx(tx *core.Tx, key uint64) (bool, error) {
	return s.run(context.TODO(), tx, s.updateSem, opRemove, key)
}
