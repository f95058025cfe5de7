// Package structures provides the transactional data structures the
// paper's introduction motivates, built purely on the polymorphic
// transaction API of internal/core: a sorted linked list, a hash table
// that — unlike Michael's lock-free one — supports resize, a skip list,
// an ordered string map over the same skip-list core, and a FIFO queue.
// The integer sets take an operation semantics at construction, so the
// same code runs monomorphically (Def everywhere: what a classical STM
// gives you) or polymorphically (Weak searches that elastically cut
// their read prefix, exactly Figure 1's p1); the map takes one per
// operation.
//
// Every operation runs in a transaction and retries internally on
// conflict; operations therefore compose: call them inside an enclosing
// tm.Atomic and they become nested scopes governed by the TM's nesting
// policy.
package structures

import (
	"fmt"

	"polytm/internal/core"
)

// must panics on impossible engine errors. Structure operations run
// with unbounded retry, so the only error a transaction body can
// surface is a programming error in the structure itself.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("structures: unexpected transaction error: %v", err))
	}
}

// snapshotLen runs count as one snapshot transaction. No structure keeps
// a size variable — one would make every two updates conflict, however
// far apart their keys — so a count is a walk: O(n), but it never aborts
// and records no read set.
func snapshotLen(tm *core.TM, count func(*core.Tx) (int, error)) int {
	var n int
	must(tm.AtomicAs(core.Snapshot, func(tx *core.Tx) error {
		var err error
		n, err = count(tx)
		return err
	}))
	return n
}

// listNode is one node of a sorted chain. Nodes are immutable except
// for their next pointer, which lives in a TVar.
type listNode struct {
	key  uint64
	next *core.TVar[*listNode]
}

// chainSearch walks the sorted chain at head inside tx, returning the
// first node with key >= target (nil at the end) and the variable that
// points at it: head itself or its predecessor's next.
func chainSearch(tx *core.Tx, head *core.TVar[*listNode], key uint64) (link *core.TVar[*listNode], curr *listNode, err error) {
	link = head
	curr, err = core.Get(tx, head)
	for err == nil && curr != nil && curr.key < key {
		link = curr.next
		curr, err = core.Get(tx, link)
	}
	return link, curr, err
}

// chainWalk calls fn on every key of the chain at head, in order, inside
// tx.
func chainWalk(tx *core.Tx, head *core.TVar[*listNode], fn func(key uint64)) error {
	curr, err := core.Get(tx, head)
	for err == nil && curr != nil {
		fn(curr.key)
		curr, err = core.Get(tx, curr.next)
	}
	return err
}

// chainInsert links a node for key into the chain at head, reporting
// false if key was already there.
func chainInsert(tx *core.Tx, tm *core.TM, head *core.TVar[*listNode], key uint64) (bool, error) {
	link, curr, err := chainSearch(tx, head, key)
	if err != nil || (curr != nil && curr.key == key) {
		return false, err
	}
	return true, core.Set(tx, link, &listNode{key: key, next: core.NewTVar(tm, curr)})
}

// chainRemove unlinks key from the chain at head, reporting false if key
// was absent.
func chainRemove(tx *core.Tx, head *core.TVar[*listNode], key uint64) (bool, error) {
	link, curr, err := chainSearch(tx, head, key)
	if err != nil || curr == nil || curr.key != key {
		return false, err
	}
	next, err := core.Get(tx, curr.next)
	if err != nil {
		return false, err
	}
	if err := core.Set(tx, link, next); err != nil {
		return false, err
	}
	// Mark the removed node by rewriting its next pointer with the same
	// value: structurally a no-op, but it bumps the variable's version
	// so any concurrent elastic operation whose window includes curr
	// (e.g. a remove of curr's successor that already slid pred out of
	// its window) conflicts and retries instead of updating an unlinked
	// node.
	return true, core.Set(tx, curr.next, next)
}

// chainApply runs a set operation on the chain at head (see setBody).
func chainApply(tx *core.Tx, tm *core.TM, head *core.TVar[*listNode], op setOp, key uint64) (bool, error) {
	switch op {
	case opInsert:
		return chainInsert(tx, tm, head, key)
	case opRemove:
		return chainRemove(tx, head, key)
	}
	_, curr, err := chainSearch(tx, head, key)
	return err == nil && curr != nil && curr.key == key, err
}

// TList is a transactional sorted linked list implementing an integer
// set — the paper's running example: one sorted chain. With Weak
// operation semantics its searches are elastic: the traversal keeps
// only a pairwise-consistent window, so writers behind the search never
// abort it (Figure 1).
type TList struct {
	intSet
	head *core.TVar[*listNode]
}

// NewTList creates an empty list whose operations run with semantics
// sem (core.Weak for elastic searches, core.Def for monomorphic).
func NewTList(tm *core.TM, sem core.Semantics) *TList {
	l := &TList{head: core.NewTVar[*listNode](tm, nil)}
	l.intSet = newIntSet(tm, sem, sem, l)
	return l
}

func (l *TList) apply(tx *core.Tx, op setOp, key uint64) (bool, error) {
	return chainApply(tx, l.tm, l.head, op, key)
}

// Sum returns the sum of all keys in one atomic snapshot read — a whole
// structure scan, the kind of operation Snapshot semantics exists for.
func (l *TList) Sum() uint64 {
	var sum uint64
	must(l.tm.AtomicAs(core.Snapshot, func(tx *core.Tx) error {
		sum = 0
		return chainWalk(tx, l.head, func(k uint64) { sum += k })
	}))
	return sum
}

// Snapshot returns the keys in order, read atomically.
func (l *TList) Snapshot() []uint64 {
	var out []uint64
	must(l.tm.AtomicAs(core.Snapshot, func(tx *core.Tx) error {
		out = out[:0]
		return chainWalk(tx, l.head, func(k uint64) { out = append(out, k) })
	}))
	return out
}
