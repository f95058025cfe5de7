package baseline

import (
	"sync"
	"sync/atomic"
)

// LazyList is the lazy synchronization list of Heller, Herlihy, Luchangco,
// Moir, Scherer & Shavit: per-node locks, logical deletion via a marked
// bit, optimistic traversal with post-lock validation, and a wait-free
// Contains. It is the hand-tuned fine-grained lock-based set the paper's
// introduction contrasts with generic transactional code — fast, but its
// hand-over-hand reasoning is exactly the pairwise critical-step
// semantics of Figure 1.
type LazyList struct {
	head *lnode // sentinel with minimal key semantics (never compared)
	tail *lnode // sentinel treated as +inf (never compared)
}

type lnode struct {
	key    uint64
	mu     sync.Mutex
	marked atomic.Bool
	next   atomic.Pointer[lnode]
}

// NewLazyList creates an empty lazy list.
func NewLazyList() *LazyList {
	tail := &lnode{}
	head := &lnode{}
	head.next.Store(tail)
	return &LazyList{head: head, tail: tail}
}

// find returns (pred, curr) where curr is the first real node with
// key >= target, or the tail sentinel.
func (l *LazyList) find(key uint64) (*lnode, *lnode) {
	pred := l.head
	curr := pred.next.Load()
	for curr != l.tail && curr.key < key {
		pred, curr = curr, curr.next.Load()
	}
	return pred, curr
}

// validate checks the lazy-list invariant after locking: neither node is
// marked and pred still points to curr.
func (l *LazyList) validate(pred, curr *lnode) bool {
	return !pred.marked.Load() && !curr.marked.Load() && pred.next.Load() == curr
}

// Insert adds key, returning false if present.
func (l *LazyList) Insert(key uint64) bool {
	for {
		pred, curr := l.find(key)
		pred.mu.Lock()
		curr.mu.Lock()
		if l.validate(pred, curr) {
			if curr != l.tail && curr.key == key {
				curr.mu.Unlock()
				pred.mu.Unlock()
				return false
			}
			n := &lnode{key: key}
			n.next.Store(curr)
			pred.next.Store(n)
			curr.mu.Unlock()
			pred.mu.Unlock()
			return true
		}
		curr.mu.Unlock()
		pred.mu.Unlock()
	}
}

// Remove deletes key, returning false if absent. Deletion is logical
// (mark) then physical (unlink), both under the two locks.
func (l *LazyList) Remove(key uint64) bool {
	for {
		pred, curr := l.find(key)
		pred.mu.Lock()
		curr.mu.Lock()
		if l.validate(pred, curr) {
			if curr == l.tail || curr.key != key {
				curr.mu.Unlock()
				pred.mu.Unlock()
				return false
			}
			curr.marked.Store(true)
			pred.next.Store(curr.next.Load())
			curr.mu.Unlock()
			pred.mu.Unlock()
			return true
		}
		curr.mu.Unlock()
		pred.mu.Unlock()
	}
}

// Contains reports whether key is present. It is wait-free: one
// traversal, no locks, no retries — the marked bit carries the pairwise
// atomicity argument.
func (l *LazyList) Contains(key uint64) bool {
	curr := l.head.next.Load()
	for curr != l.tail && curr.key < key {
		curr = curr.next.Load()
	}
	return curr != l.tail && curr.key == key && !curr.marked.Load()
}
