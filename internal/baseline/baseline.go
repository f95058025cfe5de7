// Package baseline implements the lock-based comparator structures for
// the benchmark suite: a coarse-grained (single-mutex) sorted list, the
// lazy list of Heller et al. (fine-grained per-node locking with
// wait-free contains — the tuned lock-based set the paper contrasts
// with transactions), a coarse-grained resizable hash set, a
// lock-striped resizable hash set, and a coarse-grained skip list.
package baseline

import "sync"

// --- coarse list -------------------------------------------------------

type cnode struct {
	key  uint64
	next *cnode
}

// CoarseList is a sorted linked list protected by one mutex.
type CoarseList struct {
	mu   sync.Mutex
	head *cnode
}

// NewCoarseList creates an empty coarse-grained list.
func NewCoarseList() *CoarseList { return &CoarseList{} }

// Insert adds key, returning false if present.
func (l *CoarseList) Insert(key uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	var pred *cnode
	curr := l.head
	for curr != nil && curr.key < key {
		pred, curr = curr, curr.next
	}
	if curr != nil && curr.key == key {
		return false
	}
	n := &cnode{key: key, next: curr}
	if pred == nil {
		l.head = n
	} else {
		pred.next = n
	}
	return true
}

// Remove deletes key, returning false if absent.
func (l *CoarseList) Remove(key uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	var pred *cnode
	curr := l.head
	for curr != nil && curr.key < key {
		pred, curr = curr, curr.next
	}
	if curr == nil || curr.key != key {
		return false
	}
	if pred == nil {
		l.head = curr.next
	} else {
		pred.next = curr.next
	}
	return true
}

// Contains reports whether key is present.
func (l *CoarseList) Contains(key uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	curr := l.head
	for curr != nil && curr.key < key {
		curr = curr.next
	}
	return curr != nil && curr.key == key
}
