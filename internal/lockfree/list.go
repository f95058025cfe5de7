// Package lockfree implements the hand-tuned lock-free comparators the
// paper's introduction cites: Michael's lock-free linked list ("High
// performance dynamic lock-free hash tables and list-based sets", SPAA
// 2002) and Shalev & Shavit's split-ordered lists ("Split-ordered
// lists: Lock-free extensible hash tables", JACM 2006), the hash table
// the experiments run. These structures are exactly the kind of highly
// tuned, non-generic implementations the paper contrasts with
// transactional ones: fast, but hard to extend (Michael's hash table, a
// fixed array of these lists, famously does not support resize — the
// split-ordered list exists to fix that).
//
// Go cannot steal pointer tag bits safely, so the Harris/Michael mark
// bit is encoded by indirection: each node's successor field is an
// atomic pointer to an immutable link record carrying {next, marked}.
// CASing the pointer replaces both fields atomically, and because a
// fresh record is allocated for every transition, ABA cannot occur.
package lockfree

import "sync/atomic"

// link is one immutable successor record.
type link struct {
	next   *node
	marked bool
}

// node is a list node. The zero key of the head sentinel is never
// compared.
type node struct {
	key  uint64
	next atomic.Pointer[link]
}

// List is Michael's lock-free sorted linked list over uint64 keys
// (an integer set). The zero value is not ready; use NewList.
type List struct {
	head *node
}

// NewList creates an empty lock-free sorted list.
func NewList() *List {
	h := &node{}
	h.next.Store(&link{})
	return &List{head: h}
}

// searchFrom locates the insertion window for key in the sublist
// starting at start (a sentinel or dummy node whose key is not
// compared): pred is the last node with key < target (or start),
// predLink the link observed in pred (guaranteed to point at curr), and
// curr the first unmarked node with key >= target (nil at end). Marked
// nodes on the way are physically unlinked (helping). On interference
// the search restarts from start, which is why split-ordered buckets can
// pass their dummy node here.
func searchFrom(start *node, key uint64) (pred *node, predLink *link, curr *node) {
retry:
	for {
		pred = start
		predLink = pred.next.Load()
		curr = predLink.next
		for curr != nil {
			currLink := curr.next.Load()
			if currLink.marked {
				// Help unlink the logically deleted node.
				newLink := &link{next: currLink.next}
				if !pred.next.CompareAndSwap(predLink, newLink) {
					continue retry
				}
				predLink = newLink
				curr = currLink.next
				continue
			}
			if curr.key >= key {
				return pred, predLink, curr
			}
			pred, predLink, curr = curr, currLink, currLink.next
		}
		return pred, predLink, nil
	}
}

// insertFrom inserts key into the sublist at start. It returns the node
// holding key and whether a new node was inserted (false if the key was
// already present; the existing node is returned, which split-ordered
// bucket initialization relies on for dummy nodes).
func insertFrom(start *node, key uint64) (*node, bool) {
	for {
		pred, predLink, curr := searchFrom(start, key)
		if curr != nil && curr.key == key {
			return curr, false
		}
		n := &node{key: key}
		n.next.Store(&link{next: curr})
		if pred.next.CompareAndSwap(predLink, &link{next: n}) {
			return n, true
		}
	}
}

// removeFrom deletes key from the sublist at start, returning false if
// absent. Deletion is logical (mark) then physical (best-effort unlink;
// lagging unlinks are completed by later searches).
func removeFrom(start *node, key uint64) bool {
	for {
		pred, predLink, curr := searchFrom(start, key)
		if curr == nil || curr.key != key {
			return false
		}
		currLink := curr.next.Load()
		if currLink.marked {
			continue // concurrent removal in progress; re-search
		}
		if !curr.next.CompareAndSwap(currLink, &link{next: currLink.next, marked: true}) {
			continue
		}
		// Best-effort physical unlink; failure is fine.
		pred.next.CompareAndSwap(predLink, &link{next: currLink.next})
		return true
	}
}

// containsFrom reports whether key is present in the sublist at start.
// The traversal is wait-free: it never helps, never retries, and
// ignores marked nodes.
func containsFrom(start *node, key uint64) bool {
	curr := start.next.Load().next
	for curr != nil && curr.key < key {
		curr = curr.next.Load().next
	}
	if curr == nil || curr.key != key {
		return false
	}
	return !curr.next.Load().marked
}

// Insert adds key, returning false if it was already present.
func (l *List) Insert(key uint64) bool {
	_, inserted := insertFrom(l.head, key)
	return inserted
}

// Remove deletes key, returning false if it was absent.
func (l *List) Remove(key uint64) bool { return removeFrom(l.head, key) }

// Contains reports whether key is present.
func (l *List) Contains(key uint64) bool { return containsFrom(l.head, key) }
