package baseline

import "sync"

const skipMaxLevel = 16

// CoarseSkipList is a plain skip list under one mutex — the
// coarse-grained comparator for the skip-list benchmarks.
type CoarseSkipList struct {
	mu   sync.Mutex
	head *skipNode
	seed uint64
}

type skipNode struct {
	key  uint64
	next []*skipNode
}

// NewCoarseSkipList creates an empty coarse-grained skip list.
func NewCoarseSkipList() *CoarseSkipList {
	return &CoarseSkipList{
		head: &skipNode{next: make([]*skipNode, skipMaxLevel)},
		seed: 0x2545f4914f6cdd1d,
	}
}

func (s *CoarseSkipList) randLevel() int {
	s.seed ^= s.seed << 13
	s.seed ^= s.seed >> 7
	s.seed ^= s.seed << 17
	x := s.seed
	lvl := 1
	for x&1 == 1 && lvl < skipMaxLevel {
		lvl++
		x >>= 1
	}
	return lvl
}

func (s *CoarseSkipList) find(key uint64, preds []*skipNode) *skipNode {
	pred := s.head
	var curr *skipNode
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		curr = pred.next[lvl]
		for curr != nil && curr.key < key {
			pred, curr = curr, curr.next[lvl]
		}
		if preds != nil {
			preds[lvl] = pred
		}
	}
	return curr
}

// Insert adds key, returning false if present.
func (s *CoarseSkipList) Insert(key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	preds := make([]*skipNode, skipMaxLevel)
	curr := s.find(key, preds)
	if curr != nil && curr.key == key {
		return false
	}
	lvl := s.randLevel()
	n := &skipNode{key: key, next: make([]*skipNode, lvl)}
	for i := 0; i < lvl; i++ {
		n.next[i] = preds[i].next[i]
		preds[i].next[i] = n
	}
	return true
}

// Remove deletes key, returning false if absent.
func (s *CoarseSkipList) Remove(key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	preds := make([]*skipNode, skipMaxLevel)
	curr := s.find(key, preds)
	if curr == nil || curr.key != key {
		return false
	}
	for i := 0; i < len(curr.next); i++ {
		if preds[i].next[i] == curr {
			preds[i].next[i] = curr.next[i]
		}
	}
	return true
}

// Contains reports whether key is present.
func (s *CoarseSkipList) Contains(key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	curr := s.find(key, nil)
	return curr != nil && curr.key == key
}
