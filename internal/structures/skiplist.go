package structures

import (
	"context"
	"sync/atomic"

	"polytm/internal/core"
)

// skipMaxLevel bounds tower height for both skip structures; at
// p = 1/4 sixteen levels index 4^16 keys.
const skipMaxLevel = 16

// randLevel draws a tower height in [1, skipMaxLevel], geometric with
// p = 1/4, from the lock-free splitmix64 stream seed: each further
// level costs two random bits, so three nodes in four have one link and
// the mean is 1.33. Pugh's analysis gives p = 1/4 the same expected
// search cost as p = 1/2 for a third fewer links, and here every link
// saved is a transactional variable and its version record.
func randLevel(seed *atomic.Uint64) int {
	x := seed.Add(0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	lvl := 1
	for x&3 == 3 && lvl < skipMaxLevel {
		lvl++
		x >>= 2
	}
	return lvl
}

// TSkipList is a transactional skip list integer set. Searches
// (Contains) run with the structure's configured semantics — elastic
// searches skim the index levels without dragging a read set behind
// them. Updates always run under Def semantics: an insert or remove
// links at several levels at once, and its correctness needs every
// predecessor it read to be validated, which is precisely the "safest
// semantics" the paper's def denotes. Choosing semantics per operation
// like this is the paper's polymorphism put to work inside one
// structure.
type TSkipList struct {
	tm   *core.TM
	head *slNode // sentinel; key unused
	size *core.TVar[int]
	sem  core.Semantics
	seed atomic.Uint64
}

// newTower builds the link variables of an unlinked node of height lvl,
// level l pointing at succs[l]. Both skip structures' nodes own their
// tower by value — one backing array, not a pointer and a separate
// variable per level.
func newTower[N any](tm *core.TM, lvl int, succs []*N) []core.TVar[*N] {
	tower := make([]core.TVar[*N], lvl)
	for l := range tower {
		tower[l].Init(tm, succs[l])
	}
	return tower
}

type slNode struct {
	key  uint64
	next []core.TVar[*slNode]
}

// NewTSkipList creates an empty skip list whose searches use sem.
func NewTSkipList(tm *core.TM, sem core.Semantics) *TSkipList {
	var nils [skipMaxLevel]*slNode
	head := &slNode{next: newTower(tm, skipMaxLevel, nils[:])}
	s := &TSkipList{tm: tm, head: head, size: core.NewTVar(tm, 0), sem: sem}
	s.seed.Store(0x9e3779b97f4a7c15)
	return s
}

// search fills preds/succs per level for key inside tx.
func (s *TSkipList) search(tx *core.Tx, key uint64, preds []*slNode, succs []*slNode) error {
	pred := s.head
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		curr, err := core.Get(tx, &pred.next[lvl])
		if err != nil {
			return err
		}
		for curr != nil && curr.key < key {
			next, err := core.Get(tx, &curr.next[lvl])
			if err != nil {
				return err
			}
			pred, curr = curr, next
		}
		if preds != nil {
			preds[lvl] = pred
			succs[lvl] = curr
		}
	}
	return nil
}

// Contains reports whether key is in the set.
func (s *TSkipList) Contains(key uint64) bool {
	found, err := s.ContainsCtx(context.Background(), key)
	must(err)
	return found
}

// ContainsCtx is Contains bounded by ctx; cancellation surfaces as an
// error matching stm.ErrCancelled.
func (s *TSkipList) ContainsCtx(ctx context.Context, key uint64) (bool, error) {
	var found bool
	err := s.tm.AtomicAsCtx(ctx, s.sem, func(tx *core.Tx) error {
		pred := s.head
		var curr *slNode
		for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
			var err error
			curr, err = core.Get(tx, &pred.next[lvl])
			if err != nil {
				return err
			}
			for curr != nil && curr.key < key {
				next, err := core.Get(tx, &curr.next[lvl])
				if err != nil {
					return err
				}
				pred, curr = curr, next
			}
		}
		found = curr != nil && curr.key == key
		return nil
	})
	return found, err
}

// Insert adds key, returning false if present. Runs under Def.
func (s *TSkipList) Insert(key uint64) bool {
	added, err := s.InsertCtx(context.Background(), key)
	must(err)
	return added
}

// InsertCtx is Insert bounded by ctx; a cancelled insert's writes are
// discarded, never partially applied.
func (s *TSkipList) InsertCtx(ctx context.Context, key uint64) (bool, error) {
	lvl := randLevel(&s.seed)
	var added bool
	err := s.tm.AtomicAsCtx(ctx, core.Def, func(tx *core.Tx) error {
		// Stack-resident search results: search only fills the slices,
		// so they never escape (no per-op allocation).
		var predsArr, succsArr [skipMaxLevel]*slNode
		preds, succs := predsArr[:], succsArr[:]
		if err := s.search(tx, key, preds, succs); err != nil {
			return err
		}
		if succs[0] != nil && succs[0].key == key {
			added = false
			return nil
		}
		n := &slNode{key: key, next: newTower(s.tm, lvl, succs)}
		for i := 0; i < lvl; i++ {
			if err := core.Set(tx, &preds[i].next[i], n); err != nil {
				return err
			}
		}
		added = true
		return core.Modify(tx, s.size, func(v int) int { return v + 1 })
	})
	return added, err
}

// Remove deletes key, returning false if absent. Runs under Def.
func (s *TSkipList) Remove(key uint64) bool {
	removed, err := s.RemoveCtx(context.Background(), key)
	must(err)
	return removed
}

// RemoveCtx is Remove bounded by ctx; a cancelled remove's writes are
// discarded, never partially applied.
func (s *TSkipList) RemoveCtx(ctx context.Context, key uint64) (bool, error) {
	var removed bool
	err := s.tm.AtomicAsCtx(ctx, core.Def, func(tx *core.Tx) error {
		var predsArr, succsArr [skipMaxLevel]*slNode
		preds, succs := predsArr[:], succsArr[:]
		if err := s.search(tx, key, preds, succs); err != nil {
			return err
		}
		target := succs[0]
		if target == nil || target.key != key {
			removed = false
			return nil
		}
		for i := 0; i < len(target.next); i++ {
			if preds[i] == nil || succs[i] != target {
				continue
			}
			next, err := core.Get(tx, &target.next[i])
			if err != nil {
				return err
			}
			if err := core.Set(tx, &preds[i].next[i], next); err != nil {
				return err
			}
		}
		removed = true
		return core.Modify(tx, s.size, func(v int) int { return v - 1 })
	})
	return removed, err
}

// Len returns the element count.
func (s *TSkipList) Len() int {
	n, err := core.AtomicGet(s.tm, s.size)
	must(err)
	return n
}
