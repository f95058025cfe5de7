package structures

import (
	"cmp"
	"math/rand/v2"

	"polytm/internal/core"
)

// skipMaxLevel bounds tower height for both skip structures; at
// p = 1/4 sixteen levels index 4^16 keys.
const skipMaxLevel = 16

// randLevel draws a tower height in [1, skipMaxLevel], geometric with
// p = 1/4: each further level costs two random bits, so three nodes in
// four have one link and the mean is 1.33. Pugh's analysis gives p = 1/4
// the same expected search cost as p = 1/2 for a third fewer links, and
// here every link saved is a transactional variable and its version
// record. The bits come from the runtime's per-thread generator, so
// inserting goroutines share no state to draw them.
func randLevel() int {
	x := rand.Uint64()
	lvl := 1
	for x&3 == 3 && lvl < skipMaxLevel {
		lvl++
		x >>= 2
	}
	return lvl
}

// newTower builds the link variables of an unlinked node of height lvl,
// level l pointing at succs[l]. A skip node owns its tower by value —
// one backing array, not a pointer and a separate variable per level.
func newTower[N any](tm *core.TM, lvl int, succs []*N) []core.TVar[*N] {
	tower := make([]core.TVar[*N], lvl)
	for l := range tower {
		tower[l].Init(tm, succs[l])
	}
	return tower
}

// skipNode is one node of a skip core. val sits between key and the
// tower so that a zero-size V (the integer set's struct{}) adds no
// padding: the set's node is 32 bytes, the map's 64.
type skipNode[K cmp.Ordered, V any] struct {
	key  K
	val  V
	next []core.TVar[*skipNode[K, V]]
}

// The two instantiations: TSkipMap's node holds its value variable by
// value, in the node's own allocation; TSkipList's holds nothing.
type (
	mapNode = skipNode[string, core.TVar[string]]
	setNode = skipNode[uint64, struct{}]
)

// skipCore is the skip list both skip structures are made of (Pugh): the
// sentinel and the one search, link, unlink and count every operation of
// either goes through. It keeps no size variable: a count is a walk of
// the bottom level (see snapshotLen), and no height stream: randLevel
// draws from the runtime's generator.
type skipCore[K cmp.Ordered, V any] struct {
	tm   *core.TM
	head *skipNode[K, V] // sentinel; key unused
}

func (c *skipCore[K, V]) init(tm *core.TM) {
	var nils [skipMaxLevel]*skipNode[K, V]
	c.tm, c.head = tm, &skipNode[K, V]{next: newTower(tm, skipMaxLevel, nils[:])}
}

// search descends to key inside tx and returns the first node with key
// >= key at the bottom level (nil at the end). When preds and succs are
// non-nil it fills them per level for a following link or unlink; a
// lookup passes nil for both.
func (c *skipCore[K, V]) search(tx *core.Tx, key K, preds, succs []*skipNode[K, V]) (*skipNode[K, V], error) {
	pred := c.head
	var curr *skipNode[K, V]
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		var err error
		curr, err = core.Get(tx, &pred.next[lvl])
		if err != nil {
			return nil, err
		}
		for curr != nil && curr.key < key {
			next, err := core.Get(tx, &curr.next[lvl])
			if err != nil {
				return nil, err
			}
			pred, curr = curr, next
		}
		if preds != nil {
			preds[lvl] = pred
			succs[lvl] = curr
		}
	}
	return curr, nil
}

// link inserts a node holding key, which search just placed between
// preds and succs, and returns it with val still zero. The caller fills
// val in place before tx commits: every write of tx is buffered until
// then (an irrevocable one's too), so no other transaction can reach
// the node earlier.
func (c *skipCore[K, V]) link(tx *core.Tx, key K, preds, succs []*skipNode[K, V]) (*skipNode[K, V], error) {
	n := &skipNode[K, V]{key: key, next: newTower(c.tm, randLevel(), succs)}
	for i := range n.next {
		if err := core.Set(tx, &preds[i].next[i], n); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// unlink removes succs[0], which search just found, from every level it
// is linked at.
func (c *skipCore[K, V]) unlink(tx *core.Tx, preds, succs []*skipNode[K, V]) error {
	target := succs[0]
	for i := range target.next {
		if succs[i] != target {
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
	return nil
}

// count walks the bottom level inside tx from n, n included (nil counts
// nothing), and returns how many nodes it passed.
func (c *skipCore[K, V]) count(tx *core.Tx, n *skipNode[K, V]) (k int, err error) {
	for ; n != nil && err == nil; k++ {
		n, err = core.Get(tx, &n.next[0])
	}
	return k, err
}

// length counts the keys inside tx (see setBody).
func (c *skipCore[K, V]) length(tx *core.Tx) (int, error) {
	first, err := core.Get(tx, &c.head.next[0])
	if err != nil {
		return 0, err
	}
	return c.count(tx, first)
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
	intSet
	skipCore[uint64, struct{}]
}

// NewTSkipList creates an empty skip list whose searches use sem.
func NewTSkipList(tm *core.TM, sem core.Semantics) *TSkipList {
	s := &TSkipList{}
	s.skipCore.init(tm)
	s.intSet = newIntSet(tm, sem, core.Def, s)
	return s
}

func (s *TSkipList) apply(tx *core.Tx, op setOp, key uint64) (bool, error) {
	if op == opContains {
		n, err := s.search(tx, key, nil, nil)
		return err == nil && n != nil && n.key == key, err
	}
	// Stack-resident search results: search and link only read and fill
	// the slices, so they never escape (no per-op allocation).
	var preds, succs [skipMaxLevel]*setNode
	n, err := s.search(tx, key, preds[:], succs[:])
	if err != nil {
		return false, err
	}
	found := n != nil && n.key == key
	switch {
	case op == opInsert && !found:
		_, err = s.link(tx, key, preds[:], succs[:])
		return true, err
	case op == opRemove && found:
		return true, s.unlink(tx, preds[:], succs[:])
	}
	return false, nil
}
