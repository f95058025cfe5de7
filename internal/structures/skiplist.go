package structures

import (
	"cmp"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"unsafe"

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

// skipNode is one node of a skip core: its value and one word, kh,
// packing its height, where its key sits in the node's object and, for
// a key stored as bytes, the key's length. Its tower — link variables,
// level 0 first — and then its key ride in the same object right after
// it (see newNode): a node, its links and its key are one allocation.
// val comes first so that a zero-size V (the integer set's struct{})
// adds no padding: the set's node is 8 bytes, the map's 24.
type skipNode[K cmp.Ordered, V any] struct {
	val V
	kh  uint64
}

// kh holds, low bits first, the height (8 bits), the key's byte offset
// in the node's object (16 bits), then an inline key's length plus one.
// Zero there means a K sits at the offset: the set's integer, or a
// string key too long to inline, holding its own out-of-line copy.
// Otherwise the key is a string whose bytes sit at the offset.
const offShift, lenShift = 8, 24

// tower is the Go type a node is allocated as: the node, an array A of
// at least its height in links, then its key's storage T. Being a real
// type, its every link is a pointer the collector scans (and so is an
// out-of-line key's), and a link's address is its variable's identity.
type tower[K cmp.Ordered, V, A, T any] struct {
	skipNode[K, V]
	links A
	tail  T
}

// height returns how many links n has.
func (n *skipNode[K, V]) height() int { return int(uint8(n.kh)) }

// key returns n's key. An inline key is a string viewing n's own bytes,
// so it aliases n: it keeps the whole node alive as long as it is held.
func (n *skipNode[K, V]) key() K {
	p := unsafe.Add(unsafe.Pointer(n), uint16(n.kh>>offShift))
	if l := n.kh >> lenShift; l != 0 {
		s := unsafe.String((*byte)(p), l-1)
		return *(*K)(unsafe.Pointer(&s))
	}
	return *(*K)(p)
}

// next returns n's link at level l < n.height(). It views the array
// newNode allocated n with, which starts where the node ends, in the
// same idiom as core's bytesCell: an interior pointer into n's own
// object.
func (n *skipNode[K, V]) next(l int) *core.TVar[*skipNode[K, V]] {
	off := unsafe.Offsetof(tower[K, V, [1]core.TVar[*skipNode[K, V]], struct{}]{}.links) + uintptr(l)*unsafe.Sizeof(core.TVar[*skipNode[K, V]]{})
	return (*core.TVar[*skipNode[K, V]])(unsafe.Add(unsafe.Pointer(n), off))
}

// newNode allocates an unlinked node of height lvl holding a copy of
// key, level l pointing at succs[l]. The tower array is the smallest of
// four that fits: exact for heights 1 and 2 (15 nodes in 16), four links
// for 3 and 4, all sixteen past that (one node in 256).
func newNode[K cmp.Ordered, V any](tm *core.TM, key K, lvl int, succs []*skipNode[K, V]) *skipNode[K, V] {
	var n *skipNode[K, V]
	switch {
	case lvl == 1:
		n = keyed[K, V, [1]core.TVar[*skipNode[K, V]]](key, lvl)
	case lvl == 2:
		n = keyed[K, V, [2]core.TVar[*skipNode[K, V]]](key, lvl)
	case lvl <= 4:
		n = keyed[K, V, [4]core.TVar[*skipNode[K, V]]](key, lvl)
	default:
		n = keyed[K, V, [skipMaxLevel]core.TVar[*skipNode[K, V]]](key, lvl)
	}
	for l := range lvl {
		n.next(l).Init(tm, succs[l])
	}
	return n
}

// inlineKey is the most key bytes a node stores in its own object.
const inlineKey = 24

// keyed allocates a node of height lvl with links A holding a copy of
// key. A string key of up to inlineKey bytes is stored inline: a node
// and its links come to 8 bytes past a multiple of 16 (24 + 16 per
// link), so the array ends the object on a malloc class, never larger
// than the node with a string header plus the key's own object were. A
// longer string key keeps a private clone behind a string header; any
// other key is stored as itself.
func keyed[K cmp.Ordered, V, A any](key K, lvl int) *skipNode[K, V] {
	switch s, ok := any(key).(string); {
	case !ok:
		return alloc[K, V, A, K](key, "", lvl)
	case len(s) > inlineKey:
		return alloc[K, V, A, K](any(strings.Clone(s)).(K), "", lvl)
	default:
		return alloc[K, V, A, [inlineKey]byte](key, s, lvl)
	}
}

// alloc allocates a tower[K, V, A, T] of height lvl and returns its
// node. When T is K the tail holds key; otherwise it is an array that
// holds s's bytes.
func alloc[K cmp.Ordered, V, A, T any](key K, s string, lvl int) *skipNode[K, V] {
	t := new(tower[K, V, A, T])
	t.kh = uint64(unsafe.Offsetof(t.tail))<<offShift | uint64(lvl)
	if k, ok := any(&t.tail).(*K); ok {
		*k = key
	} else {
		t.kh |= uint64(copy(unsafe.Slice((*byte)(unsafe.Pointer(&t.tail)), len(s)), s)+1) << lenShift
	}
	return &t.skipNode
}

// The two instantiations: TSkipMap's node holds its value variable by
// value, in the node's own allocation; TSkipList's holds nothing.
type (
	mapNode = skipNode[string, core.TVar[string]]
	setNode = skipNode[uint64, struct{}]
)

// skipCore is the skip list both skip structures are made of (Pugh): the
// sentinel and the one search, put, remove and count every operation of
// either goes through. It keeps no size variable: a count is a walk of
// the bottom level (see snapshotLen), and no height stream: randLevel
// draws from the runtime's generator.
//
// top is a hint: the tallest tower any insert has linked, never lowered.
// A search walks only the levels under it, not all sixteen. Each level
// is a sublist of the one below and every walk reads and validates the
// bottom-level links around its key, so a search may start at any level
// at or above the bottom and answer the same: a stale top costs reads,
// never answers. Updates are what need the levels: see put and remove.
type skipCore[K cmp.Ordered, V any] struct {
	tm   *core.TM
	head *skipNode[K, V] // sentinel, all sixteen levels; key unused
	top  atomic.Int32
}

func (c *skipCore[K, V]) init(tm *core.TM) {
	var nils [skipMaxLevel]*skipNode[K, V]
	c.tm, c.head = tm, newNode(tm, *new(K), skipMaxLevel, nils[:])
}

// levels is how many levels a search walks that must cover the lowest
// h: the hint, raised to h. A lookup passes 1, so it always reads the
// bottom level.
func (c *skipCore[K, V]) levels(h int) int { return max(int(c.top.Load()), h) }

// search descends to key inside tx from level levels-1 and returns the
// first node with key >= key at the bottom level (nil at the end). When
// preds and succs are non-nil it fills them for every level it walked,
// for a following put or remove; a lookup passes nil for both.
func (c *skipCore[K, V]) search(tx *core.Tx, key K, levels int, preds, succs []*skipNode[K, V]) (*skipNode[K, V], error) {
	pred := c.head
	var curr *skipNode[K, V]
	for lvl := levels - 1; lvl >= 0; lvl-- {
		var err error
		curr, err = core.Get(tx, pred.next(lvl))
		if err != nil {
			return nil, err
		}
		for curr != nil && curr.key() < key {
			next, err := core.Get(tx, curr.next(lvl))
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

// put finds key inside tx and returns the node holding it and whether
// that node was already there. When key is absent it links a fresh node
// of height lvl holding it, with val still zero: the caller fills val in
// place before tx commits. Every write of tx is buffered until then (an
// irrevocable one's too), so no other transaction can reach the node
// earlier. The height is drawn before the search, which starts no lower
// than it, so every level the node is linked at has its predecessor;
// top is raised before the tower can commit, so no search that reads
// top after an insert commits starts under the tower.
func (c *skipCore[K, V]) put(tx *core.Tx, key K, lvl int) (n *skipNode[K, V], existed bool, err error) {
	// Stack-resident search results: search only reads and fills the
	// slices, so they never escape (no per-op allocation).
	var preds, succs [skipMaxLevel]*skipNode[K, V]
	if n, err = c.search(tx, key, c.levels(lvl), preds[:], succs[:]); err != nil || (n != nil && n.key() == key) {
		return n, err == nil, err
	}
	n = newNode(c.tm, key, lvl, succs[:])
	for l := range lvl {
		if err := core.Set(tx, preds[l].next(l), n); err != nil {
			return nil, false, err
		}
	}
	for t := c.top.Load(); int(t) < lvl; t = c.top.Load() { // raise top to lvl
		c.top.CompareAndSwap(t, int32(lvl))
	}
	return n, false, nil
}

// remove unlinks key's node inside tx from every level it is linked at
// and returns it, or nil when key is absent. A delete learns its
// target's height only by finding it, and a search may have started
// under it: a transaction can read top before an insert raises it and
// still reach that insert's node. Then it searches again from the
// target's own height, fixed before the node was published. That costs
// a second descent only in that race, where searching all sixteen
// levels every time would cost every delete the empty ones.
func (c *skipCore[K, V]) remove(tx *core.Tx, key K) (*skipNode[K, V], error) {
	var preds, succs [skipMaxLevel]*skipNode[K, V]
	h := c.levels(1)
	n, err := c.search(tx, key, h, preds[:], succs[:])
	for err == nil && n != nil && n.key() == key && n.height() > h {
		h = n.height()
		n, err = c.search(tx, key, h, preds[:], succs[:])
	}
	if err != nil || n == nil || n.key() != key {
		return nil, err
	}
	for l := range n.height() {
		if succs[l] != n {
			continue
		}
		next, err := core.Get(tx, n.next(l))
		if err != nil {
			return nil, err
		}
		if err := core.Set(tx, preds[l].next(l), next); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// count walks the bottom level inside tx from n, n included (nil counts
// nothing), and returns how many nodes it passed.
func (c *skipCore[K, V]) count(tx *core.Tx, n *skipNode[K, V]) (k int, err error) {
	for ; n != nil && err == nil; k++ {
		n, err = core.Get(tx, n.next(0))
	}
	return k, err
}

// length counts the keys inside tx: the bottom level from the sentinel,
// which is not one.
func (c *skipCore[K, V]) length(tx *core.Tx) (int, error) {
	k, err := c.count(tx, c.head)
	return k - 1, err
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
	switch op {
	case opContains:
		n, err := s.search(tx, key, s.levels(1), nil, nil)
		return err == nil && n != nil && n.key() == key, err
	case opInsert:
		_, existed, err := s.put(tx, key, randLevel())
		return !existed, err
	}
	n, err := s.remove(tx, key)
	return n != nil, err
}
