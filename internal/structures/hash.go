package structures

import "polytm/internal/core"

// THash is a transactional hash set that supports resize — the
// capability whose absence from tuned lock-free hash tables motivates
// the paper's introduction ("this data structure does not support a
// resize, therefore it is preferable to use a split ordered linked
// list..."). Built on polymorphic transactions, the answer is simpler:
// ordinary operations run with Weak (elastic) semantics and the resize
// is one monomorphic (Def) transaction; polymorphism lets them run
// concurrently, with conflicts resolved by the engine.
//
// Layout: a TVar holding the bucket array (a slice of chain-head TVars)
// plus per-node next TVars. Operations read the bucket array with an
// anchored read (core.GetAnchored), so even an elastic operation whose
// traversal window has slid past the array conflicts with a resize that
// swapped it — the composition rule that keeps elastic updates
// linearizable across resizes.
type THash struct {
	intSet
	buckets *core.TVar[[]*core.TVar[*listNode]]
}

// mix64 is the splitmix64 finalizer (bijective hash).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTHash creates a transactional hash set with nbuckets initial
// buckets (rounded up to a power of two) whose operations use
// semantics sem.
func NewTHash(tm *core.TM, sem core.Semantics, nbuckets int) *THash {
	n := 1
	for n < nbuckets {
		n <<= 1
	}
	h := &THash{buckets: core.NewTVar(tm, newBuckets(tm, n))}
	h.intSet = newIntSet(tm, sem, sem, h)
	return h
}

// newBuckets makes n empty chain heads.
func newBuckets(tm *core.TM, n int) []*core.TVar[*listNode] {
	bs := make([]*core.TVar[*listNode], n)
	for i := range bs {
		bs[i] = core.NewTVar[*listNode](tm, nil)
	}
	return bs
}

// apply runs op on key's bucket chain, reached through an anchored read
// of the bucket array.
func (h *THash) apply(tx *core.Tx, op setOp, key uint64) (bool, error) {
	bs, err := core.GetAnchored(tx, h.buckets)
	if err != nil {
		return false, err
	}
	return chainApply(tx, h.tm, bs[mix64(key)&uint64(len(bs)-1)], op, key)
}

// Resize doubles (grow) or halves (shrink) the bucket array in one
// monomorphic transaction: it reads every chain, rebuilds them into a
// fresh array of new TVars, and swaps the array variable. Because it is
// a plain Def transaction, it is atomic with respect to every concurrent
// polymorphic operation — exactly the genericity the paper's
// introduction claims for transactions over hand-tuned structures. It
// returns the new bucket count.
func (h *THash) Resize(grow bool) int {
	var newLen int
	must(h.tm.AtomicAs(core.Def, func(tx *core.Tx) error {
		bs, err := core.Get(tx, h.buckets)
		if err != nil {
			return err
		}
		newLen = len(bs) * 2
		if !grow {
			newLen = max(len(bs)/2, 1)
		}
		fresh := newBuckets(h.tm, newLen)
		// Rehash every chain into the fresh array (new nodes: the old
		// ones stay immutable for concurrent readers).
		for _, b := range bs {
			n, err := core.Get(tx, b)
			for err == nil && n != nil {
				if _, err = chainInsert(tx, h.tm, fresh[mix64(n.key)&uint64(newLen-1)], n.key); err == nil {
					n, err = core.Get(tx, n.next)
				}
			}
			if err != nil {
				return err
			}
		}
		return core.Set(tx, h.buckets, fresh)
	}))
	return newLen
}
