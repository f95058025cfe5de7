package lockfree

import (
	"math/bits"
	"sync/atomic"
)

// Split-ordered list (Shalev & Shavit, JACM 2006): a lock-free
// *extensible* hash table. All elements live in a single lock-free
// linked list sorted by split-order (bit-reversed hash); the "hash
// table" is a directory of shortcut pointers to dummy nodes inside that
// list. Doubling the table never moves an element — a new bucket's dummy
// is lazily spliced between its parent's items — which is exactly the
// resize capability whose absence from Michael's hash table motivates
// the paper's introduction.

const (
	soSegBits  = 13 // segment size = 8192 buckets
	soSegSize  = 1 << soSegBits
	soSegCount = 64 // up to 512Ki buckets
	soMaxLoad  = 2  // average items per bucket before doubling
)

type soSegment [soSegSize]atomic.Pointer[node]

// SplitOrdered is a lock-free extensible hash set over uint64 keys.
type SplitOrdered struct {
	head     *node // list head; doubles as the dummy of bucket 0
	segments [soSegCount]atomic.Pointer[soSegment]
	size     atomic.Uint64 // current bucket count (power of two)
	count    atomic.Int64  // element count, which drives doubling
}

// NewSplitOrdered creates an empty split-ordered hash set with two
// initial buckets.
func NewSplitOrdered() *SplitOrdered {
	h := &node{}
	h.next.Store(&link{})
	s := &SplitOrdered{head: h}
	s.size.Store(2)
	seg := new(soSegment)
	seg[0].Store(h) // bucket 0's dummy is the head itself
	s.segments[0].Store(seg)
	return s
}

// mix64 is the splitmix64 finalizer, used as the hash function.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// soRegularKey maps a hash to its split-order key: bit-reversed with the
// LSB set, so regular nodes sort after their bucket's dummy.
func soRegularKey(h uint64) uint64 { return bits.Reverse64(h) | 1 }

// soDummyKey maps a bucket index to its dummy's split-order key.
func soDummyKey(b uint64) uint64 { return bits.Reverse64(b) }

// soParent returns the parent bucket: b with its most significant set
// bit cleared.
func soParent(b uint64) uint64 {
	if b == 0 {
		return 0
	}
	return b &^ (1 << (bits.Len64(b) - 1))
}

// segmentFor returns the directory slot for bucket b, allocating the
// segment on demand.
func (s *SplitOrdered) segmentFor(b uint64) *atomic.Pointer[node] {
	si, off := b>>soSegBits, b&(soSegSize-1)
	seg := s.segments[si].Load()
	if seg == nil {
		fresh := new(soSegment)
		if !s.segments[si].CompareAndSwap(nil, fresh) {
			seg = s.segments[si].Load()
		} else {
			seg = fresh
		}
	}
	return &seg[off]
}

// bucketNode returns bucket b's dummy node, initializing the bucket (and
// recursively its parent) on first use.
func (s *SplitOrdered) bucketNode(b uint64) *node {
	slot := s.segmentFor(b)
	if d := slot.Load(); d != nil {
		return d
	}
	return s.initBucket(b, slot)
}

func (s *SplitOrdered) initBucket(b uint64, slot *atomic.Pointer[node]) *node {
	parent := s.bucketNode(soParent(b))
	// Splice the dummy into the list (idempotent: a racing initializer
	// finds the existing dummy and both CAS the same node, or lose to an
	// identical value).
	dummy, _ := insertFrom(parent, soDummyKey(b))
	slot.CompareAndSwap(nil, dummy)
	return slot.Load()
}

// Insert adds key, returning false if present. The table doubles when
// the average load exceeds soMaxLoad.
func (s *SplitOrdered) Insert(key uint64) bool {
	h := mix64(key)
	size := s.size.Load()
	start := s.bucketNode(h & (size - 1))
	if _, inserted := insertFrom(start, soRegularKey(h)); !inserted {
		return false
	}
	c := s.count.Add(1)
	if uint64(c)/size > soMaxLoad && size < soSegCount*soSegSize/2 {
		s.size.CompareAndSwap(size, size*2)
	}
	return true
}

// Remove deletes key, returning false if absent.
func (s *SplitOrdered) Remove(key uint64) bool {
	h := mix64(key)
	start := s.bucketNode(h & (s.size.Load() - 1))
	if !removeFrom(start, soRegularKey(h)) {
		return false
	}
	s.count.Add(-1)
	return true
}

// Contains reports whether key is present.
func (s *SplitOrdered) Contains(key uint64) bool {
	h := mix64(key)
	start := s.bucketNode(h & (s.size.Load() - 1))
	return containsFrom(start, soRegularKey(h))
}
