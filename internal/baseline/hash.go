package baseline

import "sync"

// mix64 is the splitmix64 finalizer shared by the hash baselines.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CoarseHash is a resizable hash set under one RWMutex: resize is
// trivial but every operation serializes behind the global lock.
type CoarseHash struct {
	mu      sync.RWMutex
	buckets [][]uint64
}

// NewCoarseHash creates a coarse-grained hash set with nbuckets initial
// buckets (rounded up to a power of two).
func NewCoarseHash(nbuckets int) *CoarseHash {
	n := 1
	for n < nbuckets {
		n <<= 1
	}
	return &CoarseHash{buckets: make([][]uint64, n)}
}

func (h *CoarseHash) idx(key uint64) uint64 { return mix64(key) & uint64(len(h.buckets)-1) }

// Insert adds key, returning false if present.
func (h *CoarseHash) Insert(key uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.idx(key)
	for _, k := range h.buckets[b] {
		if k == key {
			return false
		}
	}
	h.buckets[b] = append(h.buckets[b], key)
	return true
}

// Remove deletes key, returning false if absent.
func (h *CoarseHash) Remove(key uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.idx(key)
	for i, k := range h.buckets[b] {
		if k == key {
			last := len(h.buckets[b]) - 1
			h.buckets[b][i] = h.buckets[b][last]
			h.buckets[b] = h.buckets[b][:last]
			return true
		}
	}
	return false
}

// Contains reports whether key is present.
func (h *CoarseHash) Contains(key uint64) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, k := range h.buckets[h.idx(key)] {
		if k == key {
			return true
		}
	}
	return false
}

// Resize doubles or halves the table under the global write lock,
// blocking every concurrent operation for the duration.
func (h *CoarseHash) Resize(grow bool) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	newLen := len(h.buckets) * 2
	if !grow {
		newLen = max(1, len(h.buckets)/2)
	}
	fresh := make([][]uint64, newLen)
	for _, b := range h.buckets {
		for _, k := range b {
			i := mix64(k) & uint64(newLen-1)
			fresh[i] = append(fresh[i], k)
		}
	}
	h.buckets = fresh
	return newLen
}

// StripedHash is a hash set with lock striping (Herlihy & Shavit, ch.
// 13): a fixed array of stripes guards a growable bucket array.
// Operations lock one stripe; resize write-locks every stripe in index
// order — concurrency-friendly operations, stop-the-world resize.
type StripedHash struct {
	stripes []sync.RWMutex // a power of two, so a hash picks its stripe by mask
	mu      sync.RWMutex   // guards the buckets slice header swap
	buckets [][]uint64
}

// NewStripedHash creates a striped hash set with nbuckets initial
// buckets and nstripes stripes, rounded up to a power of two. The
// bucket count never drops below the stripe count, so two keys in one
// bucket always share a stripe — the invariant that makes one-stripe
// locking safe.
func NewStripedHash(nbuckets, nstripes int) *StripedHash {
	s := 1
	for s < nstripes {
		s <<= 1
	}
	n := s
	for n < nbuckets {
		n <<= 1
	}
	return &StripedHash{stripes: make([]sync.RWMutex, s), buckets: make([][]uint64, n)}
}

// stripe returns the lock responsible for hash.
func (h *StripedHash) stripe(hash uint64) *sync.RWMutex {
	return &h.stripes[hash&uint64(len(h.stripes)-1)]
}

func (h *StripedHash) withStripe(key uint64, w bool, f func(b uint64)) {
	hash := mix64(key)
	mu := h.stripe(hash)
	if w {
		mu.Lock()
		defer mu.Unlock()
	} else {
		mu.RLock()
		defer mu.RUnlock()
	}
	h.mu.RLock()
	b := hash & uint64(len(h.buckets)-1)
	f(b)
	h.mu.RUnlock()
}

// Insert adds key, returning false if present.
func (h *StripedHash) Insert(key uint64) bool {
	ok := false
	h.withStripe(key, true, func(b uint64) {
		for _, k := range h.buckets[b] {
			if k == key {
				return
			}
		}
		h.buckets[b] = append(h.buckets[b], key)
		ok = true
	})
	return ok
}

// Remove deletes key, returning false if absent.
func (h *StripedHash) Remove(key uint64) bool {
	ok := false
	h.withStripe(key, true, func(b uint64) {
		for i, k := range h.buckets[b] {
			if k == key {
				last := len(h.buckets[b]) - 1
				h.buckets[b][i] = h.buckets[b][last]
				h.buckets[b] = h.buckets[b][:last]
				ok = true
				return
			}
		}
	})
	return ok
}

// Contains reports whether key is present.
func (h *StripedHash) Contains(key uint64) bool {
	found := false
	h.withStripe(key, false, func(b uint64) {
		for _, k := range h.buckets[b] {
			if k == key {
				found = true
				return
			}
		}
	})
	return found
}

// Resize doubles or halves the bucket array. It locks every stripe —
// a stop-the-world pause for all operations.
func (h *StripedHash) Resize(grow bool) int {
	for i := range h.stripes {
		h.stripes[i].Lock()
		defer h.stripes[i].Unlock()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	newLen := len(h.buckets) * 2
	if !grow {
		newLen = max(len(h.stripes), len(h.buckets)/2)
	}
	fresh := make([][]uint64, newLen)
	for _, b := range h.buckets {
		for _, k := range b {
			i := mix64(k) & uint64(newLen-1)
			fresh[i] = append(fresh[i], k)
		}
	}
	h.buckets = fresh
	return newLen
}
