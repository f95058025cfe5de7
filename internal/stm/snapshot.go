package stm

import (
	"math"
	"sync"
	"sync/atomic"
)

// snapshotRegistry tracks the start timestamps of live snapshot-semantics
// transactions so that writers know how much version history they must
// preserve on each variable's chain.
//
// The registry is sharded by a mixing hash of the transaction id
// (shardOf), and a shard is one cache line of slots, each holding one
// registered lower bound or snapFree. A reader CASes its bound into a
// free slot and its finish frees the slot, so registration (every
// snapshot begin) and unregistration (every snapshot finish) take no
// mutex. Only when all of a shard's slots are held does a reader spill
// into the shard's mutex-guarded map, whose minimum is cached in an
// atomic. Writers never take any mutex: minActive folds every slot and
// every cached spill minimum, so no minimum is kept up for the slots.
//
// Correctness: a slot holds its bound from the CAS until unregister, and
// a spill's cached minimum is maintained under its shard's lock, so
// minActive never exceeds the smallest timestamp of any registered
// snapshot whose registration preceded the fold. The register-then-sample
// ordering invariant (publish a conservative lower bound before sampling
// the read timestamp — see registerSampling and the commentary in
// Txn.begin) is what makes the remaining writer/registrar race benign: a
// writer whose fold missed our bound committed at a timestamp at or
// below our read timestamp, so its version is visible to the snapshot
// anyway.
type snapshotRegistry struct {
	shards []snapShard
	mask   uint64
}

// snapFree marks a free slot; it is also the fold's identity.
const snapFree = math.MaxUint64

type snapShard struct {
	slots    [registrySlots]atomic.Uint64
	spillMin atomic.Uint64 // minimum of spill, or snapFree
	mu       sync.Mutex
	spill    map[uint64]uint64 // txn id -> start timestamp
	_        [cacheLine - 24]byte
}

// init sizes the shard array; shards must be a power of two.
func (r *snapshotRegistry) init(shards int) {
	r.shards = make([]snapShard, shards)
	for i := range r.shards {
		sh := &r.shards[i]
		for j := range sh.slots {
			sh.slots[j].Store(snapFree)
		}
		sh.spillMin.Store(snapFree)
		sh.spill = make(map[uint64]uint64)
	}
	r.mask = uint64(shards - 1)
}

// registerSampling records transaction id as a live snapshot reader and
// returns the attempt's read timestamp and the slot it took (nil if it
// spilled). Two clock samples bracket the registration: the first
// becomes the published conservative lower bound, and the second —
// taken strictly AFTER the bound is stored — becomes rv. The bracketing
// is the register-then-sample invariant minActive's trimming contract
// needs, and the order is load-bearing: a writer whose minActive fold
// missed our bound must have loaded the slot (or spill minimum) before
// the bound was stored, hence ticked its commit timestamp before rv was
// sampled (atomics are totally ordered), so wv <= rv and its new version
// is itself visible to the snapshot — the reader never needs anything
// that writer trimmed. Sampling rv BEFORE the store (e.g. reusing the
// bound as rv to save a clock load) is unsound: a writer could then tick
// wv > rv, miss the bound, and drop the very version the snapshot
// resolves to.
func (r *snapshotRegistry) registerSampling(id uint64, clock *Clock) (uint64, *atomic.Uint64) {
	sh := &r.shards[shardOf(id, r.mask)]
	pre := clock.Now()
	for i := range sh.slots {
		if s := &sh.slots[i]; s.Load() == snapFree && s.CompareAndSwap(snapFree, pre) {
			return clock.Now(), s
		}
	}
	sh.mu.Lock()
	sh.spill[id] = pre
	if pre < sh.spillMin.Load() {
		sh.spillMin.Store(pre)
	}
	sh.mu.Unlock()
	return clock.Now(), nil
}

// unregister removes transaction id, which registerSampling placed in
// slot. A spilled reader's removal recomputes its shard's cached spill
// minimum; other shards are untouched.
func (r *snapshotRegistry) unregister(id uint64, slot *atomic.Uint64) {
	if slot != nil {
		slot.Store(snapFree)
		return
	}
	sh := &r.shards[shardOf(id, r.mask)]
	sh.mu.Lock()
	delete(sh.spill, id)
	m := uint64(snapFree)
	for _, ts := range sh.spill {
		m = min(m, ts)
	}
	sh.spillMin.Store(m)
	sh.mu.Unlock()
}

// minActive returns the smallest start timestamp of any live snapshot
// transaction, or math.MaxUint64 if none — writers keep the newest
// version with ver <= minActive and may trim everything older. Lock-free:
// it folds every slot and every shard's cached spill minimum.
func (r *snapshotRegistry) minActive() uint64 {
	m := uint64(snapFree)
	for i := range r.shards {
		sh := &r.shards[i]
		for j := range sh.slots {
			m = min(m, sh.slots[j].Load())
		}
		m = min(m, sh.spillMin.Load())
	}
	return m
}
