package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// liveRegistry maps attempt id -> *Txn for the contention managers,
// which must be able to inspect (and kill) the owner of a busy lock
// word. Only lock *owners* can ever be looked up — an enemy is always
// the holder of a busy lock — so registration is commit-time only: a
// writing optimistic commit enters the registry before its first lock
// (Txn.passGate), and the read-only fast paths never touch it at all.
// An irrevocable transaction never registers. The registry doubles as
// the irrevocable gate's drain set: it holds exactly the writing commits
// between passGate and finish, which are the ones an irrevocable
// transaction must wait out (drain; see irrevocable.go). It is sharded
// by a mixing hash of the id (shardOf — raw low bits would collapse
// block-allocated first-attempt ids onto one shard).
//
// A shard is one cache line of slots. An owner publishes its attempt id
// (Txn.liveID) and CASes its *Txn into a free slot; finish clears the
// slot; lookup scans the slots for the id. No mutex is taken unless all
// of a shard's slots are held at once, and then the registrant spills
// into the shard's mutex-guarded map, which lookups consult only while
// it is non-empty. This replaced a map under a shard mutex for every
// registration: on a 2-core Xeon, a 500k-key ascending skip-map preload
// by two goroutines spent 10.4% of its CPU registering and deregistering
// lock owners there (2.1% in the mutex's slow path), and 4.5% with the
// slots.
type liveRegistry struct {
	shards []liveShard
	mask   uint64
}

// registrySlots is how many registrations a shard holds without its
// mutex: one cache line of 8-byte slots.
const registrySlots = cacheLine / 8

type liveShard struct {
	slots   [registrySlots]atomic.Pointer[Txn]
	spilled atomic.Int32 // len(m), so lookups skip mu while m is empty
	mu      sync.Mutex
	m       map[uint64]*Txn
	_       [cacheLine - 24]byte
}

// init sizes the shard array; shards must be a power of two.
func (r *liveRegistry) init(shards int) {
	r.shards = make([]liveShard, shards)
	for i := range r.shards {
		r.shards[i].m = make(map[uint64]*Txn)
	}
	r.mask = uint64(shards - 1)
}

// store registers tx as the live owner of its current attempt id and
// returns the slot it took, nil if it spilled into the map.
func (r *liveRegistry) store(tx *Txn) *atomic.Pointer[Txn] {
	tx.liveID.Store(tx.id)
	sh := &r.shards[shardOf(tx.id, r.mask)]
	for i := range sh.slots {
		if s := &sh.slots[i]; s.Load() == nil && s.CompareAndSwap(nil, tx) {
			return s
		}
	}
	sh.mu.Lock()
	sh.m[tx.id] = tx
	sh.spilled.Add(1)
	sh.mu.Unlock()
	return nil
}

// delete removes attempt id, which store placed in slot.
func (r *liveRegistry) delete(id uint64, slot *atomic.Pointer[Txn]) {
	if slot != nil {
		slot.Store(nil)
		return
	}
	sh := &r.shards[shardOf(id, r.mask)]
	sh.mu.Lock()
	delete(sh.m, id)
	sh.spilled.Add(-1)
	sh.mu.Unlock()
}

// lookup resolves a live transaction by attempt id, or nil if it has
// already finished. A slot's Txn may finish and re-register under a new
// attempt id between the two loads; the id match then fails, or returns
// a pointer stale by one attempt, which the callers tolerate (kill is
// attempt-exact).
func (r *liveRegistry) lookup(id uint64) *Txn {
	sh := &r.shards[shardOf(id, r.mask)]
	for i := range sh.slots {
		if tx := sh.slots[i].Load(); tx != nil && tx.liveID.Load() == id {
			return tx
		}
	}
	if sh.spilled.Load() == 0 {
		return nil
	}
	sh.mu.Lock()
	tx := sh.m[id]
	sh.mu.Unlock()
	return tx
}

// drain returns once every registration that preceded the call has
// finished: each slot has been seen empty and each spill count zero.
// A registration that follows the caller's gate store sees the gate and
// leaves again (Txn.passGate), so the wait is bounded.
func (r *liveRegistry) drain() {
	for i := range r.shards {
		sh := &r.shards[i]
		for j := range sh.slots {
			for sh.slots[j].Load() != nil {
				runtime.Gosched()
			}
		}
		for sh.spilled.Load() != 0 {
			runtime.Gosched()
		}
	}
}
