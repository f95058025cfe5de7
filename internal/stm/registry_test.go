package stm

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// inParallel runs f(0..n-1) on n goroutines and waits for all of them.
func inParallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// activeCount returns the number of live snapshot transactions.
func (r *snapshotRegistry) activeCount() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		for j := range sh.slots {
			if sh.slots[j].Load() != snapFree {
				n++
			}
		}
		if sh.spillMin.Load() != snapFree {
			sh.mu.Lock()
			n += len(sh.spill)
			sh.mu.Unlock()
		}
	}
	return n
}

// TestLiveRegistryOverflow holds three times as many lock owners as a
// shard has slots, all in the engine's one shard, so most of them spill
// into the overflow map. Registered concurrently, every owner's id
// resolves to that owner from every goroutine; released concurrently,
// none resolves, and the shard is back to empty slots and an empty map.
func TestLiveRegistryOverflow(t *testing.T) {
	e := NewEngine(Config{Shards: 1})
	const owners = 3 * registrySlots
	sh := &e.live.shards[0]
	for round := 0; round < 20; round++ {
		txs := make([]*Txn, owners)
		inParallel(owners, func(i int) {
			txs[i] = e.Begin(SemanticsDef)
			txs[i].registerLive()
		})
		if n := sh.spilled.Load(); n != owners-registrySlots {
			t.Fatalf("round %d: %d owners spilled, want %d", round, n, owners-registrySlots)
		}
		ids := make([]uint64, owners)
		for i, tx := range txs {
			ids[i] = tx.id
		}
		inParallel(owners, func(int) {
			for i, id := range ids {
				if got := e.live.lookup(id); got != txs[i] {
					t.Errorf("lookup(%d) = %p, want its live owner %p", id, got, txs[i])
				}
			}
		})
		inParallel(owners, func(i int) { txs[i].Abort() })
		inParallel(owners, func(int) {
			for _, id := range ids {
				if got := e.live.lookup(id); got != nil {
					t.Errorf("lookup(%d) = %p after its owner finished, want nil", id, got)
				}
			}
		})
		for i := range sh.slots {
			if sh.slots[i].Load() != nil {
				t.Fatalf("round %d: slot %d still held after every owner finished", round, i)
			}
		}
		if n := sh.spilled.Load(); n != 0 || len(sh.m) != 0 {
			t.Fatalf("round %d: overflow holds %d (map %d) after every owner finished", round, n, len(sh.m))
		}
	}
}

// TestSnapshotRegistryOverflow holds three times as many snapshot
// readers as a shard has slots in one shard. Registered one at a time,
// the oldest readers take the slots and the rest spill, and releasing
// them oldest first moves the minimum from the slots into the spill:
// minActive must equal the oldest live read timestamp at every step.
// Registered concurrently beside a writer that keeps overwriting one
// variable (and trimming its history to minActive), every reader must
// still resolve the version at its read timestamp.
func TestSnapshotRegistryOverflow(t *testing.T) {
	e := NewEngine(Config{Shards: 1})
	const readers = 3 * registrySlots
	txs := make([]*Txn, readers)
	for i := range txs {
		txs[i] = e.Begin(SemanticsSnapshot)
		e.clock.Tick()
	}
	for i, tx := range txs {
		if m := e.snaps.minActive(); m != tx.rv {
			t.Fatalf("after releasing %d oldest readers: minActive = %d, want the oldest live rv %d", i, m, tx.rv)
		}
		if n := e.snaps.activeCount(); n != readers-i {
			t.Fatalf("activeCount = %d, want %d", n, readers-i)
		}
		tx.Abort()
	}
	if m := e.snaps.minActive(); m != math.MaxUint64 {
		t.Fatalf("minActive = %d with no reader registered, want MaxUint64", m)
	}

	x := e.NewVar(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Run(SemanticsDef, func(tx *Txn) error { return tx.Write(x, n) }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 50; round++ {
		inParallel(readers, func(i int) { txs[i] = e.Begin(SemanticsSnapshot) })
		rvs := make([]uint64, readers)
		for i, tx := range txs {
			rvs[i] = tx.rv
		}
		if m, oldest := e.snaps.minActive(), slices.Min(rvs); m > oldest {
			t.Fatalf("round %d: minActive = %d exceeds the oldest live rv %d", round, m, oldest)
		}
		inParallel(readers, func(i int) {
			if _, err := txs[i].Read(x); err != nil {
				t.Errorf("snapshot reader at rv %d: %v", rvs[i], err)
			}
			if err := txs[i].Commit(); err != nil {
				t.Error(err)
			}
		})
	}
	close(stop)
	wg.Wait()
	if n := e.snaps.activeCount(); n != 0 {
		t.Fatalf("activeCount = %d after every reader finished", n)
	}
}
