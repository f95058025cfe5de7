package server

import (
	"context"
	"slices"
	"sync"

	"polytm/internal/core"
	"polytm/internal/wire"
)

// Read fan-out: MGET and SCAN on a sharded store run one transaction
// per participating shard, concurrently, and merge the results.
//
// The consistency contract is per-shard, not global: each shard's
// slice of the answer is internally consistent under the request's
// semantics (a snapshot MGET never sees a torn single-shard TXN; an
// elastic SCAN's traversal invariants hold within each shard), but the
// shards' snapshots are taken independently, so a reader racing a
// cross-shard TXN may see its effects on one shard and not yet on
// another. That is the documented trade the sharded store makes —
// single-key operations and single-shard batches keep full opacity,
// and readers that need a globally atomic view of specific keys can
// put those keys in a TXN of GETs (which commits through the
// cross-shard protocol and serializes against writers).

// mget answers a batch of point reads into one pre-created sub-response
// slot per key. Single shard (or a sharded store whose keys all hash to
// one shard): one transaction on the caller's goroutine. Otherwise the
// keys are grouped by owning shard and the per-shard transactions, which
// write disjoint slots, fan out.
func (s *Store) mget(ctx context.Context, keys [][]byte, sem core.Semantics, resp *wire.Response) error {
	tab := s.tab()
	for range keys {
		appendSub(resp)
	}
	only := tab.shards[0]
	if len(tab.shards) > 1 && len(keys) > 0 {
		only = tab.shardFor(hashKey(keys[0]))
		for _, k := range keys[1:] {
			if tab.shardFor(hashKey(k)) != only {
				only = nil
				break
			}
		}
	}
	if only != nil {
		return s.mgetShard(ctx, only, 0, nil, keys, sem, resp)
	}
	return s.mgetFanout(ctx, tab, keys, sem, resp)
}

// mgetFan is the state one cross-shard MGET's per-shard transactions
// share: owner[j] is the table position owning keys[j], errs[si] the
// outcome on position si. The inline arrays cover the usual request —
// a handful of shards, a screenful of keys — and a larger one spills
// to the heap.
type mgetFan struct {
	wg       sync.WaitGroup
	owner    []uint32
	errs     []error
	ownerBuf [32]uint32
	errBuf   [8]error
}

// mgetFanout runs one transaction per touched shard and returns the
// first error in table order. One allocation (the mgetFan) holds
// everything the transactions share and each spawned goroutine costs
// one more for its closure; the last touched shard runs on the caller's
// goroutine, so the common two-shard MGET starts exactly one.
func (s *Store) mgetFanout(ctx context.Context, tab *routingTable, keys [][]byte, sem core.Semantics, resp *wire.Response) error {
	f := &mgetFan{}
	f.owner = f.ownerBuf[:0]
	for _, k := range keys {
		f.owner = append(f.owner, uint32(tab.pos(hashKey(k))))
	}
	if n := len(tab.shards); n <= len(f.errBuf) {
		f.errs = f.errBuf[:n]
	} else {
		f.errs = make([]error, n)
	}
	last := slices.Max(f.owner)
	for si := uint32(0); si < last; si++ {
		if !slices.Contains(f.owner, si) {
			continue
		}
		si := si // captured by value: an argument would cost the go statement a second closure
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.errs[si] = s.mgetShard(ctx, tab.shards[si], si, f.owner, keys, sem, resp)
		}()
	}
	f.errs[last] = s.mgetShard(ctx, tab.shards[last], last, f.owner, keys, sem, resp)
	f.wg.Wait()
	for _, err := range f.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mgetShard reads, in one transaction on sh, the keys whose owner entry
// is si — every key when owner is nil — into their slots of resp.Batch.
func (s *Store) mgetShard(ctx context.Context, sh *shard, si uint32, owner []uint32, keys [][]byte, sem core.Semantics, resp *wire.Response) error {
	mine := func(j int) bool { return owner == nil || owner[j] == si }
	n := uint64(0)
	for j := range keys {
		if mine(j) {
			n++
		}
	}
	sh.routed.Add(n)
	return sh.tm.AtomicAsCtx(ctx, sem, func(tx *core.Tx) error {
		for j, key := range keys {
			if !mine(j) {
				continue
			}
			if err := s.keyOp(tx, sh, nil, wire.OpGet, key, nil, nil, &resp.Batch[j]); err != nil {
				return err
			}
		}
		return nil
	})
}

// kvPair is one shard-local scan result awaiting the merge.
type kvPair struct {
	k, v string
}

// scanFanout runs the range on every shard concurrently — each shard
// scans up to the full limit, since in the worst case one shard owns
// every key of the range — then k-way-merges the per-shard ordered
// slices into resp.Pairs, stopping at limit. Shard count is small (a
// handful, bounded by cores), so the linear min-pick per emitted pair
// beats a heap on real sizes.
func (s *Store) scanFanout(ctx context.Context, tab *routingTable, from, to []byte, limit uint64, sem core.Semantics, resp *wire.Response) error {
	n := len(tab.shards)
	results := make([][]kvPair, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, sh := range tab.shards {
		sh.routed.Add(1)
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			sl := tab.slices[i]
			var local []kvPair
			errs[i] = sh.tm.AtomicAsCtx(ctx, sem, func(tx *core.Tx) error {
				local = local[:0] // a retried body restarts its slice
				rangeLimit := int(limit)
				if sh.ttl.Len() > 0 || tab.epoch > 0 {
					// Expired entries are filtered and must not consume the
					// limit (see Store.scan). Post-reshard, so are keys the
					// shard no longer owns: a split leaves the moved half on
					// the source until lazy cleanup catches up, and the new
					// owner scans those same keys — filtering by the routing
					// slice keeps the merge duplicate-free.
					rangeLimit = 0
				}
				return sh.m.RangeTx(tx, lookupKey(from), lookupKey(to), rangeLimit, func(k, v string) bool {
					if sh.expiredNowStr(k) {
						return true
					}
					if tab.epoch > 0 && hashKeyStr(k)%sl.mod != sl.res {
						return true
					}
					local = append(local, kvPair{k, v})
					return limit == 0 || uint64(len(local)) < limit
				})
			})
			results[i] = local
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	heads := make([]int, n)
	for limit == 0 || uint64(len(resp.Pairs)) < limit {
		best := -1
		for i := 0; i < n; i++ {
			if heads[i] >= len(results[i]) {
				continue
			}
			if best < 0 || results[i][heads[i]].k < results[best][heads[best]].k {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p := &results[best][heads[best]]
		appendPair(resp, p.k, p.v)
		heads[best]++
	}
	return nil
}
