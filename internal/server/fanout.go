package server

import (
	"context"
	"slices"
	"sync"

	"polytm/internal/core"
	"polytm/internal/wire"
)

// Read fan-out: MGET and SCAN on a sharded store run one transaction
// per participating shard — MGET's in turn on the caller's goroutine,
// SCAN's concurrently — and merge the results.
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
// slot per key: one transaction per shard the keys touch.
func (s *Store) mget(ctx context.Context, keys [][]byte, sem core.Semantics, resp *wire.Response) error {
	tab := s.tab()
	for range keys {
		appendSub(resp)
	}
	if len(tab.shards) == 1 {
		return s.mgetShard(ctx, tab.shards[0], 0, nil, keys, sem, resp)
	}
	return s.mgetFanout(ctx, tab, keys, sem, resp)
}

// mgetFanout runs each touched shard's share in table order on the
// caller's goroutine and returns the first error: a point read is too
// short to pay for a goroutine (scanFanout's range walks are not). owner[j]
// is the table position owning keys[j]; the inline array covers the usual
// request and a larger one spills to the heap.
func (s *Store) mgetFanout(ctx context.Context, tab *routingTable, keys [][]byte, sem core.Semantics, resp *wire.Response) error {
	var ownerBuf [32]uint32
	owner := ownerBuf[:0]
	for _, k := range keys {
		owner = append(owner, uint32(tab.pos(hashKey(k))))
	}
	for si, sh := range tab.shards {
		if !slices.Contains(owner, uint32(si)) {
			continue
		}
		if err := s.mgetShard(ctx, sh, uint32(si), owner, keys, sem, resp); err != nil {
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
					if sh.expiredNow(viewBytes(k)) {
						return true
					}
					if tab.epoch > 0 && !sl.owns(k) {
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
