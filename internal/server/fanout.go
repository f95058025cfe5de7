package server

import (
	"context"
	"sync"

	"polytm/internal/core"
	"polytm/internal/wire"
)

// Fan-out: a request that names several keys — MGET, TXN — or spans
// the keyspace — SCAN, FLUSH — becomes one transaction of its class on
// each shard it touches, under one snapshot of the routing table. The
// store has one way to do each step, whatever its shard count:
//
//   - group finds a request's shards once: the owning table position
//     of every key and the participating shards in table order;
//   - MGET runs its shares in turn on the caller's goroutine, each one
//     transaction under the request's semantics;
//   - commit runs a TXN's or FLUSH's shares as one atomic unit: a single
//     participant is one mutation under the request's semantics, several
//     commit through the cross-shard protocol (twopc.go);
//   - SCAN walks each shard with one range body and merges the results.
//
// The consistency contract is per-shard, not global: each shard's
// slice of a read's answer is internally consistent under the request's
// semantics (a snapshot MGET never sees a torn single-shard TXN; an
// elastic SCAN's traversal invariants hold within each shard), but the
// shards' snapshots are taken independently, so a reader racing a
// cross-shard TXN may see its effects on one shard and not yet on
// another. That is the documented trade the sharded store makes —
// single-key operations and single-shard batches keep full opacity,
// and readers that need a globally atomic view of specific keys can
// put those keys in a TXN of GETs (which commits through the
// cross-shard protocol and serializes against writers).

// group splits a request's n keys — key(j) is the j-th — by owner
// under t: owner[j] is the table position owning key j, and shards
// lists the shards owning any, in table order. Both are appended to
// the caller's buffers, whose inline arrays cover the usual request — a
// screenful of keys over a handful of shards — so only a larger one
// spills to the heap.
func (t *routingTable) group(n int, key func(j int) []byte, owner []uint32, shards []*shard) ([]uint32, []*shard) {
	for j := range n {
		owner = append(owner, uint32(t.pos(hashKey(key(j)))))
	}
	for _, sh := range t.shards {
		if t.owned(owner, sh) > 0 {
			shards = append(shards, sh)
		}
	}
	return owner, shards
}

// owned counts the keys owner assigns to sh: what sh's share adds to
// its STATS routing row.
func (t *routingTable) owned(owner []uint32, sh *shard) uint64 {
	n := uint64(0)
	for _, o := range owner {
		if t.shards[o] == sh {
			n++
		}
	}
	return n
}

// mget answers a batch of point reads into one pre-created sub-response
// slot per key: one transaction per shard the keys touch under tab, run
// in table order on the caller's goroutine — a point read is too short
// to pay for a goroutine (SCAN's range walks are not). The first share
// that fails stops the walk, and its error is the request's.
func (s *Store) mget(ctx context.Context, tab *routingTable, keys [][]byte, sem core.Semantics, resp *wire.Response) error {
	var ownerBuf [32]uint32
	var shardBuf [8]*shard
	owner, shards := tab.group(len(keys), func(j int) []byte { return keys[j] }, ownerBuf[:0], shardBuf[:0])
	for range keys {
		appendSub(resp)
	}
	for _, sh := range shards {
		sh.routed.Add(tab.owned(owner, sh))
		err := sh.tm.AtomicAsCtx(ctx, sem, func(tx *core.Tx) error {
			for j, key := range keys {
				if tab.shards[owner[j]] != sh {
					continue
				}
				if err := s.keyOp(tx, sh, nil, wire.OpGet, key, nil, nil, &resp.Batch[j]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// commit runs share on every participant — shards, in table order,
// grouped under tab — as one atomic unit. A single participant is one
// mutation under sem, the request's semantics; several commit through
// the cross-shard protocol, irrevocably, as label. No participant (an
// empty TXN) commits nothing.
//
// Each of several participants re-checks, under its token, that tab is
// still current: a cutover that published a newer table since grouping
// means some key may have a new owner (or a FLUSH would miss a brand-new
// shard), so the whole unit aborts with errMovedKey and the dispatcher
// retries through the current table. (A lone participant's writes
// re-check ownership key by key, in keyOp.)
func (s *Store) commit(ctx context.Context, tab *routingTable, shards []*shard, sem core.Semantics, share xshare, label string) error {
	switch len(shards) {
	case 0:
		return nil
	case 1:
		sh := shards[0]
		return s.mutate(ctx, sh, sem, mutOpts{}, func(tx *core.Tx, cp *walCapture) error {
			return share(tx, sh, cp)
		})
	}
	return s.crossShard(ctx, shards, func(tx *core.Tx, sh *shard, cp *walCapture) error {
		if s.tab() != tab {
			return errMovedKey
		}
		return share(tx, sh, cp)
	}, label)
}

// kvPair is one shard-local scan result awaiting the merge.
type kvPair struct {
	k, v string
}

// scanShare is one shard's walk of a several-shard SCAN: the pairs it
// found, not yet merged, and how it ended.
type scanShare struct {
	pairs []kvPair
	err   error
}

// scanFan is what a several-shard SCAN's concurrent walks share, in one
// object: the group they finish in and their shares, inline for up to
// eight shards (as routingTable.group's buffers are), on the heap past
// that.
type scanFan struct {
	wg     sync.WaitGroup
	shares []scanShare
	buf    [8]scanShare
}

// scan answers a range read: one transaction per shard, each walking
// the range with scanShard. This is the one place the shard count picks
// a path. A single shard walks inline and emits straight into
// resp.Pairs, allocating nothing past the reply's own storage (the
// SCAN16 row of TestRoundTripAllocs). Several shards walk concurrently,
// each into its own share of one arena — each up to the full limit,
// since in the worst case one shard owns every key of the range — and a
// k-way merge of those ordered shares fills resp.Pairs, stopping at
// limit: the fan, the arena and a goroutine per shard are what the
// concurrent walk costs. Shard count is small (a handful, bounded by
// cores), so the linear min-pick per emitted pair beats a heap on real
// sizes.
func (s *Store) scan(ctx context.Context, from, to []byte, limit uint64, sem core.Semantics, resp *wire.Response) error {
	tab := s.tab()
	n := len(tab.shards)
	if n == 1 {
		return s.scanShard(ctx, tab, 0, from, to, limit, sem,
			func() { resp.Pairs = resp.Pairs[:0] },
			func(k, v string) { appendPair(resp, k, v) })
	}
	fan := new(scanFan)
	fan.shares = append(fan.buf[:0], make([]scanShare, n)...)
	// A share reserves room for at most 1024 pairs up front, as wire's
	// decoders cap a declared count; one that finds more grows by append.
	per := int(min(limit, 1024))
	arena := make([]kvPair, n*per)
	for i := range fan.shares {
		sh := &fan.shares[i]
		sh.pairs = arena[i*per : i*per : (i+1)*per]
		fan.wg.Add(1)
		go func() {
			defer fan.wg.Done()
			sh.err = s.scanShard(ctx, tab, i, from, to, limit, sem,
				func() { sh.pairs = sh.pairs[:0] },
				func(k, v string) { sh.pairs = append(sh.pairs, kvPair{k, v}) })
		}()
	}
	fan.wg.Wait()
	for _, sh := range fan.shares {
		if sh.err != nil {
			return sh.err
		}
	}
	for limit == 0 || uint64(len(resp.Pairs)) < limit {
		var best *scanShare
		for i := range fan.shares {
			if sh := &fan.shares[i]; len(sh.pairs) > 0 && (best == nil || sh.pairs[0].k < best.pairs[0].k) {
				best = sh
			}
		}
		if best == nil {
			break
		}
		appendPair(resp, best.pairs[0].k, best.pairs[0].v)
		best.pairs = best.pairs[1:]
	}
	return nil
}

// scanShard walks [from, to) on the shard at table position i of tab in
// one transaction under sem, handing emit each pair the shard holds live
// and owns, at most limit of them (0 = no limit). It stops once the pairs
// pass wire.MaxFrame bytes: that reply cannot be sent (the encoder turns
// it into an error reply), so the rest of the walk is not worth paying
// for. start runs at the top of every attempt: a retried walk restarts
// its output.
func (s *Store) scanShard(ctx context.Context, tab *routingTable, i int, from, to []byte, limit uint64, sem core.Semantics, start func(), emit func(k, v string)) error {
	sh, sl := tab.shards[i], tab.slices[i]
	sh.routed.Add(1)
	return sh.tm.AtomicAsCtx(ctx, sem, func(tx *core.Tx) error {
		start()
		rangeLimit := int(limit)
		if sh.ttl.Len() > 0 || tab.epoch > 0 {
			// Expired entries are filtered and must not consume the limit:
			// range unbounded, stop once enough pairs landed. Post-reshard,
			// so are keys the shard no longer owns: a split leaves the moved
			// half on the source until its scrub has run, and the new
			// owner scans those same keys — filtering by the routing slice
			// keeps the merge duplicate-free.
			rangeLimit = 0
		}
		emitted, size := uint64(0), 0
		return sh.m.RangeTx(tx, lookupKey(from), lookupKey(to), rangeLimit, func(k, v string) bool {
			if sh.expiredNow(viewBytes(k)) || (tab.epoch > 0 && !sl.owns(k)) {
				return true
			}
			emit(k, v)
			emitted, size = emitted+1, size+len(k)+len(v)
			return (limit == 0 || emitted < limit) && size <= wire.MaxFrame
		})
	})
}
