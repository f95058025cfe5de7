package stm

import "runtime"

// Sharding support for the engine's synchronization state.
//
// Event counters, the live-transaction registry and the snapshot
// registry are all striped across a power-of-two number of shards so
// that concurrent transactions touch disjoint cache lines, and each is
// touched once per attempt, never once per access: an attempt counts
// its events in its own Txn and folds them into its shell's stripe
// (Txn.stripe) when it finishes, and each registry shard is one cache
// line of atomic slots that a registrant claims with a CAS (a
// mutex-guarded map takes only what overflows a full shard). The stripe
// count is a Config knob (Config.Shards); the default is derived from
// GOMAXPROCS at engine construction.
//
// Two global atomics deliberately remain: the version clock (it defines
// commit order — irreducible in a TL2-style engine, and only writing
// commits tick it) and the transaction-id block source (one
// fetch-and-add per id *block*). Blocks are private to a Txn shell and
// survive its trips through the engine's Txn pool, so the fetch-and-add
// is paid once per txnIDBlock attempts, not once per Run — at the
// already-accepted cost that the timestamp contention manager's birth
// "age" order is creation order per id block, not global creation
// order. Ids remain engine-unique and totally ordered, which is what
// priority arbitration actually requires. (Variables draw no ids at
// all: a variable's identity is its address, see Var.ID.)

// cacheLine is the assumed cache-line size, used to pad shard entries so
// neighbouring stripes never false-share.
const cacheLine = 64

// maxShards caps the stripe count; beyond a few hundred stripes the
// aggregation cost of Stats.Snapshot and snapshotRegistry.minActive
// grows with no remaining contention to remove.
const maxShards = 256

// resolveShardCount turns the Config.Shards knob into the actual stripe
// count: a power of two in [1, maxShards], defaulting to the smallest
// power of two >= GOMAXPROCS when requested <= 0. Powers of two let
// every shard selection be a mask instead of a modulo.
func resolveShardCount(requested int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	s := 1
	for s < min(requested, maxShards) {
		s <<= 1
	}
	return s
}

// shardOf maps an id to a shard index under mask (mask = shards-1,
// shards a power of two). Ids must be mixed, not masked directly:
// attempt ids are block-allocated (txnIDBlock apart), so every
// transaction's first attempt is congruent mod the block size and raw
// low bits would collapse onto a single shard. Fibonacci hashing
// spreads any arithmetic progression; the high half of the product is
// taken because that is where the mixing lands.
func shardOf(id, mask uint64) uint64 {
	return (id * 0x9E3779B97F4A7C15) >> 32 & mask
}
