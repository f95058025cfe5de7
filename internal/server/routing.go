package server

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// ---- epoch-versioned routing ----
//
// The keyspace is partitioned by extendible hashing: each shard owns
// the hash slice (mod, res) — every key whose FNV-1a hash h satisfies
// h % mod == res. A fresh N-shard store gives shard i the slice
// (N, i), which is exactly the historical h % N routing. A SPLIT of a
// shard owning (M, r) halves its slice: the source keeps (2M, r) and
// the new shard takes (2M, r+M) — a key's owner changes only between
// those two, so the rest of the keyspace never moves. A MERGE is the
// inverse, legal only for such a buddy pair.
//
// The live table is immutable once published: every request snapshots
// one *routingTable pointer and groups, fans out, and 2PCs against
// that one consistent view. A reshard publishes a fresh table (epoch
// incremented) while still holding the frozen shard's irrevocable
// token, so a mutation that raced the cutover re-checks ownership
// inside its transaction body and retries through the new table (see
// errMovedKey) instead of writing to a shard that no longer owns its
// key.

// hashSlice is one shard's share of the keyspace: every key whose hash
// h has h % mod == res.
type hashSlice struct {
	mod, res uint64
}

// routingTable is one immutable routing epoch: the shards in table
// order with their hash slices. Slices live in the table, NOT on the
// shard — a cutover changes the source shard's slice, and requests
// still working against the previous table must keep seeing the slice
// that table routed by.
type routingTable struct {
	epoch  uint64
	shards []*shard
	slices []hashSlice // parallel to shards

	// uniform is the shared modulus when every slice has the same one
	// (the all-splits-balanced common case, including every never-resharded
	// store): routing is then a single h % uniform. 0 when mixed.
	uniform uint64
}

// newRoutingTable builds a table, computing the uniform fast path.
// slices[i] is shards[i]'s; callers keep both sorted by residue.
func newRoutingTable(epoch uint64, shards []*shard, slices []hashSlice) *routingTable {
	t := &routingTable{epoch: epoch, shards: shards, slices: slices}
	t.uniform = slices[0].mod
	for _, sl := range slices {
		if sl.mod != t.uniform {
			t.uniform = 0
			break
		}
	}
	if t.uniform != 0 {
		// The uniform dispatch indexes by h % mod, so the table must be
		// ordered res 0..mod-1 — newRoutingTable callers keep it sorted.
		for i, sl := range slices {
			if sl.res != uint64(i) {
				t.uniform = 0
				break
			}
		}
	}
	return t
}

// pos returns the table position owning hash h.
func (t *routingTable) pos(h uint64) int {
	if t.uniform != 0 {
		return int(h % t.uniform)
	}
	for i, sl := range t.slices {
		if h%sl.mod == sl.res {
			return i
		}
	}
	// Unreachable for a well-formed table (the slices partition the
	// residue space); routing to 0 beats panicking mid-request.
	return 0
}

// shardFor returns the shard owning hash h.
func (t *routingTable) shardFor(h uint64) *shard { return t.shards[t.pos(h)] }

// posByID returns the table position of the shard with the given
// stable id, -1 when absent.
func (t *routingTable) posByID(id int) int {
	for i, sh := range t.shards {
		if sh.idx == id {
			return i
		}
	}
	return -1
}

// hashKey is the routing hash: FNV-1a 64 over the key bytes. It must
// be stable across restarts — it decides which shard's WAL a key's
// records live in.
func hashKey(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// owns reports whether key, as stored, falls in the slice.
func (sl hashSlice) owns(key string) bool { return hashKey(viewBytes(key))%sl.mod == sl.res }

// splitSlices derives the two child slices of splitting (mod, res):
// the source keeps (2·mod, res), the new shard takes (2·mod, res+mod).
func splitSlices(mod, res uint64) (srcMod, srcRes, dstMod, dstRes uint64) {
	return 2 * mod, res, 2 * mod, res + mod
}

// mergeable validates that slices a and b are a buddy pair — the exact
// inverse of one split — and returns the merged slice. Buddies share a
// modulus that is even, and differ in exactly the top residue bit:
// b.res == a.res + mod/2.
func mergeable(aMod, aRes, bMod, bRes uint64) (mod, res uint64, err error) {
	if aMod != bMod {
		return 0, 0, fmt.Errorf("server: MERGE of unlike moduli %d and %d", aMod, bMod)
	}
	if aMod < 2 || aMod%2 != 0 {
		return 0, 0, fmt.Errorf("server: MERGE at modulus %d has no buddy pairs", aMod)
	}
	if bRes != aRes+aMod/2 {
		return 0, 0, fmt.Errorf("server: shards with residues %d and %d (mod %d) are not buddies", aRes, bRes, aMod)
	}
	return aMod / 2, aRes, nil
}

// ---- reshard grace period ----
//
// Turning a shard's capture gate on (shard.resharding) only takes
// effect for mutations that READ the flag after it is set. A mutation
// that read the gate as closed may still be in flight, about to commit
// without the irrevocable token and without marking the reshard dirty
// set — invisible to the copy protocol. graceGate is the RCU-style
// answer: every gated mutation enters the gate for its duration, and
// the resharder, after setting the flag, waits for one full grace
// period — every mutation that entered before the flag flip has
// exited; everything after sees the flag.
type graceGate struct {
	gen atomic.Uint64
	cnt [2]atomic.Int64 // in-flight entries per generation parity
}

// enter registers an in-flight gated mutation and returns the ticket
// exit needs. The re-check handles the flip race: incrementing a slot
// whose generation just advanced would let synchronize miss us, so we
// back out and land in the new generation instead.
func (g *graceGate) enter() uint64 {
	for {
		gen := g.gen.Load()
		g.cnt[gen&1].Add(1)
		if g.gen.Load() == gen {
			return gen
		}
		g.cnt[gen&1].Add(-1)
	}
}

// exit unregisters an in-flight mutation.
func (g *graceGate) exit(gen uint64) { g.cnt[gen&1].Add(-1) }

// synchronize advances the generation and waits until every mutation
// of the previous one has exited. Callers serialize (reshardMu).
func (g *graceGate) synchronize() {
	old := g.gen.Add(1) - 1
	for g.cnt[old&1].Load() != 0 {
		runtime.Gosched()
	}
}
