package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"polytm/internal/core"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// newDurableCfg is newDurable with full control over the checkpoint
// policy knobs (MaxChain, compactRatio).
func newDurableCfg(t *testing.T, d Durability) (*Store, *wal.RecoverResult) {
	t.Helper()
	st := NewStore(core.NewDefault())
	res, err := st.EnableDurability(d)
	if err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	return st, res.Shards[0]
}

// ckptKeyN formats the i-th fill key of the churn-bound workload.
func ckptKeyN(i int) string { return fmt.Sprintf("key-%08d", i) }

// fillKeys loads keys [0, n) in TXN batches (one WAL record per batch,
// so the fill is fast even under ModeAlways).
func fillKeys(t *testing.T, st *Store, n int, val func(i int) string) {
	t.Helper()
	const batch = 200
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		reqs := make([]wire.Request, 0, batch)
		for i := lo; i < hi; i++ {
			reqs = append(reqs, wire.Request{Op: wire.OpSet,
				Key: []byte(ckptKeyN(i)), Val: []byte(val(i))})
		}
		execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: reqs})
	}
}

// churnKeys mutates ~pct percent of the first n keys: most are
// overwritten, every 10th churned key is deleted instead. Returns the
// churned key count.
func churnKeys(t *testing.T, st *Store, n, pct int, gen string) int {
	t.Helper()
	stride := 100 / pct
	count := 0
	for i := 0; i < n; i += stride {
		if count%10 == 9 {
			execOK(t, st, &wire.Request{Op: wire.OpDel, Sem: wire.SemDefault,
				Key: []byte(ckptKeyN(i))})
		} else {
			execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault,
				Key: []byte(ckptKeyN(i)), Val: []byte(gen + "-" + strconv.Itoa(i))})
		}
		count++
	}
	return count
}

// TestIncrementalCheckpointChurnBound is the acceptance experiment for
// incremental checkpoints: on a large store with 1% churn, a delta
// checkpoint must write <= 5% of the full-checkpoint bytes, and
// recovery through base + delta + tail must yield exactly the same
// contents as a store that only ever wrote full checkpoints.
//
// The key count defaults to 100k (20k under -short) and scales to the
// paper-sized 1M-key run with POLYSERVE_CKPT_KEYS=1000000 — the
// churn-bound ratio only improves with scale, since the delta cost is
// proportional to churn while the base grows with the keyspace.
func TestIncrementalCheckpointChurnBound(t *testing.T) {
	keys := 100_000
	if testing.Short() {
		keys = 20_000
	}
	if env := os.Getenv("POLYSERVE_CKPT_KEYS"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v < 1000 {
			t.Fatalf("POLYSERVE_CKPT_KEYS=%q: need an int >= 1000", env)
		}
		keys = v
	}
	ctx := context.Background()
	val := func(i int) string { return fmt.Sprintf("val-%08d-%08x", i, i*2654435761) }

	dirInc := t.TempDir()
	dirFull := t.TempDir()
	inc, _ := newDurableCfg(t, Durability{Dir: dirInc, Fsync: wal.ModeOff, CheckpointEvery: -1})
	full, _ := newDurableCfg(t, Durability{Dir: dirFull, Fsync: wal.ModeOff, CheckpointEvery: -1,
		MaxChain: -1})
	// Identical workload on both stores: fill, base checkpoint, 1%
	// churn, second checkpoint (delta vs forced-full), then a tail of
	// un-checkpointed writes.
	for _, st := range []*Store{inc, full} {
		fillKeys(t, st, keys, val)
		if err := st.Checkpoint(ctx); err != nil {
			t.Fatalf("base checkpoint: %v", err)
		}
	}
	if kind := inc.WAL().LastCheckpointKind(); kind != wal.CkptFull {
		t.Fatalf("first checkpoint kind = %v, want full", kind)
	}
	for _, st := range []*Store{inc, full} {
		churnKeys(t, st, keys, 1, "churn")
		if err := st.Checkpoint(ctx); err != nil {
			t.Fatalf("churn checkpoint: %v", err)
		}
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault,
			Key: []byte("tail-key"), Val: []byte("tail-val")})
	}

	// Churn bound: the second checkpoint on the incremental store must
	// be a delta costing <= 5% of the base it chains from.
	chain := inc.WAL().Chain()
	if kind := inc.WAL().LastCheckpointKind(); kind != wal.CkptDelta {
		t.Fatalf("churn checkpoint kind = %v, want delta (chain %+v)", kind, chain)
	}
	if chain.Len() != 1 || chain.BaseSeg == 0 {
		t.Fatalf("chain after churn checkpoint = %+v, want base + 1 delta", chain)
	}
	if db, bb := chain.DeltaBytes(), chain.BaseBytes; db*20 > bb {
		t.Fatalf("delta checkpoint = %d bytes, > 5%% of %d-byte base", db, bb)
	} else {
		t.Logf("%d keys, 1%% churn: base %d bytes, delta %d bytes (%.2f%%)",
			keys, bb, db, 100*float64(db)/float64(bb))
	}
	if kind := full.WAL().LastCheckpointKind(); kind != wal.CkptFull {
		t.Fatalf("MaxChain -1 store wrote a %v checkpoint", kind)
	}
	// The delta is written in key order, like a base.
	prev, n := "", 0
	if err := inc.tab().shards[0].wal.ReadDelta(chain.Deltas[0].Seg, func(op wal.Op) error {
		if n++; n > 1 && op.Key <= prev {
			return fmt.Errorf("delta key %q after %q", op.Key, prev)
		}
		prev = op.Key
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Byte-identical recovery: reopen both directories and compare the
	// full contents. The incremental side must really travel the
	// base + delta + tail path.
	want := scanAll(t, inc)
	inc.CloseDurability()
	full.CloseDurability()
	inc2, resInc := newDurableCfg(t, Durability{Dir: dirInc, Fsync: wal.ModeOff, CheckpointEvery: -1})
	full2, _ := newDurableCfg(t, Durability{Dir: dirFull, Fsync: wal.ModeOff, CheckpointEvery: -1})
	defer inc2.CloseDurability()
	defer full2.CloseDurability()
	if resInc.DeltasLoaded != 1 {
		t.Fatalf("incremental recovery loaded %d deltas, want 1 (%s)", resInc.DeltasLoaded, resInc)
	}
	gotInc, gotFull := scanAll(t, inc2), scanAll(t, full2)
	if len(gotInc) != len(want) || len(gotFull) != len(want) {
		t.Fatalf("recovered sizes: inc %d, full %d, want %d", len(gotInc), len(gotFull), len(want))
	}
	for k, v := range want {
		if gotInc[k] != v {
			t.Fatalf("incremental recovery: %s = %q, want %q", k, gotInc[k], v)
		}
		if gotFull[k] != v {
			t.Fatalf("full recovery: %s = %q, want %q", k, gotFull[k], v)
		}
	}
}

// TestCheckpointChainCompaction: the chain-length bound folds the
// chain back into a full base once MaxChain deltas accumulate, and the
// compaction removes every delta file.
func TestCheckpointChainCompaction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, _ := newDurableCfg(t, Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1,
		MaxChain: 2, compactRatio: 1e9})
	defer st.CloseDurability()

	fillKeys(t, st, 50, func(i int) string { return "v0" })
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		churnKeys(t, st, 50, 10, "r"+strconv.Itoa(round))
		if err := st.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
		if kind := st.WAL().LastCheckpointKind(); kind != wal.CkptDelta {
			t.Fatalf("round %d kind = %v, want delta", round, kind)
		}
		if chain := st.WAL().Chain(); chain.Len() != round {
			t.Fatalf("round %d chain len = %d, want %d", round, chain.Len(), round)
		}
	}
	// Chain is at MaxChain: the next checkpoint must compact to a full
	// base even though more churn arrived.
	churnKeys(t, st, 50, 10, "r3")
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if kind := st.WAL().LastCheckpointKind(); kind != wal.CkptFull {
		t.Fatalf("compaction kind = %v, want full", kind)
	}
	if chain := st.WAL().Chain(); chain.Len() != 0 {
		t.Fatalf("chain after compaction = %+v, want empty", chain)
	}
	if left, err := filepath.Glob(filepath.Join(dir, "delta-*.ckpt")); err != nil || len(left) != 0 {
		t.Fatalf("delta files after compaction: %v (err %v)", left, err)
	}
}

// TestCheckpointRatioCompaction: the byte-ratio bound compacts as soon
// as accumulated delta bytes cross compactRatio x base bytes.
func TestCheckpointRatioCompaction(t *testing.T) {
	ctx := context.Background()
	st, _ := newDurableCfg(t, Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1,
		MaxChain: 100, compactRatio: 1e-12})
	defer st.CloseDurability()

	fillKeys(t, st, 50, func(i int) string { return "v0" })
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	// First post-base checkpoint: zero accumulated delta bytes, so even
	// a microscopic ratio admits one delta.
	churnKeys(t, st, 50, 10, "r1")
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if kind := st.WAL().LastCheckpointKind(); kind != wal.CkptDelta {
		t.Fatalf("first churn kind = %v, want delta", kind)
	}
	// Second: the chain now carries bytes >= ratio x base, so compact.
	churnKeys(t, st, 50, 10, "r2")
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if kind := st.WAL().LastCheckpointKind(); kind != wal.CkptFull {
		t.Fatalf("ratio-bound kind = %v, want full", kind)
	}
}

// TestCheckpointIdleSkip: a checkpoint pass over an unchanged store
// writes nothing — unless a chain is standing, in which case one final
// compaction folds it down and THEN the store goes quiet.
func TestCheckpointIdleSkip(t *testing.T) {
	ctx := context.Background()
	st, _ := newDurableCfg(t, Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1})
	defer st.CloseDurability()

	fillKeys(t, st, 20, func(i int) string { return "v0" })
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	_, _, _, ckptsAfterBase := st.WAL().Stats()
	segAfterBase := st.WAL().Segment()

	// Nothing dirty, no chain: the pass is a no-op.
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, _, n := st.WAL().Stats(); n != ckptsAfterBase {
		t.Fatalf("idle checkpoint ran: %d -> %d", ckptsAfterBase, n)
	}
	if seg := st.WAL().Segment(); seg != segAfterBase {
		t.Fatalf("idle checkpoint rotated: seg %d -> %d", segAfterBase, seg)
	}

	// Leave a chain standing, then go idle: the next pass compacts the
	// chain into a base (restart cost folds to one file), and only the
	// pass after that is the true no-op.
	churnKeys(t, st, 20, 10, "r1")
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if kind := st.WAL().LastCheckpointKind(); kind != wal.CkptDelta {
		t.Fatalf("churn kind = %v, want delta", kind)
	}
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if kind := st.WAL().LastCheckpointKind(); kind != wal.CkptFull {
		t.Fatalf("idle-with-chain kind = %v, want full compaction", kind)
	}
	if chain := st.WAL().Chain(); chain.Len() != 0 {
		t.Fatalf("chain after idle compaction = %+v", chain)
	}
	_, _, _, ckptsQuiet := st.WAL().Stats()
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, _, n := st.WAL().Stats(); n != ckptsQuiet {
		t.Fatalf("post-compaction idle checkpoint ran")
	}
}

// TestFlushForcesFullCheckpoint: FLUSH empties whole shards without
// naming keys, so it cannot ride a delta — the next checkpoint must be
// a full base, and until it lands the delta catch-up path must refuse.
func TestFlushForcesFullCheckpoint(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, _ := newDurableCfg(t, Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1})
	defer st.CloseDurability()

	fillKeys(t, st, 20, func(i int) string { return "v0" })
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	applied := st.WAL().Chain().BaseCover

	execOK(t, st, &wire.Request{Op: wire.OpFlush, Sem: wire.SemDefault})
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault,
		Key: []byte("post-flush"), Val: []byte("1")})

	// Delta catch-up cannot express "the shard was emptied": refuse.
	wantFullCatchUp(t, "flush pending", st, applied)

	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if kind := st.WAL().LastCheckpointKind(); kind != wal.CkptFull {
		t.Fatalf("post-flush kind = %v, want full", kind)
	}
	st.CloseDurability()

	st2, _ := newDurableCfg(t, Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1})
	defer st2.CloseDurability()
	if got := scanAll(t, st2); len(got) != 1 || got["post-flush"] != "1" {
		t.Fatalf("recovered after flush = %v, want only post-flush", got)
	}
}

// TestCheckpointChainStats: the chain gauges are visible through the
// wire STATS op and track the chain through delta and compaction.
func TestCheckpointChainStats(t *testing.T) {
	ctx := context.Background()
	st, _ := newDurableCfg(t, Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1})
	defer st.CloseDurability()

	stats := func() map[string]uint64 {
		resp := execOK(t, st, &wire.Request{Op: wire.OpStats, Sem: wire.SemDefault})
		out := map[string]uint64{}
		for _, c := range resp.Counters {
			out[c.Name] = c.Value
		}
		return out
	}

	got := stats()
	if got["ckpt_last_kind"] != uint64(wal.CkptNone) || got["ckpt_base_bytes"] != 0 {
		t.Fatalf("fresh store chain stats: %v", got)
	}

	fillKeys(t, st, 30, func(i int) string { return "v0" })
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	got = stats()
	if got["ckpt_last_kind"] != uint64(wal.CkptFull) || got["ckpt_base_bytes"] == 0 ||
		got["ckpt_chain_len"] != 0 || got["ckpt_delta_bytes"] != 0 {
		t.Fatalf("after base: %v", got)
	}

	churnKeys(t, st, 30, 10, "r1")
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	got = stats()
	if got["ckpt_last_kind"] != uint64(wal.CkptDelta) || got["ckpt_chain_len"] != 1 ||
		got["ckpt_delta_bytes"] == 0 {
		t.Fatalf("after delta: %v", got)
	}
	if got["ckpt_delta_bytes"] >= got["ckpt_base_bytes"] {
		t.Fatalf("delta bytes %d not churn-bounded vs base %d",
			got["ckpt_delta_bytes"], got["ckpt_base_bytes"])
	}
}

// catchUpOps runs st.CatchUp on shard 0 and returns what it emitted.
func catchUpOps(st *Store, applied uint64) (bool, []wal.Op, error) {
	var ops []wal.Op
	delta, err := st.CatchUp(context.Background(), 0, applied, func(op wal.Op) error {
		ops = append(ops, op)
		return nil
	})
	return delta, ops, err
}

// wantFullCatchUp asserts that CatchUp from applied refuses the delta
// and sends a full catch-up: a FLUSH first, then exactly the shard's
// contents as SETs.
func wantFullCatchUp(t *testing.T, edge string, st *Store, applied uint64) {
	t.Helper()
	delta, ops, err := catchUpOps(st, applied)
	if delta || err != nil {
		t.Fatalf("%s: CatchUp = delta %v, %v, want a full catch-up", edge, delta, err)
	}
	if len(ops) == 0 || ops[0].Kind != wal.OpFlush {
		t.Fatalf("%s: full catch-up does not open with FLUSH: %v", edge, ops)
	}
	checkSnapshotOps(t, edge, st, ops[1:])
}

// checkSnapshotOps asserts ops are exactly st's contents as SETs.
func checkSnapshotOps(t *testing.T, edge string, st *Store, ops []wal.Op) {
	t.Helper()
	want := scanAll(t, st)
	if len(ops) != len(want) {
		t.Fatalf("%s: snapshot shipped %d ops, store holds %d keys", edge, len(ops), len(want))
	}
	for _, op := range ops {
		if op.Kind != wal.OpSet || want[op.Key] != op.Val {
			t.Fatalf("%s: snapshot op %v %q=%q, store has %q", edge, op.Kind, op.Key, op.Val, want[op.Key])
		}
	}
}

// TestDeltaShardGating walks every refusal edge of the delta catch-up
// contract through the one catch-up call — each must answer with a
// full catch-up that opens with FLUSH — then the success path's exact
// emitted set.
func TestDeltaShardGating(t *testing.T) {
	ctx := context.Background()

	// A non-durable store has no chain and no incarnation: refuse.
	plain := NewStore(core.NewDefault())
	execOK(t, plain, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("p"), Val: []byte("1")})
	wantFullCatchUp(t, "non-durable", plain, 99)
	if plain.Incarnation() != 0 {
		t.Fatalf("non-durable incarnation = %d, want 0", plain.Incarnation())
	}

	st, _ := newDurableCfg(t, Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1})
	defer st.CloseDurability()
	if st.Incarnation() == 0 {
		t.Fatal("durable store must mint a nonzero incarnation")
	}
	if _, err := st.CatchUp(ctx, -1, 0, func(wal.Op) error { return nil }); err == nil {
		t.Fatal("out-of-range shard: CatchUp succeeded")
	}

	// No base checkpoint yet: refuse.
	fillKeys(t, st, 20, func(i int) string { return "v0" })
	wantFullCatchUp(t, "no base", st, 999)
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	base := st.WAL().Chain().BaseCover
	if base == 0 {
		t.Fatal("base cover = 0 after a live checkpoint")
	}

	// A follower whose applied position predates the base may have
	// changes buried in the base itself: refuse. Position 0 is no
	// position at all.
	wantFullCatchUp(t, "stale applied", st, base-1)
	wantFullCatchUp(t, "applied 0", st, 0)

	// Caught-up follower + live churn: the delta set is exactly the
	// dirty keys at their current values, deletes as DELs.
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault,
		Key: []byte(ckptKeyN(0)), Val: []byte("rewritten")})
	execOK(t, st, &wire.Request{Op: wire.OpDel, Sem: wire.SemDefault,
		Key: []byte(ckptKeyN(1))})
	delta, ops, err := catchUpOps(st, base)
	if !delta || err != nil {
		t.Fatalf("caught-up CatchUp = delta %v, %v", delta, err)
	}
	want := map[string]wal.Op{
		ckptKeyN(0): {Kind: wal.OpSet, Key: ckptKeyN(0), Val: "rewritten"},
		ckptKeyN(1): {Kind: wal.OpDel, Key: ckptKeyN(1)},
	}
	if len(ops) != len(want) {
		t.Fatalf("delta ops = %v, want %v", ops, want)
	}
	for _, op := range ops {
		if want[op.Key] != op {
			t.Fatalf("delta op %+v, want %+v", op, want[op.Key])
		}
	}

	// Emit errors surface to the caller (the feed must fail, not fall
	// back, when the connection itself is the problem).
	bang := fmt.Errorf("conn reset")
	if delta, err := st.CatchUp(ctx, 0, base, func(wal.Op) error { return bang }); delta || err != bang {
		t.Fatalf("emit-error CatchUp = delta %v, %v, want false, %v", delta, err, bang)
	}

	// A chain file that disappears mid-stream demotes the delta after it
	// has emitted: the FLUSH that opens the full catch-up comes after the
	// partial delta and before the first snapshot pair, so it clears both.
	for round := 0; round < 2; round++ {
		churnKeys(t, st, 20, 10, fmt.Sprintf("chain%d", round))
		if err := st.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
	}
	chain := st.WAL().Chain()
	if len(chain.Deltas) != 2 || chain.Deltas[0].Cover <= base {
		t.Fatalf("chain after two churned cuts = %+v, want two deltas past %d", chain, base)
	}
	var emitted []wal.Op
	delta, err = st.CatchUp(ctx, 0, base, func(op wal.Op) error {
		if len(emitted) == 0 {
			if err := os.Remove(filepath.Join(st.walDir, st.tab().shards[0].walName, fmt.Sprintf("delta-%08d.ckpt", chain.Deltas[1].Seg))); err != nil {
				t.Fatal(err)
			}
		}
		emitted = append(emitted, op)
		return nil
	})
	if delta || err != nil {
		t.Fatalf("CatchUp over a vanished chain file = delta %v, %v, want a full catch-up", delta, err)
	}
	flush := slices.IndexFunc(emitted, func(op wal.Op) bool { return op.Kind == wal.OpFlush })
	if flush < 1 {
		t.Fatalf("FLUSH at op %d of %v, want it after the partial delta", flush, emitted)
	}
	checkSnapshotOps(t, "vanished chain file", st, emitted[flush+1:])

	// A restarted primary recovers its base with cover 0, so position 0
	// would pass the stale-position check — it must still mean "none".
	dir := t.TempDir()
	st1, _ := newDurableCfg(t, Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1})
	fillKeys(t, st1, 20, func(i int) string { return "v1" })
	if err := st1.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st1.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	st2, _ := newDurableCfg(t, Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1})
	defer st2.CloseDurability()
	if chain := st2.WAL().Chain(); chain.BaseSeg == 0 || chain.BaseCover != 0 {
		t.Fatalf("recovered chain = %+v, want a base with cover 0", chain)
	}
	wantFullCatchUp(t, "applied 0 on a recovered base", st2, 0)
}
