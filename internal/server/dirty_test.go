package server

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"testing"

	"polytm/internal/raceflag"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// TestDirtySetMarkAllocs pins what the durable write path pays to dirty
// a key: nothing, first mark of a cycle included. The set takes an owned
// string — the map's own copy of the key — and keeps it, so there is no
// clone to make; the shard pays only for the map's own growth.
func TestDirtySetMarkAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts; budgets are asserted in the non-race CI step")
	}
	var d dirtySet
	d.mark("key-00042")
	if avg := testing.AllocsPerRun(1000, func() { d.mark("key-00042") }); avg != 0 {
		t.Errorf("re-marking a present key: %.2f allocs, want 0", avg)
	}
	// First marks: once the map has room (it is emptied, not shrunk),
	// a key new to the cycle costs nothing either.
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = string([]byte{'k', byte(i)})
		d.mark(keys[i])
	}
	clear(d.keys)
	i := 0
	if avg := testing.AllocsPerRun(len(keys)-1, func() { d.mark(keys[i]); i++ }); avg != 0 {
		t.Errorf("first mark of a key: %.2f allocs, want 0", avg)
	}
	if n, flushed := d.peek(); n != len(keys) || flushed {
		t.Fatalf("peek = %d, %v; want %d keys, not flushed", n, flushed, len(keys))
	}
}

// TestDirtySetTakeRestore covers the failed-checkpoint path: take empties
// the set (its map goes nil), and restore must merge the taken keys back
// into that nil set and OR the flushed flag, or a failed delta write would
// carve those keys out of every later delta.
func TestDirtySetTakeRestore(t *testing.T) {
	var d dirtySet
	d.mark("key-00042")
	d.mark("key-00043")
	keys, flushed := d.take()
	if _, ok := keys["key-00042"]; !ok || len(keys) != 2 || flushed {
		t.Fatalf("take = %v, %v; want key-00042 and key-00043, not flushed", keys, flushed)
	}
	if _, ok := keys["key-00043"]; !ok {
		t.Fatalf("take = %v; want key-00043 in it", keys)
	}
	if n, flushed := d.peek(); n != 0 || flushed {
		t.Fatalf("peek after take = %d, %v; want an empty, unflushed set", n, flushed)
	}
	d.restore(keys, false)
	if n, flushed := d.peek(); n != 2 || flushed {
		t.Fatalf("restore into an empty set = %d keys, flushed %v; want 2, not flushed", n, flushed)
	}
	// A key marked while the checkpoint was failing merges with the
	// restored ones, and either side's flush survives.
	keys, _ = d.take()
	d.mark("key-00044")
	d.restore(keys, true)
	if n, flushed := d.peek(); n != 3 || !flushed {
		t.Fatalf("restore beside a new mark = %d keys, flushed %v; want 3, flushed", n, flushed)
	}
	keys, _ = d.take()
	d.markFull()
	d.restore(keys, false)
	if n, flushed := d.peek(); n != 3 || !flushed {
		t.Fatalf("restore under a newer flush = %d keys, flushed %v; want 3, flushed", n, flushed)
	}
}

// TestDirtyKeysAreTheMapsOwn: the dirty sets remember the key string the
// map holds, never a view of the request. Keys are inserted, overwritten
// and deleted out of one buffer that is scribbled on after every
// request; the checkpointer's set must still name each of them.
func TestDirtyKeysAreTheMapsOwn(t *testing.T) {
	st, _ := newDurable(t, t.TempDir(), wal.ModeOff)
	defer st.CloseDurability()
	kb := make([]byte, 0, 16)
	do := func(op wire.Op, key string) {
		t.Helper()
		kb = append(kb[:0], key...)
		execOK(t, st, &wire.Request{Op: op, Sem: wire.SemDefault, Key: kb, Val: []byte("v"), Delta: 1})
		for i := range kb {
			kb[i] = '#'
		}
	}
	do(wire.OpSet, "inserted")
	do(wire.OpSet, "overwritten")
	if err := st.Checkpoint(context.Background()); err != nil { // a new cycle: "overwritten" is clean again
		t.Fatal(err)
	}
	do(wire.OpSet, "overwritten")
	do(wire.OpIncr, "counted")
	do(wire.OpSet, "deleted")
	do(wire.OpDel, "deleted")
	keys, flushed := st.tab().shards[0].dirty.take()
	for _, k := range []string{"overwritten", "counted", "deleted"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("dirty set %v lacks %q: the marked key changed with the request buffer", keys, k)
		}
	}
	if len(keys) != 3 || flushed {
		t.Errorf("dirty set = %v, flushed %v; want exactly the three keys written this cycle", keys, flushed)
	}
}

// TestDirtySetFullRecordsNothing: while the next take is a full walk,
// no key is recorded — by a mark, by a replayed group, or past a
// replayed FLUSH — and the take that lowers the flag lets marks resume.
// The checkpointer's set and a reshard's rdirty are this one type.
func TestDirtySetFullRecordsNothing(t *testing.T) {
	var d dirtySet
	d.mark("before")
	d.markFull()
	d.mark("during")
	d.markOps([]wal.Op{{Kind: wal.OpSet, Key: "replayed"}, {Kind: wal.OpDel, Key: "gone"}})
	if n, full := d.peek(); n != 0 || !full {
		t.Fatalf("peek under a full cut = %d, %v; want 0 keys, full", n, full)
	}
	if keys, full := d.take(); len(keys) != 0 || !full {
		t.Fatalf("take = %v, %v; want no keys, full", keys, full)
	}
	d.mark("after")
	if n, full := d.peek(); n != 1 || full {
		t.Fatalf("peek after the cut = %d, %v; want the one key marked since, not full", n, full)
	}
	d.markOps([]wal.Op{{Kind: wal.OpSet, Key: "x"}, {Kind: wal.OpFlush}, {Kind: wal.OpSet, Key: "y"}})
	if n, full := d.peek(); n != 0 || !full {
		t.Fatalf("peek past a replayed FLUSH = %d, %v; want 0 keys, full", n, full)
	}
}

// TestFreshDurableStoreTracksNothing: a fresh durable store has no base,
// so its first cut is a full one and an initial import dirties nothing.
func TestFreshDurableStoreTracksNothing(t *testing.T) {
	st, _ := newDurable(t, t.TempDir(), wal.ModeOff)
	defer st.CloseDurability()
	fillKeys(t, st, 500, func(i int) string { return "v" })
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("one-more"), Val: []byte("v")})
	for _, sh := range st.tab().shards {
		if n, full := sh.dirty.peek(); n != 0 || !full {
			t.Fatalf("shard %d after an import into a fresh store: peek = %d, %v; want 0, true", sh.idx, n, full)
		}
	}
}

// cutHook is a checkpoint context whose Err runs fire once: the first
// time it is asked after the log has rotated. That ask is the base
// walk's first chunk starting, so fire runs between the cut and the base
// install.
type cutHook struct {
	context.Context
	log  *wal.Log
	seg  uint64
	fire func()
}

func (c *cutHook) Err() error {
	if c.fire != nil && c.log.Segment() > c.seg {
		fire := c.fire
		c.fire = nil
		fire()
	}
	return c.Context.Err()
}

// TestDirtyMarksResumeAtTheCut: a fresh store's first cut lowers the
// full flag at the rotation, not at the base install, so a SET landing
// between the two is marked, rides the next delta and survives a reopen
// once the segment holding it is gone.
func TestDirtyMarksResumeAtTheCut(t *testing.T) {
	dir := t.TempDir()
	st, _ := newDurableCfg(t, Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1})
	want := map[string]string{}
	fillKeys(t, st, 100, func(i int) string { return "v0" })
	for i := 0; i < 100; i++ {
		want[ckptKeyN(i)] = "v0"
	}
	sh := st.tab().shards[0]
	if n, full := sh.dirty.peek(); n != 0 || !full {
		t.Fatalf("before the first cut: peek = %d, %v; want 0, true", n, full)
	}
	injected := ckptKeyN(0)
	set := func() {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte(injected), Val: []byte("injected")})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := &cutHook{Context: ctx, log: sh.wal, seg: sh.wal.Segment(), fire: set}
	if err := st.Checkpoint(hook); err != nil {
		t.Fatal(err)
	}
	if hook.fire != nil {
		t.Fatal("the SET never ran between the rotation and the base install")
	}
	want[injected] = "injected"
	if n, full := sh.dirty.peek(); n != 1 || full {
		t.Fatalf("after the first cut: peek = %d, %v; want the injected key, not full", n, full)
	}
	if err := st.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	chain := sh.wal.Chain()
	if len(chain.Deltas) != 1 {
		t.Fatalf("second cut: chain %+v, want one delta", chain)
	}
	got := map[string]string{}
	if err := sh.wal.ReadDelta(chain.Deltas[0].Seg, func(op wal.Op) error {
		got[op.Key] = op.Val
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[injected] != "injected" {
		t.Fatalf("second cut's delta = %v, want only %s=injected", got, injected)
	}
	if err := st.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	st2, _ := newDurableCfg(t, Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1})
	defer st2.CloseDurability()
	if rec := scanAll(t, st2); !maps.Equal(rec, want) {
		t.Fatalf("reopened store holds %d keys (%s=%q), want %d (%s=injected)", len(rec), injected, rec[injected], len(want), injected)
	}
}

// TestFlushTracksNothingUntilTheCut: after a FLUSH the next cut is a
// full base, so SETs record no dirty key until that cut; from it on they
// do again, and the store reopens with exactly the post-FLUSH writes.
func TestFlushTracksNothingUntilTheCut(t *testing.T) {
	dir := t.TempDir()
	st, _ := newDurableCfg(t, Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1})
	set := func(k string) {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte(k), Val: []byte(k)})
	}
	peek := func(when string, wantN int, wantFull bool) {
		t.Helper()
		if n, full := st.tab().shards[0].dirty.peek(); n != wantN || full != wantFull {
			t.Fatalf("%s: peek = %d, %v; want %d, %v", when, n, full, wantN, wantFull)
		}
	}
	set("a")
	if err := st.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	set("b")
	set("c")
	peek("after a base", 2, false)
	execOK(t, st, &wire.Request{Op: wire.OpFlush, Sem: wire.SemDefault})
	set("d")
	set("e")
	peek("after a FLUSH", 0, true)
	if err := st.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if kind := st.WAL().LastCheckpointKind(); kind != wal.CkptFull {
		t.Fatalf("post-flush cut kind = %v, want full", kind)
	}
	set("f")
	peek("after the post-FLUSH cut", 1, false)
	if err := st.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	st2, _ := newDurableCfg(t, Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1})
	defer st2.CloseDurability()
	if got := scanAll(t, st2); !maps.Equal(got, map[string]string{"d": "d", "e": "e", "f": "f"}) {
		t.Fatalf("reopened after the FLUSH = %v, want d, e and f", got)
	}
}

// TestDeletedKeysPinNoNodes: a deleted key the dirty set keeps for the
// next delta is a copy, not the map's own key, which views the bytes of
// the node the delete unlinked. Holding that would hold the node, its
// value cell, its link records and, along its links, every node deleted
// after it. 100k keys with 64-byte values are deleted on a durable
// shard, once after a checkpoint (the delete's mark is the key's first
// of the cycle) and once in the cycle that wrote them (the set already
// holds the write's key, and must take the copy in its place); the heap
// left per deleted key must be what the set's own entry costs (≈ 50 B;
// ≈ 234 B when the delete hands over the map's key).
func TestDeletedKeysPinNoNodes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation changes object sizes; the footprint is asserted in the non-race CI step")
	}
	const n = 100_000
	for _, row := range []struct {
		name       string
		checkpoint bool // between the writes and the deletes
	}{{"deleted after a checkpoint", true}, {"written and deleted in one cycle", false}} {
		t.Run(row.name, func(t *testing.T) {
			st, _ := newDurableCfg(t, Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1})
			defer st.CloseDurability()
			ctx := context.Background()
			// The first checkpoint gives the chain its base, so marks
			// record keys from here on.
			if err := st.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
			req := wire.Request{Sem: wire.SemDefault, Val: make([]byte, 64)}
			var resp wire.Response
			do := func(op wire.Op, want wire.Status) {
				t.Helper()
				req.Op = op
				for i := 0; i < n; i++ {
					req.Key = fmt.Appendf(req.Key[:0], "key-%012d", i)
					if st.ExecuteInto(&req, &resp); resp.Status != want {
						t.Fatalf("%v %s: %v %s", op, req.Key, resp.Status, resp.Msg)
					}
				}
			}
			// Two collections before each reading, as TestWalkFootprint
			// takes: the second frees what a sync.Pool kept for one more.
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			do(wire.OpSet, wire.StatusOK)
			if row.checkpoint {
				if err := st.Checkpoint(ctx); err != nil {
					t.Fatal(err)
				}
			}
			do(wire.OpDel, wire.StatusOK)
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			if marked, _ := st.tab().shards[0].dirty.peek(); marked != n {
				t.Fatalf("dirty set holds %d keys, want the %d deleted", marked, n)
			}
			perKey := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
			t.Logf("%d deleted keys: %.1f B/key left", n, perKey)
			if perKey > 64 {
				t.Errorf("%.1f B per deleted key left on the heap, want <= 64: a kept key pins its node", perKey)
			}
			runtime.KeepAlive(st)
		})
	}
}
