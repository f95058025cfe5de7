package server

import (
	"context"
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
	d.markFlush()
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
