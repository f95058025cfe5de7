package server

import (
	"testing"

	"polytm/internal/raceflag"
)

// TestDirtySetMarkAllocs pins what the durable write path pays to
// re-dirty a key: nothing. The set is keyed by string and fed []byte
// keys; only a lookup lets Go skip the conversion, so mark must look
// before it assigns — an unguarded assignment allocated the key string
// on every durable write.
func TestDirtySetMarkAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts; budgets are asserted in the non-race CI step")
	}
	var d dirtySet
	key := []byte("key-00042")
	d.mark(key)
	if avg := testing.AllocsPerRun(1000, func() { d.mark(key) }); avg != 0 {
		t.Errorf("re-marking a present key: %.2f allocs, want 0", avg)
	}
	other := []byte("key-00043")
	d.mark(other)
	other[8] = '4' // the set must own its keys, not view the caller's bytes
	keys, flushed := d.take()
	if _, ok := keys["key-00042"]; !ok || len(keys) != 2 || flushed {
		t.Fatalf("take = %v, %v; want key-00042 and key-00043, not flushed", keys, flushed)
	}
	if _, ok := keys["key-00043"]; !ok {
		t.Fatalf("take = %v: the inserted key changed with the caller's buffer", keys)
	}
	d.restore(keys, false)
	if n, _ := d.peek(); n != 2 {
		t.Fatalf("restore into an empty set kept %d keys, want 2", n)
	}
}
