package structures

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"polytm/internal/core"
	"polytm/internal/raceflag"
	"polytm/internal/stm"
)

// nodeBytes is the heap a newNode of height lvl holding key allocates,
// less its links' first records: the node's own object.
func nodeBytes[K cmp.Ordered, V any](tm *core.TM, key K, lvl int) uint64 {
	const runs = 1000
	var nils [skipMaxLevel]*skipNode[K, V]
	sink := make([]*skipNode[K, V], runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range sink {
		sink[i] = newNode(tm, key, lvl, nils[:])
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sink)
	rec := uint64(unsafe.Sizeof(stm.Version{}) + unsafe.Sizeof((*skipNode[K, V])(nil)))
	return (after.TotalAlloc-before.TotalAlloc)/runs - uint64(lvl)*rec
}

// TestSkipNodeShapes pins what one node is: at 16-byte keys each tower
// class is one allocation of 64, 80, 112 or 320 bytes (16 fewer than the
// node and a separate key clone took), the key's bytes lie inside that
// object right after its link array, a key too long to inline lies
// outside it, and the integer set's one-link node is still 32 bytes.
func TestSkipNodeShapes(t *testing.T) {
	tm := core.NewDefault()
	var nils [skipMaxLevel]*mapNode
	const key = "key-000000000042"
	link := unsafe.Sizeof(core.TVar[*mapNode]{})
	links := unsafe.Offsetof(tower[string, core.TVar[string], [1]core.TVar[*mapNode], struct{}]{}.links)
	classes := []struct {
		lvl, array int
		class      uint64
	}{{1, 1, 64}, {2, 2, 80}, {3, 4, 112}, {4, 4, 112}, {5, 16, 320}, {skipMaxLevel, 16, 320}}
	for _, c := range classes {
		n := newNode(tm, key, c.lvl, nils[:])
		k := n.key()
		off := uintptr(unsafe.Pointer(unsafe.StringData(k))) - uintptr(unsafe.Pointer(n))
		if want := links + uintptr(c.array)*link; off != want {
			t.Errorf("height %d: key bytes at offset %d, want %d, right after the %d-link array", c.lvl, off, want, c.array)
		}
		if k != key || n.height() != c.lvl {
			t.Errorf("height %d: node reads key %q, height %d", c.lvl, k, n.height())
		}
	}
	long := strings.Repeat("k", inlineKey+1)
	n := newNode(tm, long, 1, nils[:])
	if off := uintptr(unsafe.Pointer(unsafe.StringData(n.key()))) - uintptr(unsafe.Pointer(n)); off < 64 || n.key() != long {
		t.Errorf("a %d-byte key reads at offset %d (%q): want an out-of-line clone", len(long), off, n.key())
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation changes allocation sizes; they are asserted in the non-race CI step")
	}
	for _, c := range classes {
		if got := nodeBytes[string, core.TVar[string]](tm, key, c.lvl); got != c.class {
			t.Errorf("height %d with a 16-byte key: %d-byte node, want the %d-byte class", c.lvl, got, c.class)
		}
	}
	if got := nodeBytes[uint64, struct{}](tm, 42, 1); got != 32 {
		t.Errorf("set node of height 1: %d bytes, want 32", got)
	}
}

// TestSkipMapKeyLengths drives keys of every length the node layout
// distinguishes — empty, one byte, the inline array's size and its
// neighbours, and 1 MiB — through a node of every tower class, then
// through inserts from a borrowed buffer, overwrites, deletes and
// re-inserts, checking GetTx and RangeTx against a map model and the
// levels after the churn.
func TestSkipMapKeyLengths(t *testing.T) {
	lens := []int{0, 1, inlineKey - 1, inlineKey, inlineKey + 1, 1 << 20}
	var keys []string
	for _, n := range lens {
		for _, c := range "bmy" {
			keys = append(keys, strings.Repeat(string(c), n), strings.Repeat("m", max(n-1, 0))+string(c))
		}
	}
	m := NewTSkipMap(core.NewDefault())
	var nils [skipMaxLevel]*mapNode
	for _, k := range keys {
		for _, lvl := range []int{1, 2, 3, 5, skipMaxLevel} {
			if n := newNode(m.tm, k, lvl, nils[:]); n.key() != k || n.height() != lvl {
				t.Fatalf("height-%d node of a %d-byte key reads %d bytes, height %d", lvl, len(k), len(n.key()), n.height())
			}
		}
	}
	model := map[string]string{}
	gone := map[string]bool{}
	buf := make([]byte, 0, 1<<20)
	run := func(body func(tx *core.Tx) error) {
		t.Helper()
		if err := m.tm.AtomicAs(core.Def, body); err != nil {
			t.Fatal(err)
		}
	}
	put := func(k, v string) {
		t.Helper()
		buf = append(buf[:0], k...)
		var stored string
		var existed bool
		run(func(tx *core.Tx) (err error) {
			stored, existed, err = m.PutBytesTx(tx, unsafe.String(unsafe.SliceData(buf), len(buf)), []byte(v))
			return err
		})
		for i := range buf {
			buf[i] = '#'
		}
		_, had := model[k]
		if existed != had || stored != k {
			t.Fatalf("PutBytesTx(%d-byte key) = %d bytes, existed %v; model has it: %v", len(k), len(stored), existed, had)
		}
		model[k] = v
		delete(gone, k)
	}
	check := func(stage string) {
		t.Helper()
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		slices.Sort(want)
		var got []string
		run(func(tx *core.Tx) error {
			got = got[:0]
			for _, k := range keys {
				v, ok, err := m.GetTx(tx, k)
				if err != nil {
					return err
				}
				if mv, in := model[k]; ok != in || v != mv {
					t.Fatalf("%s: GetTx(%d-byte key) = %q, %v; model %q, %v", stage, len(k), v, ok, mv, in)
				}
			}
			return m.RangeTx(tx, "", "", 0, func(k, v string) bool {
				if model[k] != v {
					t.Fatalf("%s: RangeTx pairs a %d-byte key with %q, model %q", stage, len(k), v, model[k])
				}
				got = append(got, k)
				return true
			})
		})
		if !slices.Equal(got, want) {
			t.Fatalf("%s: RangeTx visits %d keys, model has %d in another order", stage, len(got), len(want))
		}
		checkLevels(t, &m.skipCore, gone)
	}
	for i, k := range keys {
		put(k, fmt.Sprintf("v%d", i))
	}
	check("inserted")
	for i, k := range keys {
		if i%2 == 0 {
			run(func(tx *core.Tx) error { _, err := m.PutTx(tx, k, fmt.Sprintf("w%d", i)); return err })
			model[k] = fmt.Sprintf("w%d", i)
		}
	}
	check("overwritten")
	for round := range 4 {
		for i, k := range keys {
			if (i+round)%3 != 0 {
				continue
			}
			var stored string
			var removed bool
			run(func(tx *core.Tx) (err error) { stored, removed, err = m.DeleteTx(tx, k); return err })
			if _, had := model[k]; removed != had || (removed && stored != k) {
				t.Fatalf("DeleteTx(%d-byte key) = %d bytes, removed %v; model has it: %v", len(k), len(stored), removed, had)
			}
			delete(model, k)
			gone[k] = true
		}
		check(fmt.Sprintf("deleted, round %d", round))
		for i, k := range keys {
			if (i+round)%3 == 0 && i%2 == round%2 {
				put(k, fmt.Sprintf("r%d-%d", round, i))
			}
		}
		check(fmt.Sprintf("re-inserted, round %d", round))
	}
}
