package structures

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"polytm/internal/core"
)

// putAt is PutTx with the tower height chosen by the caller instead of
// drawn, so a test can place tall towers where it wants them.
func putAt(m *TSkipMap, key, val string, lvl int) {
	must(m.tm.AtomicAs(core.Def, func(tx *core.Tx) error {
		n, existed, err := m.put(tx, key, lvl)
		if err == nil && !existed {
			n.val.Init(m.tm, val)
		}
		return err
	}))
}

// checkLevels walks every level of c outside any transaction (the caller
// has stopped all writers) and fails t unless each level is sorted, is a
// sublist of the level below, holds no node above that node's height, and
// reaches no key of gone.
func checkLevels[K cmp.Ordered, V any](t *testing.T, c *skipCore[K, V], gone map[K]bool) {
	t.Helper()
	var below map[*skipNode[K, V]]bool
	for l := range skipMaxLevel {
		here := map[*skipNode[K, V]]bool{}
		var prev *skipNode[K, V]
		for n := c.head.next(l).LoadDirect(); n != nil; n = n.next(l).LoadDirect() {
			switch {
			case l >= n.height():
				t.Fatalf("level %d reaches %v, a node of height %d", l, n.key(), n.height())
			case prev != nil && prev.key() >= n.key():
				t.Fatalf("level %d: %v follows %v", l, n.key(), prev.key())
			case l > 0 && !below[n]:
				t.Fatalf("level %d reaches %v, which level %d does not", l, n.key(), l-1)
			case gone[n.key()]:
				t.Fatalf("level %d reaches deleted key %v", l, n.key())
			}
			here[n], prev = true, n
		}
		below = here
	}
}

// TestSkipHintBelowTowers lowers the height hint under the towers the map
// really holds — to nothing, to the bottom level, to two — before every
// operation. A search may start at any level, so every lookup must still
// answer right; an insert must still link its tower at every level it
// drew, and a delete must still unlink a tall node at every level.
func TestSkipHintBelowTowers(t *testing.T) {
	for _, hint := range []int32{0, 1, 2} {
		t.Run(fmt.Sprintf("top=%d", hint), func(t *testing.T) {
			m := NewTSkipMap(core.NewDefault())
			key := func(i int) string { return fmt.Sprintf("key-%04d", i) }
			for i := 0; i < 400; i += 2 {
				putAt(m, key(i), "v"+key(i), 1+i%skipMaxLevel)
			}
			low := func() { m.top.Store(hint) }
			for i := 0; i < 400; i++ {
				low()
				v, ok := m.Get(key(i), core.Snapshot)
				if want := i%2 == 0; ok != want || (ok && v != "v"+key(i)) {
					t.Fatalf("Get(%s) = %q, %v; want present %v", key(i), v, ok, want)
				}
			}
			low()
			if got := m.Range(key(101), key(111), 0, core.Weak); len(got) != 5 || got[0].Key != key(102) || got[4].Key != key(110) {
				t.Fatalf("Range[%s, %s) = %v", key(101), key(111), got)
			}
			for i := 1; i < 400; i += 2 { // odd keys: fresh inserts, some of them tall
				low()
				if m.Put(key(i), "v"+key(i), core.Def) {
					t.Fatalf("fresh Put(%s) found the key", key(i))
				}
			}
			low()
			putAt(m, key(400), "v"+key(400), skipMaxLevel)
			gone := map[string]bool{}
			for i := 0; i <= 400; i += 4 { // every fourth key, every height among them
				low()
				if !m.Delete(key(i), core.Def) {
					t.Fatalf("Delete(%s) missed", key(i))
				}
				gone[key(i)] = true
			}
			low()
			if !m.Put(key(1), "w", core.Def) {
				t.Fatalf("overwrite Put(%s) missed the key", key(1))
			}
			checkLevels(t, &m.skipCore, gone)
			for i := 0; i <= 400; i++ {
				low()
				if _, ok := m.Get(key(i), core.Def); ok == gone[key(i)] {
					t.Fatalf("Get(%s) = %v after the deletes", key(i), ok)
				}
			}
			if n := m.Len(); n != 401-len(gone) {
				t.Fatalf("Len = %d, want %d", n, 401-len(gone))
			}
		})
	}
}

// TestSkipHintUnderChurn runs inserts that draw tall towers, deletes of
// the keys they insert, a goroutine that keeps knocking the height hint
// back down, and snapshot and weak readers, all at once. Afterwards every
// level is sorted and a sublist of the one below, no deleted key is
// reachable at any level, and every kept key reads back. Run with -race.
func TestSkipHintUnderChurn(t *testing.T) {
	m := NewTSkipMap(core.NewDefault())
	const writers, perWriter = 3, 120
	key := func(g, i int) string { return fmt.Sprintf("k%d-%03d", g, i) }
	var stop atomic.Bool
	var wg, readers sync.WaitGroup
	for g := range writers {
		wg.Add(2)
		go func() { // inserter: half the towers uniform over every height
			defer wg.Done()
			for i := range perWriter {
				lvl := randLevel()
				if i%2 == 0 {
					lvl = 1 + rand.IntN(skipMaxLevel)
				}
				putAt(m, key(g, i), "v"+key(g, i), lvl)
			}
		}()
		go func() { // deleter: every third key, as soon as it lands
			defer wg.Done()
			for i := 0; i < perWriter; i += 3 {
				for !m.Delete(key(g, i), core.Def) {
					runtime.Gosched()
				}
			}
		}()
	}
	readers.Add(3)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			m.top.Store(rand.Int32N(3))
			runtime.Gosched()
		}
	}()
	for _, sem := range []core.Semantics{core.Snapshot, core.Weak} {
		go func() {
			defer readers.Done()
			for !stop.Load() {
				g, i := rand.IntN(writers), rand.IntN(perWriter)
				if v, ok := m.Get(key(g, i), sem); ok && v != "v"+key(g, i) {
					t.Errorf("%v Get(%s) = %q", sem, key(g, i), v)
					return
				}
				prev := ""
				for _, kv := range m.Range(key(g, 0), "", 16, sem) {
					if kv.Key <= prev {
						t.Errorf("%v Range: %q follows %q", sem, kv.Key, prev)
						return
					}
					prev = kv.Key
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()

	gone := map[string]bool{}
	for g := range writers {
		for i := 0; i < perWriter; i += 3 {
			gone[key(g, i)] = true
		}
	}
	checkLevels(t, &m.skipCore, gone)
	for g := range writers {
		for i := range perWriter {
			if _, ok := m.Get(key(g, i), core.Snapshot); ok == gone[key(g, i)] {
				t.Fatalf("Get(%s) = %v after the churn", key(g, i), ok)
			}
		}
	}
	if n, want := m.Len(), writers*perWriter-len(gone); n != want {
		t.Fatalf("Len = %d, want %d", n, want)
	}
}
