package structures

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"polytm/internal/core"
	"polytm/internal/raceflag"
)

func TestSkipMapBasic(t *testing.T) {
	tm := core.NewDefault()
	m := NewTSkipMap(tm)

	if _, ok := m.Get("a", core.Snapshot); ok {
		t.Fatal("empty map reported a key")
	}
	if existed := m.Put("b", "1", core.Def); existed {
		t.Fatal("fresh insert reported existing key")
	}
	if existed := m.Put("a", "2", core.Def); existed {
		t.Fatal("fresh insert reported existing key")
	}
	if existed := m.Put("b", "3", core.Def); !existed {
		t.Fatal("overwrite did not report existing key")
	}
	if v, ok := m.Get("b", core.Snapshot); !ok || v != "3" {
		t.Fatalf("Get(b) = %q,%v; want \"3\",true", v, ok)
	}
	if v, ok := m.Get("a", core.Weak); !ok || v != "2" {
		t.Fatalf("Get(a) = %q,%v; want \"2\",true", v, ok)
	}
	if n := m.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	if removed := m.Delete("nope", core.Def); removed {
		t.Fatal("Delete of absent key reported removal")
	}
	if removed := m.Delete("a", core.Def); !removed {
		t.Fatal("Delete of present key reported no removal")
	}
	if n := m.Len(); n != 1 {
		t.Fatalf("Len after delete = %d, want 1", n)
	}
}

func TestSkipMapRangeOrderedAndBounded(t *testing.T) {
	tm := core.NewDefault()
	m := NewTSkipMap(tm)
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie", "foxtrot"}
	for i, k := range keys {
		m.Put(k, fmt.Sprint(i), core.Def)
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)

	all := m.Range("", "", 0, core.Weak)
	if len(all) != len(keys) {
		t.Fatalf("full range returned %d pairs, want %d", len(all), len(keys))
	}
	for i, kv := range all {
		if kv.Key != sorted[i] {
			t.Fatalf("range out of order at %d: %q, want %q", i, kv.Key, sorted[i])
		}
	}

	// Half-open window [bravo, echo) — excludes echo and foxtrot.
	win := m.Range("bravo", "echo", 0, core.Snapshot)
	want := []string{"bravo", "charlie", "delta"}
	if len(win) != len(want) {
		t.Fatalf("window returned %d pairs, want %d (%v)", len(win), len(want), win)
	}
	for i, kv := range win {
		if kv.Key != want[i] {
			t.Fatalf("window[%d] = %q, want %q", i, kv.Key, want[i])
		}
	}

	// Limit cuts the walk short.
	if lim := m.Range("", "", 2, core.Weak); len(lim) != 2 || lim[0].Key != "alpha" || lim[1].Key != "bravo" {
		t.Fatalf("limited range = %v, want first two keys", lim)
	}
}

func TestSkipMapClearAndRebuild(t *testing.T) {
	tm := core.NewDefault()
	m := NewTSkipMap(tm)
	const n = 100
	for i := 0; i < n; i++ {
		m.Put(fmt.Sprintf("k%03d", i), fmt.Sprint(i), core.Def)
	}

	var rebuilt int
	must(tm.Atomic(func(tx *core.Tx) error {
		var err error
		rebuilt, err = m.RebuildTx(tx)
		return err
	}, core.WithSemantics(core.Irrevocable)))
	if rebuilt != n {
		t.Fatalf("RebuildTx touched %d keys, want %d", rebuilt, n)
	}
	if m.Len() != n {
		t.Fatalf("Len after rebuild = %d, want %d", m.Len(), n)
	}
	all := m.Range("", "", 0, core.Snapshot)
	if len(all) != n {
		t.Fatalf("range after rebuild returned %d, want %d", len(all), n)
	}
	for i, kv := range all {
		if want := fmt.Sprintf("k%03d", i); kv.Key != want || kv.Val != fmt.Sprint(i) {
			t.Fatalf("after rebuild pair %d = %+v, want {%s %d}", i, kv, want, i)
		}
	}

	var cleared int
	must(tm.Atomic(func(tx *core.Tx) error {
		var err error
		cleared, err = m.ClearTx(tx)
		return err
	}, core.WithSemantics(core.Irrevocable)))
	if cleared != n {
		t.Fatalf("ClearTx removed %d, want %d", cleared, n)
	}
	if m.Len() != 0 || len(m.Range("", "", 0, core.Snapshot)) != 0 {
		t.Fatal("map not empty after clear")
	}
}

// TestSkipMapConcurrentMixedSemantics hammers the map from writers (def),
// elastic scanners (weak), snapshot readers, and an irrevocable
// rebuilder, then checks the exact final contents. Run with -race.
func TestSkipMapConcurrentMixedSemantics(t *testing.T) {
	tm := core.NewDefault()
	m := NewTSkipMap(tm)
	const workers = 4
	const perWorker = 150

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-%03d", w, i)
				m.Put(key, fmt.Sprint(i), core.Def)
				if v, ok := m.Get(key, core.Snapshot); !ok || v != fmt.Sprint(i) {
					t.Errorf("read-your-writes violated for %s: %q,%v", key, v, ok)
					return
				}
				if i%10 == 9 {
					m.Delete(key, core.Def)
				}
				if i%25 == 0 {
					// Elastic scan of this worker's prefix: keys must come
					// back in order even while towers churn.
					prev := ""
					for _, kv := range m.Range(fmt.Sprintf("w%d-", w), fmt.Sprintf("w%d.", w), 0, core.Weak) {
						if kv.Key <= prev {
							t.Errorf("scan out of order: %q after %q", kv.Key, prev)
							return
						}
						prev = kv.Key
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var adminWg sync.WaitGroup
	adminWg.Add(1)
	go func() {
		defer adminWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			must(tm.Atomic(func(tx *core.Tx) error {
				_, err := m.RebuildTx(tx)
				return err
			}, core.WithSemantics(core.Irrevocable)))
		}
	}()
	wg.Wait()
	close(stop)
	adminWg.Wait()

	want := map[string]string{}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if i%10 == 9 {
				continue
			}
			want[fmt.Sprintf("w%d-%03d", w, i)] = fmt.Sprint(i)
		}
	}
	got := m.Range("", "", 0, core.Snapshot)
	if len(got) != len(want) {
		t.Fatalf("final map has %d keys, want %d", len(got), len(want))
	}
	for _, kv := range got {
		if want[kv.Key] != kv.Val {
			t.Fatalf("final %q = %q, want %q", kv.Key, kv.Val, want[kv.Key])
		}
	}
	if m.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(want))
	}
}

// TestSkipMapSnapshotAllConsistent hammers the map with writers that
// preserve an invariant (key pairs i/i' always hold equal values) and
// asserts SnapshotAllCtx only ever observes invariant-holding states —
// the consistency the durability checkpointer depends on.
func TestSkipMapSnapshotAllConsistent(t *testing.T) {
	tm := core.NewDefault()
	m := NewTSkipMap(tm)
	const pairs = 16
	key := func(i int, side string) string { return fmt.Sprintf("p%02d-%s", i, side) }
	for i := 0; i < pairs; i++ {
		m.Put(key(i, "a"), "0", core.Def)
		m.Put(key(i, "b"), "0", core.Def)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := uint64(seed)*2654435761 + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				r = r*6364136223846793005 + 1442695040888963407
				i := int(r>>33) % pairs
				v := fmt.Sprintf("%d", r&0xFFFF)
				if err := tm.AtomicAs(core.Def, func(tx *core.Tx) error {
					if _, err := m.PutTx(tx, key(i, "a"), v); err != nil {
						return err
					}
					_, err := m.PutTx(tx, key(i, "b"), v)
					return err
				}); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(w + 1)
	}
	for scan := 0; scan < 50; scan++ {
		seen := map[string]string{}
		prev := ""
		if err := m.SnapshotAllCtx(context.Background(), func(k, v string) error {
			if k <= prev && prev != "" {
				t.Fatalf("keys out of order: %q after %q", k, prev)
			}
			prev = k
			seen[k] = v
			return nil
		}); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if len(seen) != 2*pairs {
			t.Fatalf("snapshot saw %d keys, want %d", len(seen), 2*pairs)
		}
		for i := 0; i < pairs; i++ {
			if a, b := seen[key(i, "a")], seen[key(i, "b")]; a != b {
				t.Fatalf("snapshot tore pair %d: %q != %q", i, a, b)
			}
		}
	}
	close(stop)
	wg.Wait()

	// The error path: a failing callback stops the walk and surfaces.
	sentinel := fmt.Errorf("stop here")
	n := 0
	if err := m.SnapshotAllCtx(context.Background(), func(k, v string) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	}); err != sentinel {
		t.Fatalf("callback error = %v, want sentinel", err)
	}
	if n != 3 {
		t.Fatalf("walk continued past failing callback: %d", n)
	}
}

// TestSkipMapPutOverwriteAllocs: an overwrite costs the value's version
// cell — record and value in one object — and (for a caller that builds
// the value) nothing else: 1, at most 2 with a pool miss; in particular
// no key is copied.
func TestSkipMapPutOverwriteAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts; budgets are asserted in the non-race CI step")
	}
	m := NewTSkipMap(core.NewDefault())
	for i := 0; i < 64; i++ {
		m.Put(fmt.Sprintf("k%03d", i), "v", core.Def)
	}
	for i := 0; i < 64; i++ {
		m.Put("k007", "w", core.Def)
	}
	if avg := testing.AllocsPerRun(500, func() {
		if !m.Put("k007", "w", core.Def) {
			t.Fatal("overwrite reported a fresh insert")
		}
	}); avg > 2 {
		t.Errorf("Put overwrite: %.2f allocs/op, want <= 2", avg)
	}
}

// TestSkipMapPutBorrowsKey pins PutTx's borrowed-key contract: the key
// handed in may view bytes the caller reuses the moment the transaction
// returns. Every key goes in through ONE buffer — inserted, overwritten,
// then scribbled over — from several goroutines at once (each with its
// own buffer), and afterwards every key must read back intact, in
// order, with Len exact.
func TestSkipMapPutBorrowsKey(t *testing.T) {
	const goroutines, perG = 4, 500
	m := NewTSkipMap(core.NewDefault())
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 0, 32)
			for i := 0; i < perG; i++ {
				buf = fmt.Appendf(buf[:0], "g%d-key-%04d", g, i)
				borrowed := unsafe.String(unsafe.SliceData(buf), len(buf))
				if m.Put(borrowed, "first", core.Def) {
					t.Errorf("insert of %q reported an existing key", buf)
				}
				if !m.Put(borrowed, fmt.Sprintf("val-%d-%d", g, i), core.Def) {
					t.Errorf("overwrite of %q reported a fresh insert", buf)
				}
				for j := range buf {
					buf[j] = 'X'
				}
			}
		}(g)
	}
	wg.Wait()
	if n := m.Len(); n != goroutines*perG {
		t.Fatalf("Len = %d, want %d", n, goroutines*perG)
	}
	all := m.Range("", "", 0, core.Snapshot)
	if len(all) != goroutines*perG {
		t.Fatalf("Range returned %d pairs, want %d", len(all), goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			k := fmt.Sprintf("g%d-key-%04d", g, i)
			if kv := all[g*perG+i]; kv.Key != k || kv.Val != fmt.Sprintf("val-%d-%d", g, i) {
				t.Fatalf("pair %d = %q:%q, want key %q", g*perG+i, kv.Key, kv.Val, k)
			}
			if v, ok := m.Get(k, core.Snapshot); !ok || v != fmt.Sprintf("val-%d-%d", g, i) {
				t.Fatalf("Get(%q) = %q,%v", k, v, ok)
			}
		}
	}
}
