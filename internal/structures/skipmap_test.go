package structures

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"polytm/internal/core"
	"polytm/internal/raceflag"
	"polytm/internal/stm"
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

// runCount runs f as one transaction under sem and returns its count.
func runCount(tm *core.TM, sem core.Semantics, f func(*core.Tx) (int, error)) int {
	var n int
	must(tm.AtomicAs(sem, func(tx *core.Tx) error {
		var err error
		n, err = f(tx)
		return err
	}))
	return n
}

// TestSkipMapClear: ClearTx — which counts the bottom level it cuts
// loose, the map keeping no size variable — returns the exact number of
// keys it removed under irrevocable, under def, and under a weak
// override racing an inserter.
func TestSkipMapClear(t *testing.T) {
	tm := core.NewDefault()
	m := NewTSkipMap(tm)
	const n = 100
	fill := func() {
		for i := 0; i < n; i++ {
			m.Put(fmt.Sprintf("k%03d", i), fmt.Sprint(i), core.Def)
		}
	}
	fill()

	if cleared := runCount(tm, core.Irrevocable, m.ClearTx); cleared != n {
		t.Fatalf("irrevocable ClearTx removed %d, want %d", cleared, n)
	}
	if m.Len() != 0 || len(m.Range("", "", 0, core.Snapshot)) != 0 {
		t.Fatal("map not empty after clear")
	}
	fill()
	if cleared := runCount(tm, core.Def, m.ClearTx); cleared != n {
		t.Fatalf("def ClearTx removed %d, want %d", cleared, n)
	}
	if cleared := runCount(tm, core.Def, m.ClearTx); cleared != 0 {
		t.Fatalf("ClearTx of an empty map removed %d", cleared)
	}

	// Weak override beside an inserter landing keys all over the map:
	// every key is counted by exactly the clear that wiped it, or is
	// still there at the end. Counting before clearing would let the
	// elastic walk slide past an insert the clear then wipes.
	const inserted = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < inserted; i++ {
			m.Put(fmt.Sprintf("w%05d", i*7919%inserted), "v", core.Def)
		}
	}()
	cleared := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		cleared += runCount(tm, core.Weak, m.ClearTx)
	}
	if left := m.Len(); cleared+left != inserted {
		t.Fatalf("weak ClearTx counted %d and %d keys are left, want %d in all", cleared, left, inserted)
	}
}

// TestIrrevocableWalkIsLinear: an irrevocable read is one head load, so
// a walk of n keys costs O(n). A full counting RangeTx and a counting
// FLUSH of 100k keys each finish well inside a second; a scan of every
// held lock per read once made such a walk take seconds.
func TestIrrevocableWalkIsLinear(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation slows the walk; the bound is asserted in the non-race CI step")
	}
	const n = 100_000
	m := preloadAscending(n)
	rangeAll := func(tx *core.Tx) (k int, err error) {
		err = m.RangeTx(tx, "", "", 0, func(string, string) bool { k++; return true })
		return k, err
	}
	for _, op := range []struct {
		name string
		f    func(*core.Tx) (int, error)
	}{{"RangeTx", rangeAll}, {"ClearTx", m.ClearTx}} {
		start := time.Now()
		got := runCount(m.tm, core.Irrevocable, op.f)
		if took := time.Since(start); took > time.Second {
			t.Errorf("irrevocable %s of %d keys took %v, want < 1s", op.name, n, took)
		} else {
			t.Logf("irrevocable %s of %d keys: %v", op.name, n, took)
		}
		if got != n {
			t.Errorf("irrevocable %s reported %d keys, want %d", op.name, got, n)
		}
	}
}

// TestSkipMapConcurrentMixedSemantics hammers the map from writers (def),
// elastic scanners (weak), snapshot readers, and an irrevocable full
// walker that checks key order, then checks the exact final contents.
// Run with -race.
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
				prev := ""
				return m.RangeTx(tx, "", "", 0, func(k, _ string) bool {
					if k <= prev {
						t.Errorf("irrevocable walk out of order: %q after %q", k, prev)
						return false
					}
					prev = k
					return true
				})
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
// asserts one snapshot-semantics RangeTx only ever observes
// invariant-holding states, in key order.
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
		var seen map[string]string
		prev := ""
		if err := tm.AtomicAs(core.Snapshot, func(tx *core.Tx) error {
			seen, prev = map[string]string{}, ""
			return m.RangeTx(tx, "", "", 0, func(k, v string) bool {
				if k <= prev && prev != "" {
					t.Fatalf("keys out of order: %q after %q", k, prev)
				}
				prev = k
				seen[k] = v
				return true
			})
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

// TestSkipMapPutBytes pins PutBytesTx's contract on both branches: key
// and value are borrowed (one buffer each, scribbled on after every
// call), the key it returns is the map's own — the same string an
// overwrite and the delete of that key return, unmoved by the caller's
// buffer — and an overwrite is the one merged version cell.
func TestSkipMapPutBytes(t *testing.T) {
	m := NewTSkipMap(core.NewDefault())
	kb, vb := make([]byte, 0, 32), make([]byte, 0, 64)
	put := func(key, val string) (stored string, existed bool) {
		t.Helper()
		kb, vb = append(kb[:0], key...), append(vb[:0], val...)
		if err := m.tm.AtomicAs(core.Def, func(tx *core.Tx) error {
			var err error
			stored, existed, err = m.PutBytesTx(tx, unsafe.String(unsafe.SliceData(kb), len(kb)), vb)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		for i := range kb {
			kb[i] = '#'
		}
		for i := range vb {
			vb[i] = '#'
		}
		return stored, existed
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d", i)
		ins, existed := put(k, "first")
		if existed || ins != k {
			t.Fatalf("insert of %q returned %q, existed %v", k, ins, existed)
		}
		over, existed := put(k, fmt.Sprintf("value-%03d-%.*s", i, i, strings.Repeat("x", 100)))
		if !existed || over != k || unsafe.StringData(over) != unsafe.StringData(ins) {
			t.Fatalf("overwrite of %q returned %q (existed %v), want the node's own key", k, over, existed)
		}
	}
	for i, kv := range m.Range("", "", 0, core.Snapshot) {
		if want := fmt.Sprintf("value-%03d-%.*s", i, i, strings.Repeat("x", 100)); kv.Key != fmt.Sprintf("key-%03d", i) || kv.Val != want {
			t.Fatalf("pair %d = %q:%q, want value %q", i, kv.Key, kv.Val, want)
		}
	}
	if err := m.tm.AtomicAs(core.Def, func(tx *core.Tx) error {
		stored, removed, err := m.DeleteTx(tx, "key-042")
		if err == nil && (!removed || stored != "key-042") {
			t.Errorf("DeleteTx = %q, %v; want the removed node's key", stored, removed)
		}
		if stored, removed, _ := m.DeleteTx(tx, "absent"); removed || stored != "" {
			t.Errorf("DeleteTx of a missing key = %q, %v", stored, removed)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if raceflag.Enabled {
		return
	}
	val := []byte(strings.Repeat("v", 64))
	body := func(tx *core.Tx) error { _, _, err := m.PutBytesTx(tx, "key-007", val); return err }
	if avg := testing.AllocsPerRun(500, func() { _ = m.tm.AtomicAs(core.Def, body) }); avg > 1 {
		t.Errorf("PutBytesTx overwrite: %.2f allocs/op, want <= 1", avg)
	}
}

// preloadAscending builds a map of n 16-byte keys inserted in ascending
// order, all sharing one value string — the shape of the benchmark's
// preload, and the worst case for the index: every link is rewritten
// once, so every link ends on an allocated record.
func preloadAscending(n int) *TSkipMap {
	m := NewTSkipMap(core.NewDefault())
	for i := 0; i < n; i++ {
		m.Put(fmt.Sprintf("key-%012d", i), "v", core.Def)
	}
	return m
}

// TestSkipMapFootprint is the referee for what a key costs: live heap
// bytes and objects per key around a 100k-key preload, and the size of
// the variable every link and value is made of. Its -v output is the
// "What a key costs" table of the README.
func TestSkipMapFootprint(t *testing.T) {
	// The map's node holds its value variable (TVar 16 + the word
	// packing height, key offset and key length 8), the set's zero-size
	// value adds nothing, and the tower and then the key follow either in
	// the same object.
	if sz := unsafe.Sizeof(mapNode{}); sz != 24 {
		t.Errorf("sizeof(mapNode) = %d, want 24", sz)
	}
	if sz := unsafe.Sizeof(setNode{}); sz != 8 {
		t.Errorf("sizeof(setNode) = %d, want 8", sz)
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation changes object sizes; the footprint is asserted in the non-race CI step")
	}
	// A variable is its lock word and its head: no engine pointer.
	if sz := unsafe.Sizeof(stm.Var{}); sz != 16 {
		t.Errorf("sizeof(stm.Var) = %d, want 16", sz)
	}
	if sz := unsafe.Sizeof(core.TVar[string]{}); sz != 16 {
		t.Errorf("sizeof(core.TVar[string]) = %d, want 16", sz)
	}
	const n = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := preloadAscending(n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytesPerKey := float64(after.HeapAlloc-before.HeapAlloc) / n
	objsPerKey := float64(after.HeapObjects-before.HeapObjects) / n

	links := 0
	for nd := m.head.next(0).LoadDirect(); nd != nil; nd = nd.next(0).LoadDirect() {
		links += nd.height()
	}
	// The fixed objects are their Go sizes (all exact size classes); the
	// node row is what is left, since a three-link node takes the
	// four-link array and a sixteen-link one with its key (304 bytes)
	// rounds up to 320. A record is the engine's header and the value after it: a
	// link's holds a pointer, the value's a string header.
	hdr := unsafe.Sizeof(stm.Version{})
	cell := float64(hdr + unsafe.Sizeof(""))
	linkRecs := float64(hdr+unsafe.Sizeof((*mapNode)(nil))) * float64(links) / n
	t.Logf("%d ascending 16-byte keys, %.3f links/key: %.1f B/key in %.2f objects/key", n, float64(links)/n, bytesPerKey, objsPerKey)
	t.Logf("node, tower and key bytes %.1f mean | value cell %.0f | link records %.1f mean",
		bytesPerKey-cell-linkRecs, cell, linkRecs)
	if bytesPerKey > 138 {
		t.Errorf("%.1f B/key, want <= 138", bytesPerKey)
	}
	if objsPerKey > 3.5 {
		t.Errorf("%.2f objects/key, want <= 3.5", objsPerKey)
	}
	runtime.KeepAlive(m)
}

// TestHistoryFootprint: what writers back up for a snapshot reader is
// freed when that reader leaves. One churn — overwrite every key of a
// 100k-key map, then delete one key in ten — runs once beside a parked
// snapshot reader and once with no reader, and the heap the first run
// leaves once its reader has gone must be within 2% of the second's.
// (When a backup lived until its key's next write, the parked reader's
// value and link records outlived it: 23.7 MiB against 16.8.)
func TestHistoryFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation changes object sizes; the footprint is asserted in the non-race CI step")
	}
	const n = 100_000
	churn := func(parked bool) uint64 {
		m := preloadAscending(n)
		release, done := make(chan struct{}), make(chan struct{})
		if parked {
			started := make(chan struct{})
			go func() {
				defer close(done)
				if err := m.tm.AtomicAs(core.Snapshot, func(tx *core.Tx) error {
					if _, _, err := m.GetTx(tx, fmt.Sprintf("key-%012d", 0)); err != nil {
						return err
					}
					close(started)
					<-release
					return nil
				}); err != nil {
					t.Error(err)
				}
			}()
			<-started
		}
		for i := 0; i < n; i++ {
			m.Put(fmt.Sprintf("key-%012d", i), "w", core.Def)
		}
		for i := 0; i < n; i += 10 {
			m.Delete(fmt.Sprintf("key-%012d", i), core.Def)
		}
		if parked {
			close(release)
			<-done
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(m)
		return ms.HeapAlloc
	}
	without := churn(false)
	with := churn(true)
	t.Logf("heap after the churn: %.2f MiB with a parked reader, %.2f MiB without", float64(with)/(1<<20), float64(without)/(1<<20))
	if float64(with) > 1.02*float64(without) {
		t.Errorf("the parked reader's history outlived it: %d B against %d B, over 2%%", with, without)
	}
}

// TestSkipMapInsertAllocs: a fresh insert allocates the node (its value
// variable, its tower and its key's bytes inside), the value's cell, and
// a first record plus a write record per level — 4.67 expected at
// p = 1/4.
func TestSkipMapInsertAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts; budgets are asserted in the non-race CI step")
	}
	const n = 10_000
	m := NewTSkipMap(core.NewDefault())
	keys := make([]string, n+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%012d", i)
	}
	m.Put(keys[0], "v", core.Def)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys[1:] {
		m.Put(k, "v", core.Def)
	}
	runtime.ReadMemStats(&after)
	if mean := float64(after.Mallocs-before.Mallocs) / n; mean > 5 {
		t.Errorf("fresh Put: %.2f allocs/op, want <= 5", mean)
	} else {
		t.Logf("fresh Put: %.2f allocs/op", mean)
	}
}

// TestSkipMapRangeAllocs: a bounded Range allocates its result once, not
// once per doubling.
func TestSkipMapRangeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts; budgets are asserted in the non-race CI step")
	}
	m := preloadAscending(64)
	if avg := testing.AllocsPerRun(200, func() {
		if got := m.Range("key-000000000010", "", 32, core.Snapshot); len(got) != 32 {
			t.Fatalf("Range returned %d pairs, want 32", len(got))
		}
	}); avg > 1 {
		t.Errorf("32-pair Range: %.2f allocs/op, want <= 1", avg)
	}
}

// TestSkipMapLevels pins the tower distribution and what it costs a
// search: three towers in four have one link, none outgrows the
// sentinel, and on a 100k-key map a snapshot Get and a def overwrite
// Put each read at most 36 variables on average — so a change that
// lengthens the walk, such as descending from all sixteen levels instead
// of the list's height, fails here rather than on a clock. Tower heights
// are random per run, and one map's few top-level nodes move its mean by
// a couple of reads, so the mean is taken over three maps.
func TestSkipMapLevels(t *testing.T) {
	const draws = 100_000
	ones := 0
	for i := 0; i < draws; i++ {
		switch lvl := randLevel(); {
		case lvl < 1 || lvl > skipMaxLevel:
			t.Fatalf("draw %d: level %d outside [1, %d]", i, lvl, skipMaxLevel)
		case lvl == 1:
			ones++
		}
	}
	if share := float64(ones) / draws; share < 0.74 || share > 0.76 {
		t.Errorf("share of height-1 towers = %.4f, want 0.75 ± 0.01", share)
	}

	const n, ops, maps = 100_000, 2_000, 3
	var gets, puts uint64
	for range maps {
		m := preloadAscending(n)
		reads := func(op func(k string)) uint64 {
			before := m.tm.Stats().Reads
			for i := 0; i < ops; i++ {
				op(fmt.Sprintf("key-%012d", i*(n/ops)+7))
			}
			return m.tm.Stats().Reads - before
		}
		gets += reads(func(k string) {
			if _, ok := m.Get(k, core.Snapshot); !ok {
				t.Fatalf("Get(%q) missed", k)
			}
		})
		puts += reads(func(k string) {
			if !m.Put(k, "w", core.Def) {
				t.Fatalf("Put(%q) did not find the key", k)
			}
		})
	}
	for _, row := range []struct {
		name  string
		reads uint64
	}{{"snapshot Get", gets}, {"def overwrite Put", puts}} {
		if mean := float64(row.reads) / (maps * ops); mean > 36 {
			t.Errorf("%s on %d keys: %.1f reads/op over %d maps, want <= 36", row.name, n, mean, maps)
		} else {
			t.Logf("%s on %d keys: %.1f reads/op over %d maps", row.name, n, mean, maps)
		}
	}
}
