package lockfree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// keys returns the unmarked keys in order. It is only meaningful in
// quiescence.
func (l *List) keys() []uint64 {
	var out []uint64
	for curr := l.head.next.Load().next; curr != nil; {
		cl := curr.next.Load()
		if !cl.marked {
			out = append(out, curr.key)
		}
		curr = cl.next
	}
	return out
}

// walkLen counts the unmarked elements after head, in quiescence. In a
// split-ordered list only regular nodes, whose split keys have the low
// bit set, are elements; the others are bucket dummies.
func walkLen(head *node, split bool) (n int) {
	for curr := head.next.Load().next; curr != nil; {
		cl := curr.next.Load()
		if !cl.marked && (!split || curr.key&1 == 1) {
			n++
		}
		curr = cl.next
	}
	return n
}

func TestListBasics(t *testing.T) {
	l := NewList()
	if l.Contains(5) {
		t.Fatal("empty list contains 5")
	}
	if !l.Insert(5) {
		t.Fatal("insert 5 failed")
	}
	if l.Insert(5) {
		t.Fatal("duplicate insert succeeded")
	}
	if !l.Contains(5) {
		t.Fatal("5 missing after insert")
	}
	if !l.Remove(5) {
		t.Fatal("remove 5 failed")
	}
	if l.Remove(5) {
		t.Fatal("double remove succeeded")
	}
	if l.Contains(5) {
		t.Fatal("5 present after remove")
	}
}

func TestListOrderMaintained(t *testing.T) {
	l := NewList()
	keys := []uint64{9, 1, 7, 3, 5, 0, 8, 2, 6, 4}
	for _, k := range keys {
		l.Insert(k)
	}
	got := l.keys()
	want := make([]uint64, len(keys))
	copy(want, keys)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("snapshot[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestListBoundaryKeys(t *testing.T) {
	l := NewList()
	if !l.Insert(0) {
		t.Fatal("insert 0")
	}
	if !l.Insert(^uint64(0)) {
		t.Fatal("insert max")
	}
	if !l.Contains(0) || !l.Contains(^uint64(0)) {
		t.Fatal("boundary keys missing")
	}
	if !l.Remove(0) || !l.Remove(^uint64(0)) {
		t.Fatal("boundary keys not removable")
	}
	if n := walkLen(l.head, false); n != 0 {
		t.Fatalf("len = %d, want 0", n)
	}
}

// TestListMatchesMapModel property-checks the list against a map model
// on a random single-threaded operation sequence.
func TestListMatchesMapModel(t *testing.T) {
	f := func(ops []uint16) bool {
		l := NewList()
		model := make(map[uint64]bool)
		for _, op := range ops {
			key := uint64(op % 64)
			switch op % 3 {
			case 0:
				if l.Insert(key) != !model[key] {
					return false
				}
				model[key] = true
			case 1:
				if l.Remove(key) != model[key] {
					return false
				}
				delete(model, key)
			case 2:
				if l.Contains(key) != model[key] {
					return false
				}
			}
		}
		return len(l.keys()) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestListConcurrentDisjoint: workers operate on disjoint key ranges;
// every worker's effects must be exactly preserved.
func TestListConcurrentDisjoint(t *testing.T) {
	l := NewList()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				if !l.Insert(base + i) {
					t.Errorf("insert %d failed", base+i)
					return
				}
			}
			for i := uint64(0); i < per; i += 2 {
				if !l.Remove(base + i) {
					t.Errorf("remove %d failed", base+i)
					return
				}
			}
		}(uint64(w) * 1000)
	}
	wg.Wait()
	if got, want := walkLen(l.head, false), workers*per/2; got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
	for w := 0; w < workers; w++ {
		base := uint64(w) * 1000
		for i := uint64(0); i < per; i++ {
			want := i%2 == 1
			if l.Contains(base+i) != want {
				t.Fatalf("contains(%d) = %v, want %v", base+i, !want, want)
			}
		}
	}
}

// TestListConcurrentContended: all workers fight over a small key space;
// afterwards the list must equal a count-based reconstruction.
func TestListConcurrentContended(t *testing.T) {
	l := NewList()
	const workers = 8
	const keys = 16
	var inserted, removed [keys]int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			localIns := make([]int64, keys)
			localRem := make([]int64, keys)
			for i := 0; i < 2000; i++ {
				k := uint64(r.Intn(keys))
				if r.Intn(2) == 0 {
					if l.Insert(k) {
						localIns[k]++
					}
				} else {
					if l.Remove(k) {
						localRem[k]++
					}
				}
			}
			mu.Lock()
			for k := 0; k < keys; k++ {
				inserted[k] += localIns[k]
				removed[k] += localRem[k]
			}
			mu.Unlock()
		}(int64(w + 1))
	}
	wg.Wait()
	for k := uint64(0); k < keys; k++ {
		// Successful inserts and removes on one key alternate, so the key
		// is present iff inserts exceed removes (by exactly one).
		diff := inserted[k] - removed[k]
		if diff != 0 && diff != 1 {
			t.Fatalf("key %d: inserts-removes = %d, want 0 or 1", k, diff)
		}
		if l.Contains(k) != (diff == 1) {
			t.Fatalf("key %d: contains = %v, want %v", k, !(diff == 1), diff == 1)
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// splitmix64's finalizer is a bijection; spot-check injectivity on a
	// dense range plus boundaries.
	seen := make(map[uint64]uint64, 1<<16)
	check := func(x uint64) {
		h := mix64(x)
		if prev, dup := seen[h]; dup {
			t.Fatalf("mix64 collision: %d and %d -> %d", prev, x, h)
		}
		seen[h] = x
	}
	for x := uint64(0); x < 1<<16; x++ {
		check(x)
	}
	check(^uint64(0))
	check(^uint64(0) - 1)
}
