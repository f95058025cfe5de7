package lockfree

import (
	"math/bits"
	"sync"
	"testing"
	"testing/quick"
)

func TestSoKeysOrderDummiesBeforeRegulars(t *testing.T) {
	// A bucket's dummy key must sort before every regular key whose hash
	// falls in that bucket (for any table size).
	f := func(h uint64, b uint16) bool {
		bucket := uint64(b)
		if bits.Reverse64(h)|1 == 0 {
			return true
		}
		// If h mod 2^k == bucket for the smallest covering size, the
		// dummy of that bucket precedes the regular key.
		if h&(uint64(1<<16)-1) != bucket {
			return true
		}
		return soDummyKey(bucket) < soRegularKey(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoParent(t *testing.T) {
	cases := []struct{ b, want uint64 }{
		{0, 0}, {1, 0}, {2, 0}, {3, 1}, {4, 0}, {5, 1}, {6, 2}, {7, 3},
		{8, 0}, {12, 4}, {1 << 20, 0}, {(1 << 20) | 5, 5},
	}
	for _, c := range cases {
		if got := soParent(c.b); got != c.want {
			t.Errorf("soParent(%d) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestSoParentDummyPrecedesChild(t *testing.T) {
	// Recursive initialization depends on dummy(parent(b)) < dummy(b).
	f := func(b uint32) bool {
		bucket := uint64(b)
		if bucket == 0 {
			return true
		}
		return soDummyKey(soParent(bucket)) < soDummyKey(bucket)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitOrderedBasics(t *testing.T) {
	s := NewSplitOrdered()
	if s.Contains(7) {
		t.Fatal("empty set contains 7")
	}
	if !s.Insert(7) || s.Insert(7) {
		t.Fatal("insert semantics broken")
	}
	if !s.Contains(7) {
		t.Fatal("7 missing")
	}
	if !s.Remove(7) || s.Remove(7) {
		t.Fatal("remove semantics broken")
	}
	if n := walkLen(s.head, true); n != 0 {
		t.Fatalf("len = %d, want 0", n)
	}
}

func TestSplitOrderedGrows(t *testing.T) {
	s := NewSplitOrdered()
	before := s.size.Load()
	for k := uint64(0); k < 10000; k++ {
		if !s.Insert(k) {
			t.Fatalf("insert %d", k)
		}
	}
	if n := walkLen(s.head, true); n != 10000 {
		t.Fatalf("len = %d, want 10000", n)
	}
	if after := s.size.Load(); after <= before {
		t.Fatalf("table did not grow: %d buckets", after)
	}
	// Every key must remain reachable across all the doublings.
	for k := uint64(0); k < 10000; k++ {
		if !s.Contains(k) {
			t.Fatalf("key %d lost after resize", k)
		}
	}
	for k := uint64(0); k < 10000; k += 2 {
		if !s.Remove(k) {
			t.Fatalf("remove %d", k)
		}
	}
	for k := uint64(0); k < 10000; k++ {
		if s.Contains(k) != (k%2 == 1) {
			t.Fatalf("contains(%d) wrong after removals", k)
		}
	}
}

func TestSplitOrderedModel(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSplitOrdered()
		model := make(map[uint64]bool)
		for _, op := range ops {
			key := uint64(op % 128)
			switch op % 3 {
			case 0:
				if s.Insert(key) != !model[key] {
					return false
				}
				model[key] = true
			case 1:
				if s.Remove(key) != model[key] {
					return false
				}
				delete(model, key)
			case 2:
				if s.Contains(key) != model[key] {
					return false
				}
			}
		}
		return walkLen(s.head, true) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitOrderedConcurrent(t *testing.T) {
	s := NewSplitOrdered()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				if !s.Insert(base + i) {
					t.Errorf("insert %d failed", base+i)
					return
				}
			}
			for i := uint64(0); i < per; i++ {
				if !s.Contains(base + i) {
					t.Errorf("lost key %d", base+i)
					return
				}
			}
			for i := uint64(0); i < per; i += 2 {
				if !s.Remove(base + i) {
					t.Errorf("remove %d failed", base+i)
					return
				}
			}
		}(uint64(w) * 100000)
	}
	wg.Wait()
	if got, want := walkLen(s.head, true), workers*per/2; got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
}
