package baseline

import (
	"sync"
	"testing"
	"testing/quick"
)

type set interface {
	Insert(uint64) bool
	Remove(uint64) bool
	Contains(uint64) bool
}

// countIn counts the keys of s in [0, keyRange), one Contains each: no
// set keeps a count, and a test's keys all lie in a range it knows.
func countIn(s interface{ Contains(uint64) bool }, keyRange uint64) (n int) {
	for k := uint64(0); k < keyRange; k++ {
		if s.Contains(k) {
			n++
		}
	}
	return n
}

func eachSet(t *testing.T, f func(t *testing.T, mk func() set)) {
	t.Helper()
	cases := []struct {
		name string
		mk   func() set
	}{
		{"CoarseList", func() set { return NewCoarseList() }},
		{"LazyList", func() set { return NewLazyList() }},
		{"CoarseHash", func() set { return NewCoarseHash(8) }},
		{"StripedHash", func() set { return NewStripedHash(16, 8) }},
		{"CoarseSkipList", func() set { return NewCoarseSkipList() }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) { f(t, c.mk) })
	}
}

func TestBaselineBasics(t *testing.T) {
	eachSet(t, func(t *testing.T, mk func() set) {
		s := mk()
		if s.Contains(5) {
			t.Fatal("empty set contains 5")
		}
		if !s.Insert(5) || s.Insert(5) {
			t.Fatal("insert semantics broken")
		}
		if !s.Contains(5) || countIn(s, 16) != 1 {
			t.Fatal("5 missing")
		}
		if !s.Remove(5) || s.Remove(5) {
			t.Fatal("remove semantics broken")
		}
		if s.Contains(5) || countIn(s, 16) != 0 {
			t.Fatal("5 present after remove")
		}
	})
}

func TestBaselineMatchesModel(t *testing.T) {
	eachSet(t, func(t *testing.T, mk func() set) {
		f := func(ops []uint16) bool {
			s := mk()
			model := map[uint64]bool{}
			for _, op := range ops {
				key := uint64(op % 64)
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
			return countIn(s, 64) == len(model)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBaselineConcurrent(t *testing.T) {
	eachSet(t, func(t *testing.T, mk func() set) {
		s := mk()
		const workers, per = 8, 200
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
				for i := uint64(0); i < per; i += 2 {
					if !s.Remove(base + i) {
						t.Errorf("remove %d failed", base+i)
						return
					}
				}
			}(uint64(w) * 1000)
		}
		wg.Wait()
		if got, want := countIn(s, workers*1000), workers*per/2; got != want {
			t.Fatalf("len = %d, want %d", got, want)
		}
	})
}

func TestCoarseHashResize(t *testing.T) {
	h := NewCoarseHash(4)
	for k := uint64(0); k < 500; k++ {
		h.Insert(k)
	}
	before := len(h.buckets)
	if got := h.Resize(true); got != before*2 {
		t.Fatalf("resize -> %d, want %d", got, before*2)
	}
	for k := uint64(0); k < 500; k++ {
		if !h.Contains(k) {
			t.Fatalf("key %d lost", k)
		}
	}
	h.Resize(false)
	if n := countIn(h, 1000); n != 500 {
		t.Fatalf("len = %d", n)
	}
}

func TestStripedHashResizeUnderChurn(t *testing.T) {
	h := NewStripedHash(16, 8)
	const workers, per = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				h.Insert(base + i)
			}
			for i := uint64(0); i < per; i += 2 {
				h.Remove(base + i)
			}
		}(uint64(w) * 10000)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		grow := true
		for {
			select {
			case <-stop:
				return
			default:
				h.Resize(grow)
				grow = !grow
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	if got, want := countIn(h, workers*10000), workers*per/2; got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
	for w := 0; w < workers; w++ {
		base := uint64(w) * 10000
		for i := uint64(0); i < per; i++ {
			if h.Contains(base+i) != (i%2 == 1) {
				t.Fatalf("contains(%d) wrong after resize churn", base+i)
			}
		}
	}
}

func TestStripedHashNeverFewerBucketsThanStripes(t *testing.T) {
	h := NewStripedHash(4, 8)
	if n := len(h.buckets); n < 8 {
		t.Fatalf("buckets = %d, want >= stripes", n)
	}
	for i := 0; i < 10; i++ {
		h.Resize(false)
	}
	if n := len(h.buckets); n < 8 {
		t.Fatalf("shrink went below stripe count: %d", n)
	}
}

func TestLazyListWaitFreeContainsUnderChurn(t *testing.T) {
	l := NewLazyList()
	for k := uint64(0); k < 128; k += 2 {
		l.Insert(k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			r := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				r = r*1664525 + 1013904223
				k := uint64(r>>8) % 128
				if r%2 == 0 {
					l.Insert(k)
				} else {
					l.Remove(k)
				}
			}
		}(uint32(w + 3))
	}
	for i := 0; i < 20000; i++ {
		l.Contains(uint64(i) % 128) // must never hang or crash
	}
	close(stop)
	wg.Wait()
}
