package baseline

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
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

// TestStripedBasics checks the stripe array NewStripedHash builds: the
// count is rounded up to a power of two, and a hash picks its stripe by
// mask, so hashes h and h+stripes share one and adjacent hashes do not.
func TestStripedBasics(t *testing.T) {
	for _, row := range []struct{ nstripes, stripes int }{
		{10, 16},
		{8, 8},
		{1, 1},
		{0, 1},
	} {
		h := NewStripedHash(4, row.nstripes)
		s := len(h.stripes)
		if s != row.stripes {
			t.Fatalf("NewStripedHash(4, %d): %d stripes, want %d", row.nstripes, s, row.stripes)
		}
		for hash := uint64(0); hash < 64; hash++ {
			if h.stripe(hash) != h.stripe(hash+uint64(s)) {
				t.Fatalf("%d stripes: hashes %d and %d pick different stripes", s, hash, hash+uint64(s))
			}
			if s > 1 && h.stripe(hash) == h.stripe(hash+1) {
				t.Fatalf("%d stripes: adjacent hashes %d and %d share a stripe", s, hash, hash+1)
			}
		}
	}
}

// TestStripedLockAll checks that Resize is a global section: while any
// one stripe is held, for writing or for reading, a resize waits, and it
// finishes once that stripe is released.
func TestStripedLockAll(t *testing.T) {
	h := NewStripedHash(4, 4)
	for i := range h.stripes {
		for _, w := range []bool{true, false} {
			mu := &h.stripes[i]
			unlock := mu.RUnlock
			if w {
				mu.Lock()
				unlock = mu.Unlock
			} else {
				mu.RLock()
			}
			done := make(chan struct{})
			go func() {
				h.Resize(true)
				close(done)
			}()
			select {
			case <-done:
				t.Fatalf("Resize finished while stripe %d was held (write %v)", i, w)
			case <-time.After(10 * time.Millisecond):
			}
			unlock()
			<-done
		}
	}
}

// TestStripedHashNeverFewerBucketsThanStripes checks that the bucket
// count starts at no fewer than the stripes and the buckets asked for,
// and that no shrink leaves fewer buckets than stripes.
func TestStripedHashNeverFewerBucketsThanStripes(t *testing.T) {
	for _, row := range []struct{ nbuckets, nstripes int }{
		{4, 8},
		{4, 10},
		{64, 1},
		{1, 0},
	} {
		h := NewStripedHash(row.nbuckets, row.nstripes)
		s := len(h.stripes)
		if n := len(h.buckets); n < max(s, row.nbuckets) {
			t.Fatalf("%d stripes: %d buckets, want >= %d", s, n, max(s, row.nbuckets))
		}
		for i := 0; i < 10; i++ {
			h.Resize(false)
		}
		if n := len(h.buckets); n != s {
			t.Fatalf("%d stripes: ten shrinks left %d buckets, want %d", s, n, s)
		}
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
