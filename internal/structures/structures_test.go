package structures

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"polytm/internal/core"
)

// set is the common shape of the integer sets under test: the front
// end every one of them shares.
type set interface {
	Insert(uint64) bool
	Remove(uint64) bool
	Contains(uint64) bool
	InsertTx(*core.Tx, uint64) (bool, error)
	RemoveTx(*core.Tx, uint64) (bool, error)
	ContainsTx(*core.Tx, uint64) (bool, error)
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

// eachSet runs f on every (name, constructor) pair of transactional set.
func eachSet(t *testing.T, f func(t *testing.T, mk func(*core.TM) set)) {
	t.Helper()
	cases := []struct {
		name string
		mk   func(*core.TM) set
	}{
		{"TList/def", func(tm *core.TM) set { return NewTList(tm, core.Def) }},
		{"TList/weak", func(tm *core.TM) set { return NewTList(tm, core.Weak) }},
		{"THash/def", func(tm *core.TM) set { return NewTHash(tm, core.Def, 8) }},
		{"THash/weak", func(tm *core.TM) set { return NewTHash(tm, core.Weak, 8) }},
		{"TSkipList/def", func(tm *core.TM) set { return NewTSkipList(tm, core.Def) }},
		{"TSkipList/weak", func(tm *core.TM) set { return NewTSkipList(tm, core.Weak) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) { f(t, c.mk) })
	}
}

func TestSetBasics(t *testing.T) {
	eachSet(t, func(t *testing.T, mk func(*core.TM) set) {
		s := mk(core.NewDefault())
		if s.Contains(5) {
			t.Fatal("empty set contains 5")
		}
		if !s.Insert(5) || s.Insert(5) {
			t.Fatal("insert semantics broken")
		}
		if !s.Contains(5) {
			t.Fatal("5 missing")
		}
		if n := countIn(s, 16); n != 1 {
			t.Fatalf("len = %d, want 1", n)
		}
		if !s.Remove(5) || s.Remove(5) {
			t.Fatal("remove semantics broken")
		}
		if s.Contains(5) || countIn(s, 16) != 0 {
			t.Fatal("5 present after remove")
		}
	})
}

// TestSetTxForms: every set's Tx forms are nested scopes of the
// enclosing transaction — their writes commit with it, and vanish with
// it when its body returns an error.
func TestSetTxForms(t *testing.T) {
	errVeto := errors.New("veto")
	eachSet(t, func(t *testing.T, mk func(*core.TM) set) {
		tm := core.NewDefault()
		s := mk(tm)
		s.Insert(1)
		err := tm.Atomic(func(tx *core.Tx) error {
			if added, err := s.InsertTx(tx, 2); err != nil || !added {
				t.Fatalf("InsertTx(2) = %v, %v", added, err)
			}
			if found, err := s.ContainsTx(tx, 2); err != nil || !found {
				t.Fatalf("ContainsTx(2) inside its transaction = %v, %v", found, err)
			}
			if removed, err := s.RemoveTx(tx, 1); err != nil || !removed {
				t.Fatalf("RemoveTx(1) = %v, %v", removed, err)
			}
			return errVeto
		})
		if !errors.Is(err, errVeto) {
			t.Fatalf("enclosing transaction = %v, want the body's error", err)
		}
		if s.Contains(2) || !s.Contains(1) || countIn(s, 4) != 1 {
			t.Fatalf("vetoed transaction left a trace: contains(2)=%v contains(1)=%v len=%d", s.Contains(2), s.Contains(1), countIn(s, 4))
		}
		if err := tm.Atomic(func(tx *core.Tx) error {
			_, err := s.InsertTx(tx, 3)
			return err
		}); err != nil || !s.Contains(3) || countIn(s, 4) != 2 {
			t.Fatalf("committed InsertTx(3): err=%v contains=%v len=%d", err, s.Contains(3), countIn(s, 4))
		}
	})
}

func TestSetMatchesModel(t *testing.T) {
	eachSet(t, func(t *testing.T, mk func(*core.TM) set) {
		f := func(ops []uint16) bool {
			s := mk(core.NewDefault())
			model := map[uint64]bool{}
			for _, op := range ops {
				key := uint64(op % 32)
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
			return countIn(s, 32) == len(model)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSetConcurrentDisjoint(t *testing.T) {
	eachSet(t, func(t *testing.T, mk func(*core.TM) set) {
		s := mk(core.NewDefault())
		const workers, per = 4, 100
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
		for w := 0; w < workers; w++ {
			base := uint64(w) * 1000
			for i := uint64(0); i < per; i++ {
				if s.Contains(base+i) != (i%2 == 1) {
					t.Fatalf("contains(%d) wrong", base+i)
				}
			}
		}
	})
}

// TestSetConcurrentContended drives all workers into a small key space
// and cross-checks the final state against per-key success counters —
// the linearizability conservation argument.
func TestSetConcurrentContended(t *testing.T) {
	eachSet(t, func(t *testing.T, mk func(*core.TM) set) {
		s := mk(core.NewDefault())
		const workers, keys, opsPer = 4, 8, 300
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
				for i := 0; i < opsPer; i++ {
					k := uint64(r.Intn(keys))
					if r.Intn(2) == 0 {
						if s.Insert(k) {
							localIns[k]++
						}
					} else if s.Remove(k) {
						localRem[k]++
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
			diff := inserted[k] - removed[k]
			if diff != 0 && diff != 1 {
				t.Fatalf("key %d: inserts-removes = %d", k, diff)
			}
			if s.Contains(k) != (diff == 1) {
				t.Fatalf("key %d: contains = %v, want %v", k, !(diff == 1), diff == 1)
			}
		}
	})
}

// TestUpdatesAtDistinctKeysCommute: an update held open while an update
// elsewhere in the same structure commits still commits on its first
// attempt. No structure keeps a size variable, so nothing but the keys
// themselves can make two updates conflict — here a weak insert of 11
// beside an insert of 91 on a 50-key set, and an enqueue beside a
// dequeue on a 4-element queue.
func TestUpdatesAtDistinctKeysCommute(t *testing.T) {
	evens := func(s set) set {
		for k := uint64(0); k < 100; k += 2 {
			s.Insert(k)
		}
		return s
	}
	cases := []struct {
		name string
		sem  core.Semantics
		// build returns the update the outer transaction holds open, the
		// rival update that commits meanwhile, and the count both leave.
		build func(tm *core.TM) (open func(*core.Tx) error, rival func(), count func() int, want int)
	}{
		{"TList/weak", core.Weak, func(tm *core.TM) (func(*core.Tx) error, func(), func() int, int) {
			s := evens(NewTList(tm, core.Weak))
			return func(tx *core.Tx) error { _, err := s.InsertTx(tx, 11); return err }, func() { s.Insert(91) }, func() int { return countIn(s, 100) }, 52
		}},
		{"THash/weak", core.Weak, func(tm *core.TM) (func(*core.Tx) error, func(), func() int, int) {
			s := evens(NewTHash(tm, core.Weak, 8))
			return func(tx *core.Tx) error { _, err := s.InsertTx(tx, 11); return err }, func() { s.Insert(91) }, func() int { return countIn(s, 100) }, 52
		}},
		{"TQueue", core.Def, func(tm *core.TM) (func(*core.Tx) error, func(), func() int, int) {
			q := NewTQueue[int](tm)
			for i := 1; i <= 4; i++ {
				q.Enqueue(i)
			}
			return func(tx *core.Tx) error { return q.EnqueueTx(tx, 5) }, func() { q.Dequeue() }, func() int { return snapshotLen(tm, q.LenTx) }, 4
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tm := core.NewDefault()
			open, rival, count, want := c.build(tm)
			attempts := 0
			must(tm.AtomicAs(c.sem, func(tx *core.Tx) error {
				attempts++
				if err := open(tx); err != nil {
					return err
				}
				if attempts == 1 {
					rival()
				}
				return nil
			}))
			if attempts != 1 {
				t.Errorf("outer update took %d attempts beside a commit at a distinct key, want 1", attempts)
			}
			if n := count(); n != want {
				t.Errorf("count = %d, want %d", n, want)
			}
		})
	}
}

func TestTListSnapshotAndSum(t *testing.T) {
	tm := core.NewDefault()
	l := NewTList(tm, core.Weak)
	var want uint64
	for _, k := range []uint64{5, 1, 9, 3} {
		l.Insert(k)
		want += k
	}
	if got := l.Sum(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Fatalf("snapshot not sorted: %v", snap)
		}
	}
}

// TestTListSumInvariantUnderChurn: writers move one key around (remove k,
// insert k+delta where delta sums to zero over pairs); snapshot sums must
// always equal one of the legal states. Simplest invariant: insert and
// remove the same keys so the sum alternates between S and S; here we
// swap 10<->10 (no-op pairs) — instead, move value between two keys so
// the multiset sum is preserved.
func TestTListSumInvariantUnderChurn(t *testing.T) {
	tm := core.NewDefault()
	l := NewTList(tm, core.Weak)
	for k := uint64(1); k <= 20; k++ {
		l.Insert(k)
	}
	baseSum := l.Sum()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churner: atomically replaces key 100 with 101 and back — sum
	// changes by +-1 between the two legal states.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := uint64(100)
		l.Insert(cur)
		for {
			select {
			case <-stop:
				return
			default:
			}
			next := uint64(201) - cur // alternates 100 <-> 101
			l.Remove(cur)
			l.Insert(next)
			cur = next
		}
	}()
	for i := 0; i < 100; i++ {
		got := l.Sum()
		if got != baseSum && got != baseSum+100 && got != baseSum+101 && got != baseSum+201 {
			t.Errorf("snapshot sum %d not a legal state (base %d)", got, baseSum)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestTHashResizePreservesContents(t *testing.T) {
	tm := core.NewDefault()
	h := NewTHash(tm, core.Weak, 4)
	for k := uint64(0); k < 200; k++ {
		h.Insert(k)
	}
	buckets := func() int { return len(h.buckets.LoadDirect()) }
	before := buckets()
	if got := h.Resize(true); got != before*2 || buckets() != before*2 {
		t.Fatalf("resize -> %d buckets (%d held), want %d", got, buckets(), before*2)
	}
	for k := uint64(0); k < 200; k++ {
		if !h.Contains(k) {
			t.Fatalf("key %d lost in resize", k)
		}
	}
	if n := countIn(h, 400); n != 200 {
		t.Fatalf("len = %d, want 200", n)
	}
	if got := h.Resize(false); got != before || buckets() != before {
		t.Fatalf("shrink -> %d buckets (%d held), want %d", got, buckets(), before)
	}
	for k := uint64(0); k < 200; k++ {
		if !h.Contains(k) {
			t.Fatalf("key %d lost in shrink", k)
		}
	}
	if n := countIn(h, 400); n != 200 {
		t.Fatalf("len after shrink = %d, want 200", n)
	}
}

// TestTHashConcurrentOpsDuringResize is the motivating scenario of the
// paper's introduction, live: elastic operations churn the table while a
// resizer repeatedly doubles and halves it. Nothing may be lost.
func TestTHashConcurrentOpsDuringResize(t *testing.T) {
	tm := core.NewDefault()
	h := NewTHash(tm, core.Weak, 4)
	const workers, per = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				if !h.Insert(base + i) {
					t.Errorf("insert %d failed", base+i)
					return
				}
			}
			for i := uint64(0); i < per; i += 2 {
				if !h.Remove(base + i) {
					t.Errorf("remove %d failed", base+i)
					return
				}
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

func TestTQueueFIFO(t *testing.T) {
	tm := core.NewDefault()
	q := NewTQueue[int](tm)
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue from empty succeeded")
	}
	for i := 1; i <= 5; i++ {
		q.Enqueue(i)
	}
	if n := snapshotLen(tm, q.LenTx); n != 5 {
		t.Fatalf("len = %d", n)
	}
	// LenTx walks inside the caller's transaction: it counts the
	// transaction's own pending enqueue, and nothing else sees it.
	errVeto := errors.New("veto")
	if err := tm.Atomic(func(tx *core.Tx) error {
		if err := q.EnqueueTx(tx, 6); err != nil {
			return err
		}
		if n, err := q.LenTx(tx); err != nil || n != 6 {
			t.Fatalf("LenTx after a pending enqueue = %d, %v; want 6", n, err)
		}
		return errVeto
	}); !errors.Is(err, errVeto) {
		t.Fatalf("vetoed transaction = %v", err)
	}
	if n := snapshotLen(tm, q.LenTx); n != 5 {
		t.Fatalf("len after a vetoed enqueue = %d, want 5", n)
	}
	for i := 1; i <= 5; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue = %d,%v want %d", v, ok, i)
		}
	}
	// Drain then reuse: the tail must have been reset correctly.
	q.Enqueue(42)
	if v, ok := q.Dequeue(); !ok || v != 42 {
		t.Fatalf("reuse after drain failed: %d,%v", v, ok)
	}
}

func TestTQueueConcurrent(t *testing.T) {
	tm := core.NewDefault()
	q := NewTQueue[uint64](tm)
	const producers, per = 4, 300
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				q.Enqueue(id*100000 + i)
			}
		}(uint64(p))
	}
	wg.Wait()
	last := map[uint64]int64{}
	for i := 0; i < producers*per; i++ {
		v, ok := q.Dequeue()
		if !ok {
			t.Fatalf("queue drained early at %d", i)
		}
		id, seq := v/100000, int64(v%100000)
		if prev, seen := last[id]; seen && seq <= prev {
			t.Fatalf("producer %d out of order", id)
		}
		last[id] = seq
	}
	if n := snapshotLen(tm, q.LenTx); n != 0 {
		t.Fatalf("len = %d after drain", n)
	}
}

// TestDequeueBlocking: consumers block on an empty queue and drain
// everything producers push, exactly once each; cancelling their
// context then releases the ones left parked.
func TestDequeueBlocking(t *testing.T) {
	tm := core.NewDefault()
	q := NewTQueue[uint64](tm)
	const producers, per, consumers = 3, 200, 3
	var prod sync.WaitGroup
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func(base uint64) {
			defer prod.Done()
			for i := uint64(0); i < per; i++ {
				q.Enqueue(base + i)
			}
		}(uint64(p) * 10000)
	}
	var seen sync.Map
	var got, parked sync.WaitGroup
	got.Add(producers * per)
	ctx, cancel := context.WithCancel(context.Background())
	for c := 0; c < consumers; c++ {
		parked.Add(1)
		go func() {
			defer parked.Done()
			for {
				v, err := q.DequeueBlockingCtx(ctx)
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("consumer: %v", err)
					}
					return
				}
				if _, dup := seen.LoadOrStore(v, true); dup {
					t.Errorf("value %d consumed twice", v)
				}
				got.Done()
			}
		}()
	}
	prod.Wait()
	got.Wait()
	if n := snapshotLen(tm, q.LenTx); n != 0 {
		t.Fatalf("len = %d after drain", n)
	}
	// The consumers are parked on the empty queue; cancelling wakes
	// them, and each returns.
	cancel()
	parked.Wait()
}

// TestMixedStructuresOneTransaction: a cross-structure transaction (move
// a key from a list into a hash set) is atomic — the paper's genericity
// claim for transactions.
func TestMixedStructuresOneTransaction(t *testing.T) {
	tm := core.NewDefault()
	l := NewTList(tm, core.Weak)
	h := NewTHash(tm, core.Weak, 8)
	l.Insert(7)
	err := tm.Atomic(func(tx *core.Tx) error {
		// Composed operations become nested scopes of this transaction.
		ok, err := l.RemoveTx(tx, 7)
		if err != nil {
			return err
		}
		if !ok {
			t.Fatal("remove failed")
		}
		ok, err = h.InsertTx(tx, 7)
		if err != nil {
			return err
		}
		if !ok {
			t.Fatal("insert failed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Contains(7) || !h.Contains(7) {
		t.Fatal("cross-structure move not atomic")
	}
}
