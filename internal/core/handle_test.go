package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"polytm/internal/raceflag"
	"polytm/internal/stm"
)

// The Tx handle is no longer a per-call value: it rides on the pooled
// engine transaction it wraps, so the same *Tx serves every run that
// draws that shell. These tests pin what keeps that sharing invisible
// to a body: the handle a body is given always drives the transaction
// running that body, and no two live transactions hold one handle.

// checkHandle fails the test unless tx is wired to the transaction it
// claims: the engine transaction carries tx back, and is mid-attempt.
func checkHandle(t *testing.T, tx *Tx, where string) {
	t.Helper()
	if h, _ := tx.inner.Handle().(*Tx); h != tx {
		t.Errorf("%s: handle %p wraps an engine txn whose handle is %p", where, tx, h)
	}
	if tx.inner.Attempt() < 1 {
		t.Errorf("%s: handle's engine txn is not running an attempt", where)
	}
}

// TestAtomicAsReadOnlyAllocs: with the handle pooled, a read-only
// transaction through the core layer allocates nothing at all.
func TestAtomicAsReadOnlyAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts; budgets are asserted in the non-race CI step")
	}
	tm := NewDefault()
	v := NewTVar(tm, 7)
	for _, sem := range []Semantics{Def, Weak, Snapshot} {
		body := func(tx *Tx) error {
			_, err := Get(tx, v)
			return err
		}
		for i := 0; i < 64; i++ {
			if err := tm.AtomicAs(sem, body); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(500, func() {
			if err := tm.AtomicAs(sem, body); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("AtomicAs(%v) read-only: %.2f allocs/op, want 0", sem, avg)
		}
	}
}

// TestTxHandleNested: under each nesting policy a flat-nested scope
// shares its parent's handle (it IS the parent's transaction), while a
// transaction started on the TM from inside a body draws its own — and
// leaves the outer handle pointing where it did.
func TestTxHandleNested(t *testing.T) {
	for _, policy := range allPolicies {
		tm := New(Config{Nesting: policy})
		a, b := NewTVar(tm, 0), NewTVar(tm, 0)
		err := tm.Atomic(func(outer *Tx) error {
			checkHandle(t, outer, "outer")
			outerInner := outer.inner

			if err := outer.Atomic(func(nested *Tx) error {
				if nested != outer {
					t.Errorf("%v: flat-nested scope got handle %p, parent has %p", policy, nested, outer)
				}
				if want := expectedCompose(Def, Weak, policy); nested.Semantics() != want {
					t.Errorf("%v: nested semantics %v, want %v", policy, nested.Semantics(), want)
				}
				return Set(nested, a, 1)
			}, WithSemantics(Weak)); err != nil {
				return err
			}

			// An independent transaction, live while outer still is.
			if err := tm.Atomic(func(other *Tx) error {
				checkHandle(t, other, "inner tm.Atomic")
				if other == outer || other.inner == outerInner {
					t.Errorf("%v: a transaction started inside a body shares the outer handle", policy)
				}
				_, err := Get(other, b)
				return err
			}, WithSemantics(Snapshot)); err != nil {
				return err
			}

			if outer.inner != outerInner {
				t.Errorf("%v: the inner transaction re-pointed the outer handle", policy)
			}
			checkHandle(t, outer, "outer after inner")
			return Set(outer, b, 2)
		})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if a.LoadDirect() != 1 || b.LoadDirect() != 2 {
			t.Fatalf("%v: committed a=%d b=%d, want 1 2", policy, a.LoadDirect(), b.LoadDirect())
		}
	}
}

// TestTxHandleEscalation: a transaction that loses two attempts to
// conflicts and then asks for an irrevocable nested scope is restarted
// irrevocably. Every attempt — the retries on one shell and the
// escalated run on whichever shell it draws — sees a handle wired to
// its own engine transaction, and the irrevocable run's writes commit.
func TestTxHandleEscalation(t *testing.T) {
	tm := NewDefault()
	v := NewTVar(tm, 0)
	var sems []Semantics
	err := tm.Atomic(func(tx *Tx) error {
		checkHandle(t, tx, "attempt")
		sems = append(sems, tx.inner.Semantics())
		if err := Set(tx, v, len(sems)); err != nil {
			return err
		}
		switch len(sems) {
		case 1, 2:
			return &stm.AbortError{Sentinel: stm.ErrConflict} // lose; retry on the same shell
		case 3:
			return tx.AtomicAs(Irrevocable, func(*Tx) error {
				t.Error("irrevocable scope ran inside an optimistic transaction")
				return nil
			})
		}
		return tx.AtomicAs(Irrevocable, func(nested *Tx) error {
			if nested != tx {
				t.Errorf("nested scope of the escalated run got handle %p, want %p", nested, tx)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Semantics{Def, Def, Def, Irrevocable}
	if len(sems) != len(want) {
		t.Fatalf("ran %d attempts (%v), want %v", len(sems), sems, want)
	}
	for i := range want {
		if sems[i] != want[i] {
			t.Fatalf("attempt semantics %v, want %v", sems, want)
		}
	}
	if got := v.LoadDirect(); got != 4 {
		t.Fatalf("committed %d, want the irrevocable attempt's 4", got)
	}
}

// TestTxHandleConcurrent: 8 goroutines × 10k transactions over one TM,
// conflicting on shared counters so shells are retried, released and
// redrawn constantly. A body claims its handle on entry and releases it
// on exit; a claim that finds the handle taken means two live
// transactions were given the same *Tx. Every so often a body starts a
// second transaction inside itself. The committed totals prove each
// handle drove the transaction it was handed for. CI runs it under
// -race -count=3, where a shared shell is also a reported data race.
func TestTxHandleConcurrent(t *testing.T) {
	const goroutines, perG = 8, 10000
	tm := NewDefault()
	shared := NewTVar(tm, 0)
	side := NewTVar(tm, 0)
	var claimed sync.Map // *Tx -> *atomic.Bool
	claim := func(tx *Tx) func() {
		f, _ := claimed.LoadOrStore(tx, new(atomic.Bool))
		flag := f.(*atomic.Bool)
		if !flag.CompareAndSwap(false, true) {
			t.Errorf("handle %p given to a second live transaction", tx)
		}
		return func() { flag.Store(false) }
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := NewTVar(tm, 0)
			for i := 0; i < perG; i++ {
				err := tm.Atomic(func(tx *Tx) error {
					defer claim(tx)()
					checkHandle(t, tx, "body")
					if i%16 == g {
						if err := tm.Atomic(func(in *Tx) error {
							defer claim(in)()
							checkHandle(t, in, "inner body")
							return Modify(in, side, func(n int) int { return n + 1 })
						}); err != nil {
							return err
						}
						checkHandle(t, tx, "body after inner")
					}
					if err := Modify(tx, mine, func(n int) int { return n + 1 }); err != nil {
						return err
					}
					return Modify(tx, shared, func(n int) int { return n + 1 })
				})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
			if got := mine.LoadDirect(); got != perG {
				t.Errorf("goroutine %d: own counter %d, want %d", g, got, perG)
			}
		}(g)
	}
	wg.Wait()
	if got := shared.LoadDirect(); got != goroutines*perG {
		t.Errorf("shared counter %d, want %d", got, goroutines*perG)
	}
	// side counts inner commits; an outer retry re-runs its inner
	// transaction, so it is at least one per i%16 == g round.
	if got, min := side.LoadDirect(), goroutines*(perG/16); got < min {
		t.Errorf("inner transactions committed %d times, want at least %d", got, min)
	}
}
