package stm

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// The allocation-regression tests lock in the pooled-transaction wins:
// the def read-only path and the snapshot read path must cost at most
// one allocation per operation (in steady state they cost zero — the
// budget of one absorbs a sync.Pool miss after a GC emptied it).

func TestReadOnlyDefAllocs(t *testing.T) {
	e := NewDefaultEngine()
	vars := make([]*Var, 8)
	for i := range vars {
		vars[i] = e.NewVar(i)
	}
	body := func(tx *Txn) error {
		for _, v := range vars {
			if _, err := tx.Read(v); err != nil {
				return err
			}
		}
		return nil
	}
	// Warm the pool and grow the read-set storage to steady state.
	for i := 0; i < 64; i++ {
		if err := e.Run(SemanticsDef, body); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := e.Run(SemanticsDef, body); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("def read-only txn: %.2f allocs/op, want <= 1", avg)
	}
}

func TestSnapshotReadAllocs(t *testing.T) {
	e := NewDefaultEngine()
	vars := make([]*Var, 8)
	for i := range vars {
		vars[i] = e.NewVar(i)
	}
	body := func(tx *Txn) error {
		for _, v := range vars {
			if _, err := tx.Read(v); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < 64; i++ {
		if err := e.Run(SemanticsSnapshot, body); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := e.Run(SemanticsSnapshot, body); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("snapshot read-only txn: %.2f allocs/op, want <= 1", avg)
	}
}

// TestSnapshotNeverAbortsUnderKillStorm runs kill-happy aggressive
// writers against snapshot readers over one pooled engine: every kill
// a contention manager delivers goes through a *Txn pointer that may
// already be stale, and the attempt-scoped kill delivery (Txn.killedID)
// must guarantee none of them ever lands on a shell that has been
// recycled into a snapshot reader — the class whose never-abort
// guarantee the paper promises.
func TestSnapshotNeverAbortsUnderKillStorm(t *testing.T) {
	e := NewDefaultEngine()
	aggressive := RunOptions{CM: NewAggressive()}
	vars := make([]*Var, 4)
	for i := range vars {
		vars[i] = e.NewVar(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				// A writer storm with kills...
				_ = e.RunOpts(context.Background(), SemanticsDef, aggressive, func(tx *Txn) error {
					v, err := tx.Read(vars[(g+i)%len(vars)])
					if err != nil {
						return err
					}
					return tx.Write(vars[(g+i+1)%len(vars)], v)
				})
				// ...interleaved with snapshot readers reusing the same
				// pooled shells.
				if err := e.RunOpts(context.Background(), SemanticsSnapshot, aggressive, func(tx *Txn) error {
					for _, v := range vars {
						if _, err := tx.Read(v); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Errorf("g%d i%d: snapshot run failed: %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if aborts := e.Stats().Sem(SemanticsSnapshot).Aborts; aborts != 0 {
		t.Fatalf("snapshot class aborted %d times under kill storm; must never abort", aborts)
	}
}

// errPoison is the user error the reuse stress test aborts with.
var errPoison = errors.New("poison: deliberate user abort")

// TestPooledTxnReuseFreshState hammers one engine from many goroutines
// through the pooled Run path, rotating all four semantics and mixing
// commits with user-error aborts, and asserts at every transaction
// entry that nothing leaked from whatever lifecycle previously owned
// the pooled shell: read-your-writes sees no stale buffered write, the
// effective semantics (and hence the mode stack and elastic floor) are
// fresh, and committed state is exactly what this goroutine committed.
// Run under -race (CI does) it also checks the pool handoff itself.
func TestPooledTxnReuseFreshState(t *testing.T) {
	e := NewDefaultEngine()
	shared := e.NewVar(0)
	const goroutines = 8
	const iters = 400

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			private := e.NewVar(0)
			want := 0
			sems := [...]Semantics{SemanticsDef, SemanticsWeak, SemanticsSnapshot, SemanticsIrrevocable}
			for i := 0; i < iters; i++ {
				sem := sems[i%len(sems)]
				// Only the writing optimistic classes abort: snapshot
				// bodies return before the poison point and irrevocable
				// transactions are guaranteed to commit.
				abort := (sem == SemanticsDef || sem == SemanticsWeak) && i%7 == 3
				err := e.Run(sem, func(tx *Txn) error {
					if got := tx.EffectiveSemantics(); got != sem {
						t.Errorf("g%d i%d: effective semantics %v at entry, want %v (mode stack leaked?)", g, i, got, sem)
					}
					// A leaked write set would satisfy this read from a
					// stale buffered value; a leaked read set would
					// break validation accounting.
					v, err := tx.Read(private)
					if err != nil {
						return err
					}
					if v.(int) != want {
						t.Errorf("g%d i%d: private = %v at entry, want %d", g, i, v, want)
					}
					if sem == SemanticsSnapshot {
						return nil // read-only class
					}
					// Exercise the nested-mode stack so a missed reset
					// would be observable next lifecycle.
					tx.PushMode(SemanticsDef)
					sv, err := tx.Read(shared)
					if err != nil {
						tx.PopMode()
						return err
					}
					if err := tx.Write(shared, sv.(int)+1); err != nil {
						tx.PopMode()
						return err
					}
					tx.PopMode()
					if err := tx.Write(private, want+1); err != nil {
						return err
					}
					if abort {
						return errPoison
					}
					return nil
				})
				switch {
				case abort:
					if !errors.Is(err, errPoison) {
						t.Errorf("g%d i%d: aborting run returned %v, want poison", g, i, err)
					}
				case err != nil:
					t.Errorf("g%d i%d: run failed: %v", g, i, err)
				case sem != SemanticsSnapshot:
					want++
				}
			}
			if got := private.LoadDirect().(int); got != want {
				t.Errorf("g%d: final private = %d, want %d", g, got, want)
			}
		}(g)
	}
	wg.Wait()
}
