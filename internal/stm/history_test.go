package stm

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polytm/internal/raceflag"
)

// TestHistoryReleaseUnderChurn runs snapshot readers that check a
// conserved sum beside def writers that move units between variables,
// so that the owed queues are appended and drained throughout. Each
// round also parks one reader while the writers run, so that its finish
// drains a long queue while other readers come and go: a drain that cut
// a chain some reader still needs fails that reader's read with
// "snapshot history trimmed", which the snapshot abort count shows.
// Once every reader has left, no variable may keep any history.
func TestHistoryReleaseUnderChurn(t *testing.T) {
	e := NewDefaultEngine()
	const nvars, initial, rounds = 64, 100, 10
	vars := make([]*Var, nvars)
	for i := range vars {
		vars[i] = e.NewVar(initial)
	}
	sum := func(tx *Txn) error {
		total := 0
		for _, v := range vars {
			x, err := tx.Read(v)
			if err != nil {
				return err
			}
			total += x.(int)
		}
		if total != nvars*initial {
			t.Errorf("snapshot at rv %d read sum %d, want %d", tx.rv, total, nvars*initial)
		}
		return nil
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			for !stop.Load() {
				from, to := vars[rng.IntN(nvars)], vars[rng.IntN(nvars)]
				if err := e.Run(SemanticsDef, func(tx *Txn) error {
					a, err := tx.Read(from)
					if err != nil {
						return err
					}
					if err := tx.Write(from, a.(int)-1); err != nil {
						return err
					}
					b, err := tx.Read(to)
					if err != nil {
						return err
					}
					return tx.Write(to, b.(int)+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := e.Run(SemanticsSnapshot, sum); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for range rounds {
		parked := e.Begin(SemanticsSnapshot)
		for range 50 {
			if err := e.Run(SemanticsDef, func(tx *Txn) error {
				for _, v := range vars[:8] {
					x, err := tx.Read(v)
					if err != nil {
						return err
					}
					if err := tx.Write(v, x.(int)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sum(parked); err != nil {
			t.Fatal(err)
		}
		if err := parked.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if n := e.Stats().Sem(SemanticsSnapshot).Aborts; n != 0 {
		t.Fatalf("snapshot readers aborted %d times: a drain cut history a reader needed", n)
	}
	for i, v := range vars {
		if h := v.head.Load(); h.prev.Load() != nil {
			t.Fatalf("var %d keeps history at version %d after every reader left", i, h.ver)
		}
	}
}

// TestDefWriteBesideSnapshotAllocs: a def write that keeps history for
// a live snapshot reader owes it to its stripe's queue, which the
// reader's finish drains, so once the queue has grown to its working
// size the write allocates only the record it hands over.
func TestDefWriteBesideSnapshotAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts; budgets are asserted in the non-race CI step")
	}
	e := NewDefaultEngine()
	x := e.NewVar(0)
	val := new(int)
	op := func() {
		if err := e.Run(SemanticsSnapshot, func(r *Txn) error {
			before, err := r.Read(x)
			if err != nil {
				return err
			}
			if err := e.Run(SemanticsDef, func(tx *Txn) error {
				return tx.WriteVersion(x, boxed(val))
			}); err != nil {
				return err
			}
			if h := x.head.Load(); h.prev.Load() == nil {
				t.Fatal("a write beside a live reader kept no history")
			}
			if after, err := r.Read(x); err != nil || after != before {
				t.Fatalf("snapshot re-read %v, %v; want %v", after, err, before)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if h := x.head.Load(); h.prev.Load() != nil {
			t.Fatal("the reader left and the history stayed")
		}
	}
	for range 64 {
		op()
	}
	if avg := testing.AllocsPerRun(500, op); avg > 1 {
		t.Errorf("def write beside a snapshot reader: %.2f allocs, want <= 1 (the record)", avg)
	}
}

// TestDrainFoldsAfterHeadLoad pins the drain's order. A reader that
// leaves with nobody else registered drains a queue owing x, but the
// test holds that stripe's lock, which parks the drain after its first
// fold, which saw no reader. A new reader then registers, and a def
// write keeps x's old value for it. Its commit is owed to the parked
// stripe before the drain gets the lock (the test appends the entry,
// as a committer that won the lock would). Released, the drain loads
// x's new head and only then folds again, sees the new reader and keeps
// the history; a drain that decided on its first fold would cut the
// version the reader resolves to.
func TestDrainFoldsAfterHeadLoad(t *testing.T) {
	e := NewEngine(Config{Shards: 2})
	x := e.NewVar(0)
	write := func(stripe uint64, val int) {
		tx := e.Begin(SemanticsDef)
		for tx.stripe&e.stats.mask != stripe {
			tx.Abort()
			tx = e.Begin(SemanticsDef)
		}
		if err := tx.Write(x, val); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	parked := e.Begin(SemanticsSnapshot)
	write(0, 1)
	q := &e.owed[0]
	if len(q.vars) != 1 {
		t.Fatalf("%d variables owed, want x", len(q.vars))
	}

	q.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := parked.Commit(); err != nil {
			t.Error(err)
		}
	}()
	for e.snaps.minActive() != snapFree {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond) // the drain folds and waits for q.mu
	reader := e.Begin(SemanticsSnapshot)
	write(1, 2)
	q.vars = append(q.vars, owed{x, x.head.Load().ver})
	q.mu.Unlock()
	<-done

	if got, err := reader.Read(x); err != nil || got != 1 {
		t.Fatalf("reader registered mid-drain read %v, %v; want 1", got, err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	if h := x.head.Load(); h.prev.Load() != nil {
		t.Fatal("history kept for the mid-drain reader outlived it")
	}
}
