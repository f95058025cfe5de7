package stm

import (
	"errors"
	"sync"
	"testing"
)

func TestSnapshotSeesStartState(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(1)

	snap := e.Begin(SemanticsSnapshot)

	// A writer commits after the snapshot started.
	w := e.Begin(SemanticsDef)
	if err := w.Write(x, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	v, err := snap.Read(x)
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 1 {
		t.Fatalf("snapshot read %v, want the pre-write value 1", v)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().SnapshotReads == 0 {
		t.Fatal("expected a non-head snapshot read to be recorded")
	}
}

func TestSnapshotNeverAborts(t *testing.T) {
	e := NewDefaultEngine()
	const n = 32
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = e.NewVar(0)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := uint32(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r = r*1664525 + 1013904223
				i := int(r>>8) % n
				_ = e.Run(SemanticsDef, func(tx *Txn) error {
					v, err := tx.Read(vars[i])
					if err != nil {
						return err
					}
					return tx.Write(vars[i], v.(int)+1)
				})
			}
		}(w + 3)
	}

	// Snapshot scanners: a full scan must always see a monotonically
	// consistent state and must never return a retryable error.
	for s := 0; s < 4; s++ {
		for rep := 0; rep < 100; rep++ {
			tx := e.Begin(SemanticsSnapshot)
			for i := 0; i < n; i++ {
				if _, err := tx.Read(vars[i]); err != nil {
					t.Fatalf("snapshot read aborted: %v", err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("snapshot commit: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotConsistentSum: writers preserve an invariant (total sum);
// snapshot scans concurrent with the writers must observe exactly the
// invariant sum — the snapshot is a consistent cut by construction.
func TestSnapshotConsistentSum(t *testing.T) {
	e := NewDefaultEngine()
	const n = 16
	const initial = 1000
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = e.NewVar(initial)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := uint32(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r = r*1664525 + 1013904223
				i := int(r>>8) % n
				j := int(r>>16) % n
				if i == j {
					continue
				}
				_ = e.Run(SemanticsDef, func(tx *Txn) error {
					a, err := tx.Read(vars[i])
					if err != nil {
						return err
					}
					b, err := tx.Read(vars[j])
					if err != nil {
						return err
					}
					if err := tx.Write(vars[i], a.(int)-5); err != nil {
						return err
					}
					return tx.Write(vars[j], b.(int)+5)
				})
			}
		}(w + 11)
	}

	// Regression scope: this loop once caught a publish-window race —
	// a writer locks its write set before ticking the clock, so a
	// snapshot starting inside that window must wait out the locks or
	// it can observe half of a two-variable transfer.
	for rep := 0; rep < 1500; rep++ {
		sum := 0
		tx := e.Begin(SemanticsSnapshot)
		for i := 0; i < n; i++ {
			v, err := tx.Read(vars[i])
			if err != nil {
				t.Fatal(err)
			}
			sum += v.(int)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if sum != n*initial {
			t.Fatalf("snapshot observed torn sum %d, want %d", sum, n*initial)
		}
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotWriteRejected(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	tx := e.Begin(SemanticsSnapshot)
	err := tx.Write(x, 1)
	if !errors.Is(err, ErrSnapshotWrite) {
		t.Fatalf("err = %v, want ErrSnapshotWrite", err)
	}
	if got := x.LoadDirect().(int); got != 0 {
		t.Fatalf("snapshot write leaked: %d", got)
	}
}

func TestSnapshotRegistryTrimming(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)

	// With no live snapshots, version history is trimmed to the head.
	for i := 1; i <= 5; i++ {
		if err := e.Run(SemanticsDef, func(tx *Txn) error {
			return tx.Write(x, i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if h := x.head.Load(); h.prev.Load() != nil {
		t.Fatal("history should be trimmed when no snapshots are live")
	}

	// With a live snapshot, the version it needs is preserved.
	snap := e.Begin(SemanticsSnapshot)
	for i := 6; i <= 10; i++ {
		if err := e.Run(SemanticsDef, func(tx *Txn) error {
			return tx.Write(x, i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := snap.Read(x)
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 5 {
		t.Fatalf("snapshot read %v, want 5 (value at its start)", v)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.snaps.activeCount() != 0 {
		t.Fatal("snapshot not unregistered after commit")
	}

	// The reader that needed the history was the last to leave: its
	// finish released it, with no further write to x.
	if h := x.head.Load(); h.prev.Load() != nil {
		t.Fatal("history kept for a reader outlived it")
	}
}

func TestSnapshotRegistryMin(t *testing.T) {
	e := NewDefaultEngine()
	t1 := e.Begin(SemanticsSnapshot)
	e.clock.Tick()
	t2 := e.Begin(SemanticsSnapshot)
	if m := e.snaps.minActive(); m != t1.rv {
		t.Fatalf("minActive = %d, want %d", m, t1.rv)
	}
	t1.Abort()
	if m := e.snaps.minActive(); m != t2.rv {
		t.Fatalf("after t1 ends, minActive = %d, want %d", m, t2.rv)
	}
	t2.Commit()
}
