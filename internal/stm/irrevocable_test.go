package stm

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestIrrevocableCommitsFirstAttempt(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	attempts := 0
	err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
		attempts++
		v, err := tx.Read(x)
		if err != nil {
			return err
		}
		return tx.Write(x, v.(int)+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 1 {
		t.Fatalf("irrevocable ran %d attempts, want exactly 1", attempts)
	}
	if got := x.LoadDirect().(int); got != 1 {
		t.Fatalf("x = %d, want 1", got)
	}
}

func TestIrrevocableCannotBeKilled(t *testing.T) {
	e := NewDefaultEngine()
	tx := e.Begin(SemanticsIrrevocable)
	if tx.kill(tx.ID()) {
		t.Fatal("kill() must refuse irrevocable transactions")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestIrrevocableSerializedByToken(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	var inside atomic.Int32
	var maxInside atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
					n := inside.Add(1)
					for {
						m := maxInside.Load()
						if n <= m || maxInside.CompareAndSwap(m, n) {
							break
						}
					}
					v, err := tx.Read(x)
					if err != nil {
						return err
					}
					if err := tx.Write(x, v.(int)+1); err != nil {
						return err
					}
					inside.Add(-1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m := maxInside.Load(); m != 1 {
		t.Fatalf("observed %d concurrent irrevocable transactions, want 1", m)
	}
	if got := x.LoadDirect().(int); got != 200 {
		t.Fatalf("x = %d, want 200", got)
	}
}

// TestIrrevocableVsOptimistic: one irrevocable transaction mixed with
// optimistic writers; the irrevocable one must commit exactly once and
// the counter must not lose updates.
func TestIrrevocableVsOptimistic(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	const optWorkers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < optWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := e.Run(SemanticsDef, func(tx *Txn) error {
					v, err := tx.Read(x)
					if err != nil {
						return err
					}
					return tx.Write(x, v.(int)+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			if err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
				v, err := tx.Read(x)
				if err != nil {
					return err
				}
				return tx.Write(x, v.(int)+1)
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	want := (optWorkers + 1) * per
	if got := x.LoadDirect().(int); got != want {
		t.Fatalf("x = %d, want %d", got, want)
	}
}

// TestIrrevocableReadLocksRestoreVersion: a read-only encounter lock must
// restore the variable's original version word so later readers see an
// unchanged version.
func TestIrrevocableReadLocksRestoreVersion(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(5)
	before := x.lw.Load()
	if err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
		_, err := tx.Read(x)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	after := x.lw.Load()
	if before != after {
		t.Fatalf("read-only irrevocable changed lock word %#x -> %#x", before, after)
	}
	if _, locked := x.lockedBy(); locked {
		t.Fatal("variable left locked")
	}
}

func TestIrrevocableUserErrorReleasesLocks(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(1)
	sentinel := errTest{}
	err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
		if err := tx.Write(x, 99); err != nil {
			return err
		}
		return sentinel
	})
	if err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if _, locked := x.lockedBy(); locked {
		t.Fatal("abort left encounter lock held")
	}
	if got := x.LoadDirect().(int); got != 1 {
		t.Fatalf("aborted irrevocable write leaked: %d", got)
	}
	// The engine must accept new irrevocable transactions (token freed).
	if err := e.Run(SemanticsIrrevocable, func(tx *Txn) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestIrrevocableDropsItsLockList: once an irrevocable transaction has
// released its encounter locks — committing or aborting — its pooled
// shell holds no pointer to any variable it locked. Otherwise a walk
// over a whole structure (a FLUSH's count, a REBUILD) would keep every
// node alive behind the lock list's capacity for as long as the shell
// is reused.
func TestIrrevocableDropsItsLockList(t *testing.T) {
	e := NewDefaultEngine()
	vars := make([]*Var, 1000)
	for i := range vars {
		vars[i] = e.NewVar(i)
	}
	for _, end := range []error{nil, errTest{}} {
		var shell *Txn
		err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
			shell = tx
			for _, v := range vars {
				if _, err := tx.Read(v); err != nil {
					return err
				}
			}
			return end
		})
		if err != end {
			t.Fatalf("Run = %v, want %v", err, end)
		}
		for i, el := range shell.encLocks[:cap(shell.encLocks)] {
			if el.v != nil {
				t.Fatalf("after Run returned %v, lock-list slot %d still holds a variable", end, i)
			}
		}
	}
}

type errTest struct{}

func (errTest) Error() string { return "test error" }
