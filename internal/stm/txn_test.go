package stm

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// LoadDirect reads an untyped variable's committed value outside any
// transaction (see LoadVersion).
func (v *Var) LoadDirect() any { return unboxed(v.LoadVersion()) }

func TestReadInitialValue(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(42)
	err := e.Run(SemanticsDef, func(tx *Txn) error {
		v, err := tx.Read(x)
		if err != nil {
			return err
		}
		if v.(int) != 42 {
			t.Fatalf("read %v, want 42", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteThenReadBack(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	err := e.Run(SemanticsDef, func(tx *Txn) error {
		if err := tx.Write(x, 7); err != nil {
			return err
		}
		v, err := tx.Read(x)
		if err != nil {
			return err
		}
		if v.(int) != 7 {
			t.Fatalf("read-your-writes returned %v, want 7", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.LoadDirect().(int); got != 7 {
		t.Fatalf("committed value %d, want 7", got)
	}
}

func TestWritesInvisibleUntilCommit(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(1)
	tx := e.Begin(SemanticsDef)
	if err := tx.Write(x, 2); err != nil {
		t.Fatal(err)
	}
	if got := x.LoadDirect().(int); got != 1 {
		t.Fatalf("uncommitted write visible: %d", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := x.LoadDirect().(int); got != 2 {
		t.Fatalf("after commit got %d, want 2", got)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar("keep")
	tx := e.Begin(SemanticsDef)
	if err := tx.Write(x, "discard"); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if got := x.LoadDirect().(string); got != "keep" {
		t.Fatalf("aborted write leaked: %q", got)
	}
}

func TestUserErrorAbortsAndPropagates(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	boom := errors.New("boom")
	err := e.Run(SemanticsDef, func(tx *Txn) error {
		if err := tx.Write(x, 99); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := x.LoadDirect().(int); got != 0 {
		t.Fatalf("write from failed txn leaked: %d", got)
	}
}

func TestFinishedTxnRejected(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	tx := e.Begin(SemanticsDef)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(x); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Read on finished txn: %v, want ErrTxnDone", err)
	}
	if err := tx.Write(x, 1); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Write on finished txn: %v, want ErrTxnDone", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double Commit: %v, want ErrTxnDone", err)
	}
}

func TestCrossEngineRejected(t *testing.T) {
	e1 := NewDefaultEngine()
	e2 := NewDefaultEngine()
	x2 := e2.NewVar(0)
	tx := e1.Begin(SemanticsDef)
	if _, err := tx.Read(x2); !errors.Is(err, ErrCrossEngine) {
		t.Fatalf("cross-engine read: %v, want ErrCrossEngine", err)
	}
}

// TestWriteWriteConflict: two overlapping writers to the same variable;
// exactly one order must win and no update may be lost when both
// increment through the Run retry loop.
func TestConcurrentIncrementsLoseNothing(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := e.Run(SemanticsDef, func(tx *Txn) error {
					v, err := tx.Read(x)
					if err != nil {
						return err
					}
					return tx.Write(x, v.(int)+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := x.LoadDirect().(int); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

// TestBankInvariant: transfers between accounts preserve the total — the
// classic atomicity test. A checker transaction concurrently reads all
// accounts and must always observe the same sum.
func TestBankInvariant(t *testing.T) {
	e := NewDefaultEngine()
	const accounts = 10
	const initial = 100
	vars := make([]*Var, accounts)
	for i := range vars {
		vars[i] = e.NewVar(initial)
	}
	done := make(chan struct{})
	var transfers sync.WaitGroup
	for w := 0; w < 4; w++ {
		transfers.Add(1)
		go func(seed int) {
			defer transfers.Done()
			r := uint32(seed)
			for i := 0; i < 400; i++ {
				r = r*1103515245 + 12345
				from := int(r>>8) % accounts
				to := int(r>>16) % accounts
				if from == to {
					to = (to + 1) % accounts
				}
				err := e.Run(SemanticsDef, func(tx *Txn) error {
					fv, err := tx.Read(vars[from])
					if err != nil {
						return err
					}
					tv, err := tx.Read(vars[to])
					if err != nil {
						return err
					}
					if err := tx.Write(vars[from], fv.(int)-1); err != nil {
						return err
					}
					return tx.Write(vars[to], tv.(int)+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w + 1)
	}
	// Checker: the total must be invariant in every atomic observation.
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			sum := 0
			err := e.Run(SemanticsDef, func(tx *Txn) error {
				sum = 0
				for _, v := range vars {
					x, err := tx.Read(v)
					if err != nil {
						return err
					}
					sum += x.(int)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if sum != accounts*initial {
				t.Errorf("observed torn sum %d, want %d", sum, accounts*initial)
				return
			}
		}
	}()
	transfers.Wait()
	close(done)
	checker.Wait()
}

func TestRunRetriesOnConflict(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	tries := 0
	blocker := e.Begin(SemanticsDef)
	if _, err := blocker.Read(x); err != nil {
		t.Fatal(err)
	}
	err := e.Run(SemanticsDef, func(tx *Txn) error {
		tries++
		if tries == 1 {
			// Invalidate our own read set by committing an external
			// write between our read and our commit.
			v, err := tx.Read(x)
			if err != nil {
				return err
			}
			other := e.Begin(SemanticsDef)
			if err := other.Write(x, 100); err != nil {
				return err
			}
			if err := other.Commit(); err != nil {
				return err
			}
			return tx.Write(x, v.(int)+1)
		}
		v, err := tx.Read(x)
		if err != nil {
			return err
		}
		return tx.Write(x, v.(int)+1)
	})
	blocker.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if tries < 2 {
		t.Fatalf("expected a retry, got %d tries", tries)
	}
	if got := x.LoadDirect().(int); got != 101 {
		t.Fatalf("final = %d, want 101", got)
	}
}

func TestMaxAttempts(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	tries := 0
	err := e.RunOpts(context.Background(), SemanticsDef, RunOptions{MaxAttempts: 3}, func(tx *Txn) error {
		tries++
		// Force a conflict every time.
		if _, err := tx.Read(x); err != nil {
			return err
		}
		other := e.Begin(SemanticsDef)
		if err := other.Write(x, tries); err != nil {
			return err
		}
		if err := other.Commit(); err != nil {
			return err
		}
		return tx.Write(x, -1)
	})
	if !errors.Is(err, ErrTooManyAttempts) {
		t.Fatalf("err = %v, want ErrTooManyAttempts", err)
	}
	if tries != 3 {
		t.Fatalf("tries = %d, want 3", tries)
	}
}

func TestReadTimestampExtension(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(1)
	y := e.NewVar(2)

	tx := e.Begin(SemanticsDef)
	if _, err := tx.Read(x); err != nil {
		t.Fatal(err)
	}
	// Commit a write to y after tx started: y's head version now exceeds
	// tx.rv, so reading y forces an extension — which must succeed since
	// x is untouched.
	w := e.Begin(SemanticsDef)
	if err := w.Write(y, 20); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err := tx.Read(y)
	if err != nil {
		t.Fatalf("extension should have succeeded: %v", err)
	}
	if v.(int) != 20 {
		t.Fatalf("read %v, want 20 (post-extension value)", v)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Extensions == 0 {
		t.Fatal("expected at least one recorded extension")
	}
}

func TestExtensionFailsWhenReadSetInvalid(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(1)
	y := e.NewVar(2)

	tx := e.Begin(SemanticsDef)
	if _, err := tx.Read(x); err != nil {
		t.Fatal(err)
	}
	// Invalidate x AND advance y so tx must extend and fail.
	w := e.Begin(SemanticsDef)
	if err := w.Write(x, 10); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(y, 20); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	_, err := tx.Read(y)
	if !IsRetryable(err) {
		t.Fatalf("expected retryable conflict, got %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	for i := 0; i < 5; i++ {
		if err := e.Run(SemanticsDef, func(tx *Txn) error {
			v, err := tx.Read(x)
			if err != nil {
				return err
			}
			return tx.Write(x, v.(int)+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Commits != 5 {
		t.Fatalf("commits = %d, want 5", s.Commits)
	}
	if s.Reads < 5 || s.Writes < 5 {
		t.Fatalf("reads/writes = %d/%d, want >= 5 each", s.Reads, s.Writes)
	}
	if s.Starts < 5 {
		t.Fatalf("starts = %d, want >= 5", s.Starts)
	}
}

// TestRetryDropsAbortedAttemptSets: a retry holds nothing its aborted
// attempt read or wrote. The first attempt reads 10k variables and
// writes 16, the retry reads one and commits; afterwards the pooled
// shell's read and write sets keep none of them reachable behind their
// capacity, where a short retry's truncation would otherwise leave them
// for as long as the shell is reused.
func TestRetryDropsAbortedAttemptSets(t *testing.T) {
	e := NewDefaultEngine()
	vars := make([]*Var, 10_000)
	for i := range vars {
		vars[i] = e.NewVar(i)
	}
	var shell *Txn
	err := e.Run(SemanticsDef, func(tx *Txn) error {
		shell = tx
		if tx.Attempt() > 1 {
			_, err := tx.Read(vars[0])
			return err
		}
		for _, v := range vars {
			if _, err := tx.Read(v); err != nil {
				return err
			}
		}
		for _, v := range vars[:16] {
			if err := tx.Write(v, -1); err != nil {
				return err
			}
		}
		return ErrConflict
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range shell.rset[:cap(shell.rset)] {
		if r.v != nil || r.ver != nil {
			t.Fatalf("read-set slot %d still holds a variable or version", i)
		}
	}
	for i, w := range shell.wset[:cap(shell.wset)] {
		if w.v != nil || w.rec != nil {
			t.Fatalf("write-set slot %d still holds a variable or record", i)
		}
	}
}
