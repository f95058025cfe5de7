package stm

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The cancellation contract: a context bounds the whole run —
// cancellation aborts between attempts, interrupts contention-manager
// backoff sleeps, wakes a transaction parked in Retry's wait loop and
// breaks lock-wait spins — and in every case the transaction's buffered
// writes are discarded and the returned error matches both ErrCancelled
// and the context's own error.

// requireCancelled asserts the full typed shape of a cancellation
// abort.
func requireCancelled(t *testing.T, err, cause error) *AbortError {
	t.Helper()
	if err == nil {
		t.Fatal("run returned nil, want cancellation abort")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, must also match the context cause %v", err, cause)
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *AbortError", err)
	}
	return ae
}

// TestCancelBetweenAttempts cancels the context during an attempt whose
// body then forces a retryable abort: the run loop must observe the
// cancellation before beginning the next attempt, and the aborted
// attempt's write must not be visible.
func TestCancelBetweenAttempts(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	err := e.RunOpts(ctx, SemanticsDef, RunOptions{}, func(tx *Txn) error {
		attempts++
		if err := tx.Write(x, 42); err != nil {
			return err
		}
		cancel()
		// A retryable error: without the context the run loop would
		// re-execute forever.
		return tx.abortConflict("forced", 0)
	})
	ae := requireCancelled(t, err, context.Canceled)
	if attempts != 1 {
		t.Fatalf("body ran %d times after cancel, want 1", attempts)
	}
	if ae.Attempts != 1 {
		t.Fatalf("AbortError.Attempts = %d, want 1", ae.Attempts)
	}
	if got := x.LoadDirect().(int); got != 0 {
		t.Fatalf("cancelled transaction's write visible: x = %d, want 0", got)
	}
}

// sleepCM parks every abort in a ten-second Txn.Sleep; only context
// cancellation can release it within the test's deadline.
type sleepCM struct{}

func (sleepCM) OnLockBusy(*Txn, *Txn, int) Resolution { return ResolutionAbortSelf }
func (sleepCM) OnAbort(tx *Txn)                       { tx.Sleep(10 * time.Second) }
func (sleepCM) Name() string                          { return "sleep-forever" }

// TestCancelBackoffSleep parks the transaction in its contention
// manager's backoff sleep and asserts a 50ms deadline releases it.
func TestCancelBackoffSleep(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := e.RunOpts(ctx, SemanticsDef, RunOptions{CM: func() ContentionManager { return sleepCM{} }}, func(tx *Txn) error {
		if err := tx.Write(x, 7); err != nil {
			return err
		}
		return tx.abortConflict("forced", 0)
	})
	elapsed := time.Since(start)
	requireCancelled(t, err, context.DeadlineExceeded)
	if elapsed > 2*time.Second {
		t.Fatalf("backoff sleep held the cancelled run for %v", elapsed)
	}
	if got := x.LoadDirect().(int); got != 0 {
		t.Fatalf("cancelled transaction's write visible: x = %d, want 0", got)
	}
}

// TestCancelRetryWait parks the transaction in the Retry combinator's
// wait (its read set never changes) and asserts a 50ms deadline wakes
// it.
func TestCancelRetryWait(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := e.RunOpts(ctx, SemanticsDef, RunOptions{}, func(tx *Txn) error {
		if _, err := tx.Read(x); err != nil {
			return err
		}
		if err := tx.Write(x, 99); err != nil {
			return err
		}
		return ErrRetryWait
	})
	elapsed := time.Since(start)
	requireCancelled(t, err, context.DeadlineExceeded)
	if elapsed > 2*time.Second {
		t.Fatalf("retry wait held the cancelled run for %v", elapsed)
	}
	if got := x.LoadDirect().(int); got != 0 {
		t.Fatalf("cancelled transaction's write visible: x = %d, want 0", got)
	}
}

// TestCancelLockWait parks a def reader against a variable whose lock
// word is held, as a committer in its publish window holds it, and
// asserts a 50ms deadline releases the waiting reader (waitUnlocked's
// spin is a cancellation point).
func TestCancelLockWait(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	holder := e.Begin(SemanticsDef)
	defer holder.Abort()
	prev, ok := x.tryLock(holder.id)
	if !ok {
		t.Fatal("could not take x's lock word")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := e.RunOpts(ctx, SemanticsDef, RunOptions{}, func(tx *Txn) error {
		_, err := tx.Read(x)
		return err
	})
	elapsed := time.Since(start)
	requireCancelled(t, err, context.DeadlineExceeded)
	if elapsed > 2*time.Second {
		t.Fatalf("lock wait held the cancelled run for %v", elapsed)
	}
	x.unlockTo(prev)
	if err := e.Run(SemanticsDef, func(tx *Txn) error { return tx.Write(x, 1) }); err != nil {
		t.Fatalf("writer after the lock's release: %v", err)
	}
}

// TestCancelAtIrrevocableGate parks a def writer's commit at the gate an
// irrevocable transaction holds and asserts a 50ms deadline releases
// it, as a kill does; the irrevocable then still commits, and neither
// parked write lands.
func TestCancelAtIrrevocableGate(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	holder := e.Begin(SemanticsIrrevocable)
	defer holder.Abort()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := e.RunOpts(ctx, SemanticsDef, RunOptions{}, func(tx *Txn) error { return tx.Write(x, 1) })
	elapsed := time.Since(start)
	requireCancelled(t, err, context.DeadlineExceeded)
	if elapsed > 2*time.Second {
		t.Fatalf("gate wait held the cancelled run for %v", elapsed)
	}

	w := e.Begin(SemanticsDef)
	if err := w.Write(x, 2); err != nil {
		t.Fatal(err)
	}
	id := w.id
	committed := make(chan error, 1)
	go func() { committed <- w.Commit() }()
	time.Sleep(10 * time.Millisecond) // let the commit reach the gate
	w.kill(id)
	select {
	case err := <-committed:
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("killed commit at the gate: %v, want ErrKilled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a kill did not release the commit parked at the gate")
	}
	if err := holder.Commit(); err != nil {
		t.Fatalf("irrevocable holder must still commit: %v", err)
	}
	if got := x.LoadDirect().(int); got != 0 {
		t.Fatalf("a parked write landed: x = %d, want 0", got)
	}
}

// TestCancelBeforeFirstAttempt: an already-dead context never runs the
// body at all.
func TestCancelBeforeFirstAttempt(t *testing.T) {
	e := NewDefaultEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := e.RunOpts(ctx, SemanticsDef, RunOptions{}, func(tx *Txn) error {
		ran = true
		return nil
	})
	ae := requireCancelled(t, err, context.Canceled)
	if ran {
		t.Fatal("body ran under a cancelled context")
	}
	if ae.Attempts != 0 {
		t.Fatalf("AbortError.Attempts = %d, want 0", ae.Attempts)
	}
}

// TestIrrevocableIgnoresCancelMidFlight: a begun irrevocable
// transaction is guaranteed to commit and must complete even when its
// context dies mid-body.
func TestIrrevocableIgnoresCancelMidFlight(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	ctx, cancel := context.WithCancel(context.Background())
	err := e.RunOpts(ctx, SemanticsIrrevocable, RunOptions{}, func(tx *Txn) error {
		cancel()
		return tx.Write(x, 1)
	})
	if err != nil {
		t.Fatalf("irrevocable run failed under mid-flight cancel: %v", err)
	}
	if got := x.LoadDirect().(int); got != 1 {
		t.Fatalf("irrevocable write lost: x = %d, want 1", got)
	}
}

// TestRunOptsBackgroundAllocs: RunOpts(context.Background()) must not
// regress the pooled zero/one-alloc read path.
func TestRunOptsBackgroundAllocs(t *testing.T) {
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
		if err := e.RunOpts(context.Background(), SemanticsDef, RunOptions{}, body); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := e.RunOpts(context.Background(), SemanticsDef, RunOptions{}, body); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("RunOpts(Background) def read-only txn: %.2f allocs/op, want <= 1", avg)
	}
}
