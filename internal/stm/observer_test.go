package stm

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// countingObserver tallies events; safe for concurrent use.
type countingObserver struct {
	commits, aborts, waits atomic.Int64

	mu        sync.Mutex
	waitLabel string // only a parked Retry emits OnWait
	lastErr   error
}

func (o *countingObserver) OnCommit(ev TxnEvent) { o.commits.Add(1) }

func (o *countingObserver) OnAbort(ev TxnEvent) {
	o.aborts.Add(1)
	o.mu.Lock()
	o.lastErr = ev.Err
	o.mu.Unlock()
}

func (o *countingObserver) OnWait(ev TxnEvent) {
	o.waits.Add(1)
	o.mu.Lock()
	o.waitLabel = ev.Label
	o.mu.Unlock()
}

// TestObserverSeesLifecycle drives commit, user-error abort,
// retry-then-commit and Retry-wait flows past an engine-wide observer.
func TestObserverSeesLifecycle(t *testing.T) {
	obs := &countingObserver{}
	e := NewEngine(Config{Observer: obs})
	x := e.NewVar(0)

	// Plain commit.
	if err := e.Run(SemanticsDef, func(tx *Txn) error { return tx.Write(x, 1) }); err != nil {
		t.Fatal(err)
	}
	if got := obs.commits.Load(); got != 1 {
		t.Fatalf("commits = %d, want 1", got)
	}

	// User error: one abort, no commit, Err delivered.
	boom := errors.New("boom")
	if err := e.Run(SemanticsDef, func(tx *Txn) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("user error lost: %v", err)
	}
	if got := obs.aborts.Load(); got != 1 {
		t.Fatalf("aborts = %d, want 1", got)
	}
	obs.mu.Lock()
	if !errors.Is(obs.lastErr, boom) {
		t.Fatalf("observer abort Err = %v, want boom", obs.lastErr)
	}
	obs.mu.Unlock()

	// Conflict retries: two forced retryable aborts, then success — the
	// observer sees each aborted attempt AND the final commit.
	tries := 0
	err := e.Run(SemanticsDef, func(tx *Txn) error {
		tries++
		if tries <= 2 {
			return tx.abortConflict("forced", 0)
		}
		return tx.Write(x, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.aborts.Load(); got != 3 {
		t.Fatalf("aborts = %d, want 3 (1 user + 2 forced)", got)
	}
	if got := obs.commits.Load(); got != 2 {
		t.Fatalf("commits = %d, want 2", got)
	}

	// Retry wait: a waiter parks (OnWait), a writer wakes it.
	ready := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- e.RunOpts(context.Background(), SemanticsDef, RunOptions{Label: "waiter"}, func(tx *Txn) error {
			v, err := tx.Read(x)
			if err != nil {
				return err
			}
			if v.(int) != 99 {
				select {
				case <-ready:
				default:
					close(ready)
				}
				return ErrRetryWait
			}
			return nil
		})
	}()
	<-ready
	if err := e.Run(SemanticsDef, func(tx *Txn) error { return tx.Write(x, 99) }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if obs.waits.Load() == 0 {
		t.Fatal("observer saw no OnWait for a parked Retry")
	}
	// The writer's unlabelled commit event may land after the woken
	// waiter's, so read the label off the event only the waiter emits.
	obs.mu.Lock()
	label := obs.waitLabel
	obs.mu.Unlock()
	if label != "waiter" {
		t.Fatalf("label = %q, want %q (RunOptions.Label must travel on events)", label, "waiter")
	}
}

// TestObserverTerminalEventOnBoundExhaustion: a run that dies to its
// attempt bound ends with exactly one terminal OnAbort carrying the
// ErrTooManyAttempts AbortError (not the last retryable conflict), so
// outcome-counting observers balance.
func TestObserverTerminalEventOnBoundExhaustion(t *testing.T) {
	obs := &countingObserver{}
	e := NewEngine(Config{Observer: obs})
	err := e.RunOpts(context.Background(), SemanticsDef, RunOptions{MaxAttempts: 3}, func(tx *Txn) error {
		return tx.abortConflict("forced", 0)
	})
	if !errors.Is(err, ErrTooManyAttempts) {
		t.Fatalf("err = %v", err)
	}
	// Attempts 1 and 2 abort retryably; attempt 3 exhausts the bound and
	// its single OnAbort carries the terminal error.
	if got := obs.aborts.Load(); got != 3 {
		t.Fatalf("aborts = %d, want 3 (2 retryable + 1 terminal)", got)
	}
	obs.mu.Lock()
	last := obs.lastErr
	obs.mu.Unlock()
	if !errors.Is(last, ErrTooManyAttempts) || IsRetryable(last) {
		t.Fatalf("terminal event Err = %v, want non-retryable ErrTooManyAttempts", last)
	}
}

// TestObserverTerminalEventOnCancellation: a cancelled run also ends
// with a terminal OnAbort matching ErrCancelled.
func TestObserverTerminalEventOnCancellation(t *testing.T) {
	obs := &countingObserver{}
	e := NewEngine(Config{Observer: obs})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunOpts(ctx, SemanticsDef, RunOptions{}, func(tx *Txn) error { return nil }); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
	if got := obs.aborts.Load(); got != 1 {
		t.Fatalf("aborts = %d, want 1 terminal event", got)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if !errors.Is(obs.lastErr, ErrCancelled) {
		t.Fatalf("terminal event Err = %v, want ErrCancelled", obs.lastErr)
	}
}

// TestPerRunObserverOverridesEngine: a RunOptions observer replaces the
// engine-wide one for that run only.
func TestPerRunObserverOverridesEngine(t *testing.T) {
	engObs := &countingObserver{}
	runObs := &countingObserver{}
	e := NewEngine(Config{Observer: engObs})
	x := e.NewVar(0)
	err := e.RunOpts(context.Background(), SemanticsDef, RunOptions{Observer: runObs}, func(tx *Txn) error {
		return tx.Write(x, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if engObs.commits.Load() != 0 {
		t.Fatal("engine observer fired for a run with its own observer")
	}
	if runObs.commits.Load() != 1 {
		t.Fatal("per-run observer missed the commit")
	}
}
