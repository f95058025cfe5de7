package stm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestCMNames(t *testing.T) {
	cases := []struct {
		f    CMFactory
		want string
	}{
		{NewSuicide(), "suicide"},
		{NewPolite(0), "polite"},
		{NewBackoff(0, 0), "backoff"},
		{NewKarma(), "karma"},
		{NewTimestamp(), "timestamp"},
		{NewAggressive(), "aggressive"},
	}
	for _, c := range cases {
		if got := c.f().Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestSuicideAbortsOnBusyLock(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)

	// Hold x's lock word as a committer in its publish window would.
	holder := e.Begin(SemanticsDef)
	defer holder.Abort()
	prev, ok := x.tryLock(holder.id)
	if !ok {
		t.Fatal("could not take x's lock word")
	}
	defer x.unlockTo(prev)

	// A suicide-managed writer must abort its attempt at once (a
	// retryable lock abort), so a one-attempt run ends at its bound.
	err := e.RunOpts(context.Background(), SemanticsDef, RunOptions{CM: NewSuicide(), MaxAttempts: 1}, func(tx *Txn) error {
		return tx.Write(x, 1)
	})
	if !errors.Is(err, ErrTooManyAttempts) {
		t.Fatalf("commit against held lock: %v, want the attempt bound", err)
	}
	if e.Stats().LockAborts != 1 {
		t.Fatalf("lock aborts = %d, want 1", e.Stats().LockAborts)
	}
}

func TestPoliteWaitsOutShortLock(t *testing.T) {
	e := NewDefaultEngine()
	opts := RunOptions{CM: NewPolite(20)}
	x := e.NewVar(0)
	var wg sync.WaitGroup
	// Two increment storms; polite spinning should let both complete.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if err := e.RunOpts(context.Background(), SemanticsDef, opts, func(tx *Txn) error {
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
	wg.Wait()
	if got := x.LoadDirect().(int); got != 600 {
		t.Fatalf("x = %d, want 600", got)
	}
}

func TestKarmaKillsLowerPriority(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)

	// Victim: a def transaction with low karma holding nothing yet; we
	// simulate a held lock by an optimistic transaction stuck between
	// lock acquisition and publish using a second engine-level txn that
	// has locked x. Directly exercise the decision table instead.
	victim := e.Begin(SemanticsDef)
	if _, err := victim.Read(x); err != nil { // karma 1
		t.Fatal(err)
	}
	attacker := e.Begin(SemanticsDef)
	for i := 0; i < 10; i++ { // karma 10
		if _, err := attacker.Read(x); err != nil {
			t.Fatal(err)
		}
	}
	// A contention manager only ever meets registered lock owners (the
	// caller registers before it fights for its first lock), and that is
	// where karma is published for rivals.
	victim.registerLive()
	attacker.registerLive()
	cm := NewKarma()()
	if res := cm.OnLockBusy(attacker, victim, 0); res != ResolutionKillEnemy {
		t.Fatalf("high-karma attacker got %v, want KillEnemy", res)
	}
	if res := cm.OnLockBusy(victim, attacker, 0); res != ResolutionAbortSelf {
		t.Fatalf("low-karma attacker got %v, want AbortSelf", res)
	}
	if res := cm.OnLockBusy(attacker, nil, 0); res != ResolutionRetryLock {
		t.Fatalf("vanished enemy got %v, want RetryLock", res)
	}
	victim.Abort()
	attacker.Abort()
}

func TestTimestampOlderWins(t *testing.T) {
	e := NewDefaultEngine()
	older := e.Begin(SemanticsDef)
	younger := e.Begin(SemanticsDef)
	cm := NewTimestamp()()
	if res := cm.OnLockBusy(older, younger, 0); res != ResolutionKillEnemy {
		t.Fatalf("older vs younger: %v, want KillEnemy", res)
	}
	if res := cm.OnLockBusy(younger, older, 0); res != ResolutionAbortSelf {
		t.Fatalf("younger vs older: %v, want AbortSelf", res)
	}
	older.Abort()
	younger.Abort()
}

func TestKilledTransactionObservesKill(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	tx := e.Begin(SemanticsDef)
	if _, err := tx.Read(x); err != nil {
		t.Fatal(err)
	}
	tx.kill(tx.id)
	_, err := tx.Read(x)
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("read after kill: %v, want ErrKilled", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) || !ae.ByRival {
		t.Fatalf("kill abort %v must be a by-rival AbortError", err)
	}
	if tx.status.Load() != statusAborted {
		t.Fatal("killed transaction must be aborted")
	}
}

func TestAggressiveVsAggressiveProgress(t *testing.T) {
	// Two aggressive increment storms must still terminate: the killed
	// party observes ErrKilled, aborts, retries.
	e := NewDefaultEngine()
	opts := RunOptions{CM: NewAggressive()}
	x := e.NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := e.RunOpts(context.Background(), SemanticsDef, opts, func(tx *Txn) error {
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
	wg.Wait()
	if got := x.LoadDirect().(int); got != 800 {
		t.Fatalf("x = %d, want 800", got)
	}
}

func TestBackoffSleepsBetweenAttempts(t *testing.T) {
	e := NewDefaultEngine()
	opts := RunOptions{CM: NewBackoff(50*time.Microsecond, time.Millisecond)}
	x := e.NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := e.RunOpts(context.Background(), SemanticsDef, opts, func(tx *Txn) error {
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
	wg.Wait()
	if got := x.LoadDirect().(int); got != 400 {
		t.Fatalf("x = %d, want 400", got)
	}
}
