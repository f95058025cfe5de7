package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"polytm/internal/stm"
)

// TestRetryBlocksUntilChange: a consumer returning Retry on an empty
// slot wakes up when a producer fills it.
func TestRetryBlocksUntilChange(t *testing.T) {
	tm := NewDefault()
	slot := NewTVar(tm, 0)
	got := make(chan int, 1)
	go func() {
		var v int
		err := tm.Atomic(func(tx *Tx) error {
			cur, err := Get(tx, slot)
			if err != nil {
				return err
			}
			if cur == 0 {
				return Retry
			}
			v = cur
			return Set(tx, slot, 0)
		})
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	// The consumer must be blocked, not failed.
	select {
	case v := <-got:
		t.Fatalf("consumer returned %d before any produce", v)
	case <-time.After(20 * time.Millisecond):
	}
	if err := tm.Atomic(func(tx *Tx) error { return Set(tx, slot, 42) }); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("consumed %d, want 42", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer never woke up")
	}
}

// TestRetryProducerConsumerThroughput: a bounded cell passed between a
// producer and a consumer purely via Retry — both directions block.
func TestRetryProducerConsumer(t *testing.T) {
	tm := NewDefault()
	cell := NewTVar(tm, 0) // 0 = empty
	const items = 500
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer: waits for empty
		defer wg.Done()
		for i := 1; i <= items; i++ {
			err := tm.Atomic(func(tx *Tx) error {
				cur, err := Get(tx, cell)
				if err != nil {
					return err
				}
				if cur != 0 {
					return Retry
				}
				return Set(tx, cell, i)
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	sum := 0
	go func() { // consumer: waits for full
		defer wg.Done()
		for i := 1; i <= items; i++ {
			err := tm.Atomic(func(tx *Tx) error {
				cur, err := Get(tx, cell)
				if err != nil {
					return err
				}
				if cur == 0 {
					return Retry
				}
				sum += cur
				return Set(tx, cell, 0)
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if want := items * (items + 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

// TestEscalateAfterGuaranteesProgress: with EscalateAfter configured, a
// transaction that would conflict forever eventually commits
// irrevocably.
func TestEscalateAfterGuaranteesProgress(t *testing.T) {
	tm := New(Config{EscalateAfter: 3})
	x := NewTVar(tm, 0)
	attempts := 0
	sawIrrevocable := false
	err := tm.Atomic(func(tx *Tx) error {
		attempts++
		if tx.Semantics() == Irrevocable {
			sawIrrevocable = true
			return Set(tx, x, attempts)
		}
		// Sabotage every optimistic attempt with an external commit.
		if _, err := Get(tx, x); err != nil {
			return err
		}
		if err := tm.Atomic(func(tx *Tx) error { return Set(tx, x, -attempts) }); err != nil {
			return err
		}
		return Set(tx, x, attempts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawIrrevocable {
		t.Fatal("transaction never escalated")
	}
	if attempts != 4 {
		t.Fatalf("attempts = %d, want 4 (3 optimistic + 1 irrevocable)", attempts)
	}
	if got := x.LoadDirect(); got != 4 {
		t.Fatalf("x = %d, want 4", got)
	}
}

// TestEscalateAfterUnsetPreservesMaxAttempts: without escalation the
// per-run bound surfaces as the run's error.
func TestEscalateAfterUnsetPreservesMaxAttempts(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, 0)
	err := tm.Atomic(func(tx *Tx) error {
		if _, err := Get(tx, x); err != nil {
			return err
		}
		if err := tm.Atomic(func(tx *Tx) error { return Set(tx, x, 1) }); err != nil {
			return err
		}
		return Set(tx, x, 2)
	}, WithMaxAttempts(2))
	if !errors.Is(err, stm.ErrTooManyAttempts) {
		t.Fatalf("err = %v, want ErrTooManyAttempts", err)
	}
}

// TestRetryRespectsMaxAttempts: Retry waits also count against the
// run's attempt bound rather than blocking forever on a dead workload.
func TestRetryRespectsMaxAttempts(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, 0)
	sabotage := make(chan struct{}, 4)
	go func() {
		for range sabotage {
			_ = tm.Atomic(func(tx *Tx) error { return Set(tx, x, 1) })
			_ = tm.Atomic(func(tx *Tx) error { return Set(tx, x, 0) })
		}
	}()
	err := tm.Atomic(func(tx *Tx) error {
		v, err := Get(tx, x)
		if err != nil {
			return err
		}
		if v == 0 {
			sabotage <- struct{}{}
			return Retry
		}
		return nil
	}, WithMaxAttempts(2))
	close(sabotage)
	// Either it observed a 1 (committed) or it hit the bound; both are
	// legal, but it must terminate.
	if err != nil && !errors.Is(err, stm.ErrTooManyAttempts) {
		t.Fatalf("unexpected error: %v", err)
	}
}
