package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"polytm/internal/raceflag"
	"polytm/internal/stm"
)

// TestAtomicCtxBackgroundAllocs pins the context-first entry's fast
// path: AtomicCtx(context.Background(), …) on a def read-only
// transaction must cost at most one allocation per op (steady state
// zero; the budget of one absorbs a sync.Pool miss after a GC) — the
// PR-3 allocation wins must survive the API redesign.
func TestAtomicCtxBackgroundAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates closure escapes; the alloc budget is asserted in non-race CI runs")
	}
	tm := NewDefault()
	vars := make([]*TVar[int], 8)
	for i := range vars {
		vars[i] = NewTVar(tm, i)
	}
	body := func(tx *Tx) error {
		for _, v := range vars {
			if _, err := Get(tx, v); err != nil {
				return err
			}
		}
		return nil
	}
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		if err := tm.AtomicCtx(ctx, body); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := tm.AtomicCtx(ctx, body); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("AtomicCtx(Background) def read-only: %.2f allocs/op, want <= 1", avg)
	}
}

// TestAtomicCtxDeadline: an Atomic stuck returning retryable conflicts
// is released by its deadline with the full typed error shape.
func TestAtomicCtxDeadline(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := tm.AtomicCtx(ctx, func(tx *Tx) error {
		if err := Set(tx, x, 1); err != nil {
			return err
		}
		return &stm.AbortError{Sentinel: stm.ErrConflict} // force retry forever
	})
	if time.Since(start) > 2*time.Second {
		t.Fatalf("deadline did not release the retry loop")
	}
	if !errors.Is(err, stm.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCancelled matching DeadlineExceeded", err)
	}
	if got := x.LoadDirect(); got != 0 {
		t.Fatalf("cancelled transaction's write visible: %d", got)
	}
}

// TestWithMaxAttempts bounds the retry loop per transaction and
// surfaces the count on the typed error.
func TestWithMaxAttempts(t *testing.T) {
	tm := NewDefault()
	tries := 0
	err := tm.Atomic(func(tx *Tx) error {
		tries++
		return &stm.AbortError{Sentinel: stm.ErrConflict}
	}, WithMaxAttempts(4))
	if !errors.Is(err, stm.ErrTooManyAttempts) {
		t.Fatalf("err = %v, want ErrTooManyAttempts", err)
	}
	if tries != 4 {
		t.Fatalf("body ran %d times, want 4", tries)
	}
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Attempts != 4 {
		t.Fatalf("AbortError detail: %+v, want Attempts=4", ae)
	}
}

// TestWithMaxAttemptsEscalationWins: when the TM escalates before the
// per-transaction bound, the transaction commits irrevocably instead of
// failing.
func TestWithMaxAttemptsEscalationWins(t *testing.T) {
	tm := New(Config{EscalateAfter: 2})
	x := NewTVar(tm, 0)
	tries := 0
	err := tm.Atomic(func(tx *Tx) error {
		tries++
		if tx.Semantics() != Irrevocable {
			return &stm.AbortError{Sentinel: stm.ErrConflict}
		}
		return Set(tx, x, tries)
	}, WithMaxAttempts(10))
	if err != nil {
		t.Fatalf("escalated transaction failed: %v", err)
	}
	if x.LoadDirect() == 0 {
		t.Fatal("escalated transaction's write lost")
	}
}

// TestNestedAtomicCtxCancelled: a cancelled context entering a nested
// scope aborts the WHOLE transaction; no partial writes survive.
func TestNestedAtomicCtxCancelled(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, 0)
	y := NewTVar(tm, 0)
	ctx, cancel := context.WithCancel(context.Background())
	outer := tm.Atomic(func(tx *Tx) error {
		if err := Set(tx, x, 1); err != nil {
			return err
		}
		cancel()
		return tx.AtomicCtx(ctx, func(tx *Tx) error {
			return Set(tx, y, 1)
		})
	})
	if !errors.Is(outer, stm.ErrCancelled) {
		t.Fatalf("outer err = %v, want ErrCancelled", outer)
	}
	if x.LoadDirect() != 0 || y.LoadDirect() != 0 {
		t.Fatalf("cancelled nested scope leaked writes: x=%d y=%d", x.LoadDirect(), y.LoadDirect())
	}
}

// TestWithLabelAndObserverOptions: the per-transaction observer fires
// with the label, overriding the TM-wide observer.
func TestWithLabelAndObserverOptions(t *testing.T) {
	tmObs := &eventSink{}
	tm := New(Config{Observer: tmObs})
	x := NewTVar(tm, 0)
	txObs := &eventSink{}
	err := tm.Atomic(func(tx *Tx) error {
		return Set(tx, x, 1)
	}, WithLabel("tagged"), WithObserver(txObs))
	if err != nil {
		t.Fatal(err)
	}
	if len(txObs.commits) != 1 || txObs.commits[0].Label != "tagged" {
		t.Fatalf("per-txn observer events: %+v, want one commit labelled 'tagged'", txObs.commits)
	}
	if len(tmObs.commits) != 0 {
		t.Fatal("TM-wide observer fired despite per-txn override")
	}
	// Without the override the TM-wide observer sees the commit.
	if err := tm.Atomic(func(tx *Tx) error { return Set(tx, x, 2) }); err != nil {
		t.Fatal(err)
	}
	if len(tmObs.commits) != 1 {
		t.Fatalf("TM-wide observer commits = %d, want 1", len(tmObs.commits))
	}
}

// eventSink records events (single-goroutine tests only).
type eventSink struct {
	commits, aborts, waits []TxnEvent
}

func (s *eventSink) OnCommit(ev TxnEvent) { s.commits = append(s.commits, ev) }
func (s *eventSink) OnAbort(ev TxnEvent)  { s.aborts = append(s.aborts, ev) }
func (s *eventSink) OnWait(ev TxnEvent)   { s.waits = append(s.waits, ev) }

// TestAtomicAsCtxCancellation covers the hot-path entry used by the
// server: per-operation semantics under a request context.
func TestAtomicAsCtxCancellation(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, 5)
	// Live context: behaves exactly like AtomicAs.
	var got int
	if err := tm.AtomicAsCtx(context.Background(), Snapshot, func(tx *Tx) error {
		v, err := Get(tx, x)
		got = v
		return err
	}); err != nil || got != 5 {
		t.Fatalf("live ctx: got %d err %v", got, err)
	}
	// Dead context: typed cancellation, body never runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := tm.AtomicAsCtx(ctx, Def, func(tx *Tx) error { ran = true; return nil })
	if !errors.Is(err, stm.ErrCancelled) || ran {
		t.Fatalf("dead ctx: err=%v ran=%v", err, ran)
	}
}
