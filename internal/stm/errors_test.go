package stm

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestAbortErrorSentinelMatrix is the errors.Is/errors.As matrix: an
// AbortError wrapping each of the six legacy sentinels must match
// exactly that sentinel (and, via Cause, a context error when one is
// attached) — so every caller that branched on the bare sentinels
// before this API existed keeps working, and no abort accidentally
// matches a sentinel it does not wrap.
func TestAbortErrorSentinelMatrix(t *testing.T) {
	sentinels := []error{
		ErrConflict,
		ErrKilled,
		ErrSnapshotWrite,
		ErrTxnDone,
		ErrCrossEngine,
		ErrTooManyAttempts,
	}
	for _, s := range sentinels {
		err := error(&AbortError{Sentinel: s, Semantics: SemanticsWeak, Attempts: 3})
		for _, other := range sentinels {
			if (other == s) != errors.Is(err, other) {
				t.Errorf("AbortError{%v}: errors.Is(err, %v) = %v, want %v",
					s, other, errors.Is(err, other), other == s)
			}
		}
		var ae *AbortError
		if !errors.As(err, &ae) {
			t.Fatalf("AbortError{%v}: errors.As failed", s)
		}
		if ae.Semantics != SemanticsWeak || ae.Attempts != 3 {
			t.Errorf("AbortError{%v}: detail lost: %+v", s, ae)
		}
	}
}

// TestAbortErrorCancellationMatchesBoth: a cancellation abort matches
// ErrCancelled AND the context's own error, and only the one context
// error it actually carries.
func TestAbortErrorCancellationMatchesBoth(t *testing.T) {
	err := error(&AbortError{Sentinel: ErrCancelled, Cause: context.DeadlineExceeded})
	if !errors.Is(err, ErrCancelled) {
		t.Fatal("must match ErrCancelled")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("must match context.DeadlineExceeded")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatal("must not match context.Canceled (cause was DeadlineExceeded)")
	}
	if errors.Is(err, ErrTooManyAttempts) || errors.Is(err, ErrConflict) {
		t.Fatal("cancellation must not match unrelated sentinels")
	}
}

// TestEngineErrorsAreTyped drives each misuse path through the real
// engine and asserts the returned error is an AbortError that still
// matches the legacy sentinel.
func TestEngineErrorsAreTyped(t *testing.T) {
	e := NewDefaultEngine()
	e2 := NewDefaultEngine()
	x := e.NewVar(0)
	foreign := e2.NewVar(0)

	// Snapshot write.
	err := e.Run(SemanticsSnapshot, func(tx *Txn) error { return tx.Write(x, 1) })
	var ae *AbortError
	if !errors.Is(err, ErrSnapshotWrite) || !errors.As(err, &ae) {
		t.Fatalf("snapshot write: %v, want typed ErrSnapshotWrite", err)
	}
	if ae.Semantics != SemanticsSnapshot {
		t.Fatalf("snapshot write AbortError.Semantics = %v", ae.Semantics)
	}

	// Cross-engine access.
	err = e.Run(SemanticsDef, func(tx *Txn) error { _, err := tx.Read(foreign); return err })
	if !errors.Is(err, ErrCrossEngine) || !errors.As(err, &ae) {
		t.Fatalf("cross-engine read: %v, want typed ErrCrossEngine", err)
	}

	// Finished-handle use.
	tx := e.Begin(SemanticsDef)
	tx.Abort()
	if _, err := tx.Read(x); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("finished-handle read: %v, want typed ErrTxnDone", err)
	}

	// Attempt bound exhausted: the error carries the attempt count.
	err = e.RunOpts(context.Background(), SemanticsDef, RunOptions{MaxAttempts: 3}, func(tx *Txn) error {
		return tx.abortConflict("forced", 0)
	})
	if !errors.Is(err, ErrTooManyAttempts) || !errors.As(err, &ae) {
		t.Fatalf("bound exhausted: %v, want typed ErrTooManyAttempts", err)
	}
	if ae.Attempts != 3 || ae.Semantics != SemanticsDef {
		t.Fatalf("bound exhausted detail: %+v, want Attempts=3 sem=def", ae)
	}
	if !strings.Contains(err.Error(), "attempts=3") {
		t.Fatalf("Error() = %q, want attempt count rendered", err.Error())
	}
}
