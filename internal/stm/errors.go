package stm

import (
	"errors"
	"fmt"
	"strings"
)

// Abort reasons. ErrConflict is the internal retryable sentinel: the
// run loop in Engine.RunOpts (and core.Atomic on top of it) re-executes the
// transaction body when the commit or a read aborts with it. User errors
// returned from the body are never retried; they abort the transaction
// and propagate unchanged.
//
// Every error the engine itself produces is a *AbortError wrapping one
// of these sentinels, so callers branch with errors.Is/errors.As and
// never lose the structured detail (semantics, attempt count, rival
// involvement). The bare sentinels remain the stable identities:
// errors.Is(err, ErrTooManyAttempts) et al. keep working for every
// error the engine has ever returned.
var (
	// ErrConflict is the sentinel wrapped by transactional operations
	// when the transaction must abort due to a conflict and be retried.
	ErrConflict = errors.New("stm: transaction aborted by conflict")

	// ErrKilled is the sentinel wrapped when a contention manager of a
	// competing transaction requested this transaction's abort.
	ErrKilled = errors.New("stm: transaction killed by contention manager")

	// ErrSnapshotWrite is the sentinel wrapped by Txn.Write when the
	// transaction runs under SemanticsSnapshot, which is read-only.
	ErrSnapshotWrite = errors.New("stm: write attempted in snapshot (read-only) transaction")

	// ErrTxnDone is the sentinel wrapped when a finished (committed or
	// aborted) transaction handle is used again.
	ErrTxnDone = errors.New("stm: use of finished transaction")

	// ErrCrossEngine is the sentinel wrapped when a transaction touches a
	// variable owned by a different engine, or one never initialised. A
	// read returns it, after waiting out any commit window the variable
	// is locked for. A write returns it too, except an optimistic write
	// that meets another transaction's lock: that write is buffered, and
	// Commit returns it once the lock shows whose the variable is.
	ErrCrossEngine = errors.New("stm: variable belongs to a different engine")

	// ErrTooManyAttempts is the sentinel wrapped by Engine.RunOpts when a
	// transaction exceeded the configured maximum number of attempts.
	ErrTooManyAttempts = errors.New("stm: transaction exceeded maximum attempts")

	// ErrCancelled is the sentinel wrapped by Engine.RunOpts when the
	// caller's context is cancelled or its deadline expires: the
	// transaction's writes were discarded and it will not be retried.
	// The AbortError additionally carries the context's own error as
	// Cause, so errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) also report true.
	ErrCancelled = errors.New("stm: transaction cancelled by context")
)

// IsRetryable reports whether err is one of the engine-generated abort
// reasons that should trigger transparent re-execution.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrConflict) || errors.Is(err, ErrKilled)
}

// AbortError is the engine's structured abort outcome: every error the
// engine generates wraps one of the package sentinels together with the
// context a caller needs to act on it — which semantics the transaction
// ran under, how many attempts it consumed, whether a rival's contention
// manager killed it, and (for conflict aborts) the site and variable
// involved.
//
// AbortError matches via errors.Is both its Sentinel and, when set, its
// Cause — so a cancellation abort satisfies errors.Is against
// stm.ErrCancelled AND context.Canceled / context.DeadlineExceeded.
type AbortError struct {
	// Sentinel is the legacy identity of this abort: ErrConflict,
	// ErrKilled, ErrTooManyAttempts, ErrCancelled, ErrSnapshotWrite,
	// ErrTxnDone or ErrCrossEngine.
	Sentinel error
	// Cause is the underlying trigger when one exists — for
	// ErrCancelled it is the context's Err() (context.Canceled or
	// context.DeadlineExceeded). Nil when the sentinel says it all.
	Cause error
	// Semantics is the transaction's root parameter p of start(p).
	Semantics Semantics
	// Attempts is the number of attempts consumed when the abort was
	// produced (0 when the run was cancelled before its first attempt).
	Attempts int
	// ByRival reports that the abort was forced by a rival transaction's
	// contention manager (directly for ErrKilled, or as the final straw
	// for ErrTooManyAttempts whose last attempt died to a kill).
	ByRival bool
	// Reason is the human-readable abort site, e.g. "read validation".
	Reason string
	// VarID is the identity (Var.ID, its address) of the variable
	// involved in a conflict abort, 0 if not applicable.
	VarID uint64
}

// Error implements error.
func (e *AbortError) Error() string {
	var b strings.Builder
	b.WriteString("stm: abort")
	if e.Reason != "" {
		b.WriteString(" (")
		b.WriteString(e.Reason)
		b.WriteString(")")
	}
	fmt.Fprintf(&b, ": sem=%v attempts=%d", e.Semantics, e.Attempts)
	if e.ByRival {
		b.WriteString(" by-rival")
	}
	if e.Sentinel != nil {
		b.WriteString(": ")
		b.WriteString(e.Sentinel.Error())
	}
	if e.Cause != nil {
		b.WriteString(": ")
		b.WriteString(e.Cause.Error())
	}
	return b.String()
}

// Unwrap exposes both the sentinel and (when set) the cause to
// errors.Is/errors.As.
func (e *AbortError) Unwrap() []error {
	if e.Cause == nil {
		return []error{e.Sentinel}
	}
	return []error{e.Sentinel, e.Cause}
}

// abortConflict builds the retryable conflict abort for the current
// attempt of tx.
func (tx *Txn) abortConflict(reason string, varID uint64) error {
	return &AbortError{
		Sentinel:  ErrConflict,
		Semantics: tx.sem,
		Attempts:  tx.attempt,
		Reason:    reason,
		VarID:     varID,
	}
}

// abortKilled builds the retryable kill abort: a rival's contention
// manager requested this transaction's death.
func (tx *Txn) abortKilled() error {
	return &AbortError{
		Sentinel:  ErrKilled,
		Semantics: tx.sem,
		Attempts:  tx.attempt,
		ByRival:   true,
		Reason:    "killed by rival",
	}
}

// abortCancelled builds the terminal cancellation abort. The
// transaction (if still active) has already been cleaned up by the
// caller.
func (tx *Txn) abortCancelled(cause error) error {
	return &AbortError{
		Sentinel:  ErrCancelled,
		Cause:     cause,
		Semantics: tx.sem,
		Attempts:  tx.attempt,
		Reason:    "context cancelled",
	}
}

// opError builds a non-retryable misuse abort (snapshot write, cross-
// engine access, finished-handle use) carrying the sentinel identity.
func (tx *Txn) opError(sentinel error, reason string) error {
	return &AbortError{
		Sentinel:  sentinel,
		Semantics: tx.sem,
		Attempts:  tx.attempt,
		Reason:    reason,
	}
}
