package stm

import (
	"context"
	"errors"
	"runtime"
	"time"
)

// ErrRetryWait is returned by a transaction body to request blocking
// retry (the composable STM "retry" combinator): the transaction aborts
// and re-executes only after at least one variable it read has been
// overwritten by a commit — so a consumer waiting on an empty queue
// sleeps instead of spinning through conflict aborts.
var ErrRetryWait = errors.New("stm: retry when read set changes")

// awaitChange blocks until some entry of the recorded read set is no
// longer current (a writer committed to it) — the wake-up condition of
// ErrRetryWait — or done is closed, in which case it reports false. The
// wait is a backoff poll: versions are compared by head identity, which
// a commit always replaces, and the poll interval caps at one
// millisecond, bounding both wake-up and cancellation latency.
//
// An empty read set has nothing to watch. That is always the case for
// an irrevocable body, whose reads are untracked, and re-running it at
// once would spin hot — taking the token and raising the gate over the
// very writer it waits for. So the wait is then one step of idle, the
// run's own backoff, which keeps growing across the run's retries: the
// body re-runs after 1 µs, 2 µs, ... and from then on every
// millisecond.
func awaitChange(entries []readEntry, idle *pollBackoff, done <-chan struct{}) bool {
	if len(entries) == 0 {
		return idle.pause(done)
	}
	b := pollBackoff{d: time.Microsecond}
	for {
		for i := range entries {
			if entries[i].v.head.Load() != entries[i].ver {
				return true
			}
		}
		if !b.pause(done) {
			return false
		}
	}
}

// pollBackoff is a retry wait's poll interval: 1 µs doubling to a 1 ms
// cap, the steps below the cap yielding the processor rather than
// sleeping. A nil done channel (the context.Background fast path) keeps
// the allocation-free plain sleep; otherwise the timer is built on the
// first capped step. It needs no Stop: since Go 1.23 an unreferenced
// timer is collected whether or not it has fired.
type pollBackoff struct {
	d     time.Duration
	timer *time.Timer
}

// pause waits one step and reports false if done closed first.
func (b *pollBackoff) pause(done <-chan struct{}) bool {
	if done != nil {
		select {
		case <-done:
			return false
		default:
		}
	}
	if b.d < time.Millisecond {
		runtime.Gosched()
		b.d *= 2
		return true
	}
	if done == nil {
		time.Sleep(b.d)
		return true
	}
	if b.timer == nil {
		b.timer = time.NewTimer(b.d)
	} else {
		b.timer.Reset(b.d)
	}
	select {
	case <-done:
		return false
	case <-b.timer.C:
		return true
	}
}

// RunOptions bundles the optional per-run parameters of RunOpts. The
// zero value selects the defaults everywhere.
type RunOptions struct {
	// CM supplies the contention manager (nil = NewPolite(8)).
	CM CMFactory
	// MaxAttempts bounds re-executions (0 = unbounded).
	MaxAttempts int
	// Observer receives this run's lifecycle events (nil = the engine's
	// configured Observer, which may itself be nil).
	Observer Observer
	// Label tags the run's events for observers ("" = untagged).
	Label string
}

// RunOpts executes fn transactionally under semantics sem, retrying on
// conflicts until commit, a non-retryable error from fn, or the attempt
// bound. It returns fn's error (aborting the transaction) or nil after
// a successful commit. A body that returns ErrRetryWait aborts and
// re-executes once a variable it read has changed.
//
// The context bounds the whole run: cancellation aborts the transaction
// between attempts, interrupts contention-manager backoff sleeps, wakes
// a transaction parked in Retry's wait loop, and breaks the lock-wait
// spins — in every case the transaction's buffered writes are discarded
// and the returned error is a *AbortError matching both ErrCancelled
// and the context's own error. A context.Background() run allocates
// nothing extra. One deliberate exception: an irrevocable transaction
// that has begun is guaranteed to commit and therefore ignores
// cancellation until it has (cancellation is still honoured before its
// only attempt starts).
//
// RunOpts drives a pooled Txn: fn must not retain the *Txn, or anything
// aliasing its read/write sets, beyond its return — the shell is
// recycled for an arbitrary later run when this call finishes.
func (e *Engine) RunOpts(ctx context.Context, sem Semantics, opts RunOptions, fn func(*Txn) error) error {
	if opts.CM == nil {
		opts.CM = defaultCM
	}
	if opts.Observer == nil {
		opts.Observer = e.cfg.Observer
	}
	return e.run(ctx, sem, opts, fn)
}

// run is the engine's one retry loop, called with resolved options. It
// drives a pooled Txn through the whole lifecycle — acquire, attempts,
// recycle — so steady-state transactions allocate nothing. Every run
// ends with exactly one OnCommit or one terminal OnAbort; each retried
// conflict reports one OnAbort before it and each Retry wait one OnWait.
func (e *Engine) run(ctx context.Context, sem Semantics, o RunOptions, fn func(*Txn) error) error {
	done := ctx.Done()
	tx := e.acquireTxn(sem, o.CM)
	tx.ctx = ctx
	defer e.releaseTxn(tx)
	idle := pollBackoff{d: time.Microsecond}
	for attempt := 1; ; attempt++ {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return o.aborted(sem, attempt-1, &AbortError{
					Sentinel: ErrCancelled, Cause: err, Semantics: sem,
					Attempts: attempt - 1, Reason: "context cancelled",
				})
			}
		}
		tx.begin()
		err := fn(tx)
		var waitSet []readEntry
		wait := false
		if err == nil {
			if err = tx.Commit(); err == nil {
				if o.Observer != nil {
					o.Observer.OnCommit(TxnEvent{Semantics: sem, Attempts: attempt, Label: o.Label})
				}
				return nil
			}
		} else {
			if wait = errors.Is(err, ErrRetryWait); wait {
				// Capture the read set before aborting, then sleep on
				// it. The copy is load-bearing under pooling: the Txn
				// (and its rset storage) may be recycled the moment this
				// run ends, and must never escape into a wait list by
				// alias.
				waitSet = make([]readEntry, len(tx.rset))
				copy(waitSet, tx.rset)
			}
			tx.Abort()
		}
		if !wait && !IsRetryable(err) {
			return o.aborted(sem, attempt, err)
		}
		// Bound check BEFORE the wait or the contention manager's
		// backoff: a run whose failure is already decided must not
		// sleep once more, and its one OnAbort carries the terminal
		// error (not the retryable conflict) so observers see how the
		// run ended.
		if o.MaxAttempts > 0 && attempt >= o.MaxAttempts {
			return o.aborted(sem, attempt, &AbortError{
				Sentinel: ErrTooManyAttempts, Semantics: sem, Attempts: attempt,
				ByRival: errors.Is(err, ErrKilled), Reason: "attempt bound exhausted",
			})
		}
		if !wait {
			o.aborted(sem, attempt, err)
		} else if o.Observer != nil {
			o.Observer.OnWait(TxnEvent{Semantics: sem, Attempts: attempt, Label: o.Label})
		}
		if wait && !awaitChange(waitSet, &idle, done) {
			return o.aborted(sem, attempt, &AbortError{
				Sentinel: ErrCancelled, Cause: ctx.Err(), Semantics: sem,
				Attempts: attempt, Reason: "context cancelled in retry wait",
			})
		}
		tx.cm.OnAbort(tx)
	}
}

// aborted reports an attempt's abort with err to the run's observer
// and returns err.
func (o *RunOptions) aborted(sem Semantics, attempts int, err error) error {
	if o.Observer != nil {
		o.Observer.OnAbort(TxnEvent{Semantics: sem, Attempts: attempts, Label: o.Label, Err: err})
	}
	return err
}
