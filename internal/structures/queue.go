package structures

import (
	"context"

	"polytm/internal/core"
)

// TQueue is a transactional FIFO queue with a sentinel head node (the
// two-pointer layout of Michael & Scott, transactionalized). Operations
// run under Def semantics — they are two-to-three access transactions
// for which elasticity buys nothing — but being transactions they
// compose: a dequeue-then-enqueue transfer between queues is one atomic
// step when run inside an enclosing tm.Atomic. It keeps no size
// variable, so an enqueue and a dequeue of a queue holding two or more
// elements touch disjoint variables and commit side by side — the
// concurrency the two-pointer layout exists for.
type TQueue[T any] struct {
	tm   *core.TM
	head *core.TVar[*qnode[T]] // sentinel; head.next is the front
	tail *core.TVar[*qnode[T]]
}

type qnode[T any] struct {
	val  T
	next *core.TVar[*qnode[T]]
}

// NewTQueue creates an empty transactional queue.
func NewTQueue[T any](tm *core.TM) *TQueue[T] {
	sentinel := &qnode[T]{next: core.NewTVar[*qnode[T]](tm, nil)}
	return &TQueue[T]{
		tm:   tm,
		head: core.NewTVar(tm, sentinel),
		tail: core.NewTVar(tm, sentinel),
	}
}

// Enqueue appends v.
func (q *TQueue[T]) Enqueue(v T) {
	must(q.EnqueueCtx(context.Background(), v))
}

// EnqueueCtx is Enqueue bounded by ctx; a cancelled enqueue's writes
// are discarded, never partially applied.
func (q *TQueue[T]) EnqueueCtx(ctx context.Context, v T) error {
	return q.tm.AtomicCtx(ctx, func(tx *core.Tx) error { return q.EnqueueTx(tx, v) })
}

// EnqueueTx appends v inside an enclosing transaction.
func (q *TQueue[T]) EnqueueTx(tx *core.Tx, v T) error {
	n := &qnode[T]{val: v, next: core.NewTVar[*qnode[T]](q.tm, nil)}
	t, err := core.Get(tx, q.tail)
	if err != nil {
		return err
	}
	if err := core.Set(tx, t.next, n); err != nil {
		return err
	}
	return core.Set(tx, q.tail, n)
}

// Dequeue removes and returns the front element, or ok=false if empty.
func (q *TQueue[T]) Dequeue() (v T, ok bool) {
	v, ok, err := q.DequeueCtx(context.Background())
	must(err)
	return v, ok
}

// DequeueCtx is Dequeue bounded by ctx.
func (q *TQueue[T]) DequeueCtx(ctx context.Context) (v T, ok bool, err error) {
	err = q.tm.AtomicCtx(ctx, func(tx *core.Tx) error {
		var err error
		v, ok, err = q.DequeueTx(tx)
		return err
	})
	return v, ok, err
}

// DequeueTx removes the front element inside an enclosing transaction.
func (q *TQueue[T]) DequeueTx(tx *core.Tx) (v T, ok bool, err error) {
	s, err := core.Get(tx, q.head)
	if err != nil {
		return v, false, err
	}
	first, err := core.Get(tx, s.next)
	if err != nil {
		return v, false, err
	}
	if first == nil {
		return v, false, nil
	}
	if err := core.Set(tx, q.head, first); err != nil {
		return v, false, err
	}
	// If we dequeued the last element, the tail must fall back to the
	// new sentinel (first, whose value we are about to take).
	rest, err := core.Get(tx, first.next)
	if err != nil {
		return v, false, err
	}
	if rest == nil {
		if err := core.Set(tx, q.tail, first); err != nil {
			return v, false, err
		}
	}
	return first.val, true, nil
}

// DequeueBlockingCtx removes and returns the front element, blocking
// while the queue is empty: it sleeps in the Retry combinator's wait
// (not spinning) and wakes either when an element arrives or when ctx
// is cancelled, returning an error matching stm.ErrCancelled (and the
// context's own error) in the latter case.
func (q *TQueue[T]) DequeueBlockingCtx(ctx context.Context) (T, error) {
	var v T
	err := q.tm.AtomicCtx(ctx, func(tx *core.Tx) error {
		got, ok, err := q.DequeueTx(tx)
		if err != nil {
			return err
		}
		if !ok {
			return core.Retry
		}
		v = got
		return nil
	})
	return v, err
}

// LenTx counts the elements inside an enclosing transaction by walking
// them from the front, so it sees the transaction's own pending
// enqueues and dequeues — and, under def, conflicts with any other
// transaction that changes the queue before this one commits.
func (q *TQueue[T]) LenTx(tx *core.Tx) (k int, err error) {
	n, err := core.Get(tx, q.head) // the sentinel
	for err == nil {
		if n, err = core.Get(tx, n.next); n == nil {
			break
		}
		k++
	}
	return k, err
}
