package structures

import (
	"context"

	"polytm/internal/core"
)

// TDeque is a transactional double-ended queue: a doubly-linked list
// between two sentinels, every link a TVar. Operations are short Def
// transactions; both ends can be worked concurrently — with no size
// variable, a push at the front and one at the back of a non-empty
// deque share no variable — and, being transactions, operations on both
// ends compose atomically (e.g. a rotate, or a steal that observes
// emptiness and both ends at one point), which is where the
// transactional version earns its keep over a two-lock deque.
type TDeque[T any] struct {
	tm   *core.TM
	head *dnode[T] // sentinel; head.next is the front element
	tail *dnode[T] // sentinel; tail.prev is the back element
}

type dnode[T any] struct {
	val  T
	prev *core.TVar[*dnode[T]]
	next *core.TVar[*dnode[T]]
}

// NewTDeque creates an empty transactional deque.
func NewTDeque[T any](tm *core.TM) *TDeque[T] {
	h := &dnode[T]{}
	t := &dnode[T]{}
	h.prev = core.NewTVar[*dnode[T]](tm, nil)
	h.next = core.NewTVar(tm, t)
	t.prev = core.NewTVar(tm, h)
	t.next = core.NewTVar[*dnode[T]](tm, nil)
	return &TDeque[T]{tm: tm, head: h, tail: t}
}

// insertBetween links n between a and b inside tx.
func (d *TDeque[T]) insertBetween(tx *core.Tx, n, a, b *dnode[T]) error {
	if err := core.Set(tx, n.prev, a); err != nil {
		return err
	}
	if err := core.Set(tx, n.next, b); err != nil {
		return err
	}
	if err := core.Set(tx, a.next, n); err != nil {
		return err
	}
	return core.Set(tx, b.prev, n)
}

// unlink removes n (between its current neighbours) inside tx.
func (d *TDeque[T]) unlink(tx *core.Tx, n *dnode[T]) error {
	a, err := core.Get(tx, n.prev)
	if err != nil {
		return err
	}
	b, err := core.Get(tx, n.next)
	if err != nil {
		return err
	}
	if err := core.Set(tx, a.next, b); err != nil {
		return err
	}
	return core.Set(tx, b.prev, a)
}

// PushFront adds v at the front.
func (d *TDeque[T]) PushFront(v T) {
	must(d.PushFrontCtx(context.Background(), v))
}

// PushFrontCtx is PushFront bounded by ctx; a cancelled push's writes
// are discarded, never partially applied.
func (d *TDeque[T]) PushFrontCtx(ctx context.Context, v T) error {
	return d.tm.AtomicCtx(ctx, func(tx *core.Tx) error {
		n := &dnode[T]{val: v,
			prev: core.NewTVar[*dnode[T]](d.tm, nil),
			next: core.NewTVar[*dnode[T]](d.tm, nil)}
		first, err := core.Get(tx, d.head.next)
		if err != nil {
			return err
		}
		return d.insertBetween(tx, n, d.head, first)
	})
}

// PushBack adds v at the back.
func (d *TDeque[T]) PushBack(v T) {
	must(d.PushBackCtx(context.Background(), v))
}

// PushBackCtx is PushBack bounded by ctx.
func (d *TDeque[T]) PushBackCtx(ctx context.Context, v T) error {
	return d.tm.AtomicCtx(ctx, func(tx *core.Tx) error {
		n := &dnode[T]{val: v,
			prev: core.NewTVar[*dnode[T]](d.tm, nil),
			next: core.NewTVar[*dnode[T]](d.tm, nil)}
		last, err := core.Get(tx, d.tail.prev)
		if err != nil {
			return err
		}
		return d.insertBetween(tx, n, last, d.tail)
	})
}

// PopFront removes and returns the front element, ok=false when empty.
func (d *TDeque[T]) PopFront() (v T, ok bool) {
	v, ok, err := d.PopFrontCtx(context.Background())
	must(err)
	return v, ok
}

// PopFrontCtx is PopFront bounded by ctx.
func (d *TDeque[T]) PopFrontCtx(ctx context.Context) (v T, ok bool, err error) {
	err = d.tm.AtomicCtx(ctx, func(tx *core.Tx) error {
		first, err := core.Get(tx, d.head.next)
		if err != nil {
			return err
		}
		if first == d.tail {
			ok = false
			return nil
		}
		v, ok = first.val, true
		return d.unlink(tx, first)
	})
	return v, ok, err
}

// PopBack removes and returns the back element, ok=false when empty.
func (d *TDeque[T]) PopBack() (v T, ok bool) {
	v, ok, err := d.PopBackCtx(context.Background())
	must(err)
	return v, ok
}

// PopBackCtx is PopBack bounded by ctx.
func (d *TDeque[T]) PopBackCtx(ctx context.Context) (v T, ok bool, err error) {
	err = d.tm.AtomicCtx(ctx, func(tx *core.Tx) error {
		last, err := core.Get(tx, d.tail.prev)
		if err != nil {
			return err
		}
		if last == d.head {
			ok = false
			return nil
		}
		v, ok = last.val, true
		return d.unlink(tx, last)
	})
	return v, ok, err
}

// Rotate atomically moves the front element to the back, returning
// false when the deque is empty — a composed two-end transaction no
// two-lock deque performs atomically.
func (d *TDeque[T]) Rotate() bool {
	var moved bool
	must(d.tm.Atomic(func(tx *core.Tx) error {
		first, err := core.Get(tx, d.head.next)
		if err != nil {
			return err
		}
		if first == d.tail {
			moved = false
			return nil
		}
		if err := d.unlink(tx, first); err != nil {
			return err
		}
		last, err := core.Get(tx, d.tail.prev)
		if err != nil {
			return err
		}
		moved = true
		return d.insertBetween(tx, first, last, d.tail)
	}))
	return moved
}

// Len returns the element count: one snapshot walk from the front (see
// snapshotLen).
func (d *TDeque[T]) Len() int {
	return snapshotLen(d.tm, func(tx *core.Tx) (k int, err error) {
		n, err := core.Get(tx, d.head.next)
		for ; err == nil && n != d.tail; k++ {
			n, err = core.Get(tx, n.next)
		}
		return k, err
	})
}

// Drain pops everything from the front in one atomic transaction and
// returns the values in order.
func (d *TDeque[T]) Drain() []T {
	var out []T
	must(d.tm.Atomic(func(tx *core.Tx) error {
		out = out[:0]
		for {
			first, err := core.Get(tx, d.head.next)
			if err != nil {
				return err
			}
			if first == d.tail {
				return nil
			}
			out = append(out, first.val)
			if err := d.unlink(tx, first); err != nil {
				return err
			}
		}
	}))
	return out
}
