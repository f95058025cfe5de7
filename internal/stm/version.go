package stm

import (
	"sync"
	"sync/atomic"
)

// Version is one immutable committed state of a transactional variable.
// Versions form a singly linked chain from newest (the variable's head)
// to oldest. The chain exists so that snapshot-semantics readers can
// resolve reads against the committed state at their start timestamp —
// this is the composition rule the paper's concluding remarks call for:
// "a multi versioned transaction could not return stale data if a singly
// versioned transaction does not backup data when overwriting it". In
// this engine every writer backs up the overwritten version for as long
// as any active snapshot transaction may need it.
//
// The record is allocated by whoever writes, not by commit: a write hands
// the engine a fresh, unstamped record (Txn.WriteVersion; Txn.Write and
// NewVar make one for an untyped value), it rides the write set, and
// commit stamps and installs that very record (Var.install, the one
// place a record gets its timestamp and its link). A record belongs to
// one write of one variable: it must never be handed to the engine
// twice, and its value and timestamp never change once it is installed.
// An attempt that aborts simply drops its records.
//
// A Version is a record's header only, 16 bytes: the value lives right
// after it, in the object the writer allocated, and the engine never
// looks past the header. Reads hand back the record (Txn.ReadVersion),
// and whoever made it reads the value behind it. One rule makes that
// sound: every record of a Var has the shape its reader expects (see
// InitVar). An untyped Var's records are boxes (box, 32 bytes); package
// core's TVar[T] makes cell[T]{Version; v T}, 24 bytes for a pointer or
// an int, and a value written from borrowed bytes keeps them right
// after the header, its length in the tag (core.SetBytes).
//
// The link to the previous record is atomic because it is cut without
// the variable's lock word: a backup kept for a snapshot reader is
// released once no reader can need it (see owedQueue), not at the
// variable's next write.
//
// The header's ver word holds the commit timestamp in its low 56 bits
// (stampMask; see Clock for the bound) and a tag in its top byte. The
// tag belongs to whoever allocated the record: SetTag sets it on the
// fresh record, before WriteVersion or InitVar hands it over, commit
// keeps it, and Tag reads it back. The engine gives the tag no meaning
// and never compares it; package core stores a bytes cell's length
// there (core.bytesRecord), so the cell needs no string header.
type Version struct {
	ver  uint64
	prev atomic.Pointer[Version]
}

// stampMask keeps the commit timestamp of a ver word, dropping its tag.
const stampMask = 1<<56 - 1

// SetTag sets the record's tag. It must be called on a fresh record,
// before the record is handed to the engine.
func (v *Version) SetTag(tag uint8) { v.ver = v.ver&stampMask | uint64(tag)<<56 }

// Tag returns the tag the record's allocator set, or 0.
func (v *Version) Tag() uint8 { return uint8(v.ver >> 56) }

// resolveAt returns the newest version in the chain whose timestamp is
// <= at, or nil if the chain has been trimmed past that point (which the
// snapshot registry guarantees cannot happen for registered snapshots).
func (v *Version) resolveAt(at uint64) *Version {
	for cur := v; cur != nil; cur = cur.prev.Load() {
		if cur.ver&stampMask <= at {
			return cur
		}
	}
	return nil
}

// retainHistory decides what of the overwritten chain old a writer
// committing at timestamp wv must keep, where needed is the oldest
// timestamp any live snapshot reader may still request: nothing, if
// needed >= wv; otherwise the chain down to the newest version with ver
// <= needed (the one such a reader resolves to), everything older
// unlinked so the garbage collector can reclaim it.
func retainHistory(old *Version, wv, needed uint64) *Version {
	if needed >= wv {
		return nil
	}
	for cur := old; cur != nil; cur = cur.prev.Load() {
		if cur.ver&stampMask <= needed {
			cur.prev.Store(nil)
			break
		}
	}
	return old
}

// owedQueue lists the variables whose install kept history for a
// snapshot reader, each with the commit timestamp of that install: the
// backups the engine owes a release. Each writing commit appends to its
// shell's stripe (Txn.publish) and then drains that stripe, and each
// snapshot reader drains every stripe after it unregisters, so a backup
// is freed when its last reader leaves rather than at the variable's
// next write.
type owedQueue struct {
	mu   sync.Mutex
	low  atomic.Uint64 // at most the oldest commit in vars; snapFree when empty
	vars []owed
	_    [cacheLine - 40]byte
}

type owed struct {
	v  *Var
	wv uint64
}

// owe appends v, whose install at wv kept history.
func (q *owedQueue) owe(v *Var, wv uint64) {
	q.mu.Lock()
	q.vars = append(q.vars, owed{v, wv})
	q.low.Store(min(q.low.Load(), wv))
	q.mu.Unlock()
}

// drain cuts the history behind every owed head that no live snapshot
// reader can need, and keeps the rest. An entry whose install is no
// longer the head is dropped: the newer install owes its own release,
// if it kept any history. A cut needs the head's version at or below
// the registry's minimum, so m, folded first, lets a drain leave a
// queue whose oldest commit is above it without taking its lock, and
// skip such entries in it. The cut itself is decided by a fold taken
// AFTER the head was loaded, and that order is load-bearing: it is the
// register-then-sample argument (see registerSampling). A reader that
// fold missed stored its bound after the head was loaded, so after the
// head was installed, and its rv, sampled later still, is at least the
// head's version: it resolves to the head or newer and never follows
// the link being cut. The first fold may precede a reader that
// registers, and a commit that keeps history for it and is owed here,
// before the lock is taken.
func (e *Engine) drain(q *owedQueue) {
	low := q.low.Load()
	if low == snapFree {
		return
	}
	m := e.snaps.minActive()
	if low > m {
		return
	}
	q.mu.Lock()
	kept, low := q.vars[:0], uint64(snapFree)
	for _, o := range q.vars {
		switch h := o.v.head.Load(); {
		case h.ver&stampMask != o.wv: // superseded: dropped
		case o.wv > m || h.ver&stampMask > e.snaps.minActive():
			kept, low = append(kept, o), min(low, o.wv)
		default:
			h.prev.Store(nil)
		}
	}
	clear(q.vars[len(kept):])
	if cap(kept) > 4*len(kept)+1024 {
		kept = append([]owed(nil), kept...) // a long reader's backlog is gone
	}
	q.vars = kept
	q.low.Store(low)
	q.mu.Unlock()
}
