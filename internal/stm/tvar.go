package stm

import (
	"sync/atomic"
	"unsafe"
)

// Var is an untyped transactional variable: one shared register of the
// paper's model, two words long. All access must go through a
// transaction (Txn.Read, Txn.Write); LoadVersion is the one read outside
// one. A Var does not point at its engine: its unlocked lock word is the
// engine's word, which is how a transaction tells a variable of another
// engine (Txn.foreign).
//
// Typed access is provided by the generic wrappers in package core.
type Var struct {
	// lw is the lock word; see lockword.go.
	lw atomic.Uint64

	// head points at the current committed version. It is never nil and
	// is only replaced, under the lock word, by a newer version whose
	// prev is the old head.
	head atomic.Pointer[Version]
}

// box is the record of an untyped variable (NewVar, Txn.Write): the
// header, then the value as an interface.
type box struct {
	Version
	v any
}

// boxed returns the record of one untyped write of val.
func boxed(val any) *Version { return &(&box{v: val}).Version }

// unboxed returns the value an untyped variable's record holds.
func unboxed(rec *Version) any { return (*box)(unsafe.Pointer(rec)).v }

// NewVar allocates a transactional variable owned by engine e holding
// initial value v; see InitVar.
func (e *Engine) NewVar(v any) *Var {
	tv := new(Var)
	e.InitVar(tv, boxed(v))
	return tv
}

// InitVar makes the zero Var v — typically a field of the caller's own
// object, which is how core.TVar comes to be one allocation — a variable
// of engine e whose first version is the fresh record first, at version
// 0 (committed "before the beginning of time", so it is visible to every
// transaction). Initialisation touches nothing shared but the counter
// stripe the variable's address maps to, so concurrent allocators rarely
// meet. A Var must not be copied once initialised: its address is its
// identity (see ID).
//
// first fixes the shape of every record the variable will hold: each
// record later handed to WriteVersion for v must have the same shape, or
// one its reader tells apart by the record's tag (Version.Tag), so that
// whoever reads the value behind a record (ReadVersion, LoadVersion) can
// cast it. NewVar and Txn.Write keep an untyped Var's records boxes;
// core.TVar[T] keeps its own cells.
func (e *Engine) InitVar(v *Var, first *Version) {
	v.lw.Store(e.word)
	v.install(first, 0, 0)
	e.stats.add(v.ID(), statVarsAllocated)
}

// install stamps rec with commit timestamp wv, links behind it what of
// the overwritten chain snapshot readers may still need (needed is the
// registry's minActive), and makes it v's head. It reports whether it
// kept any history, which the caller then owes a release (owedQueue).
// It is the only place a committed head is built; every caller but
// InitVar holds v's lock word and releases it afterwards.
func (v *Var) install(rec *Version, wv, needed uint64) bool {
	rec.ver = rec.ver&^stampMask | wv
	rec.prev.Store(retainHistory(v.head.Load(), wv, needed))
	v.head.Store(rec)
	return rec.prev.Load() != nil
}

// ID returns the variable's identity: its address, which is how TL2
// orders its commit locks. A Var that ever enters a read or write set
// has escaped to the heap (the set stores its pointer), and Go's heap
// does not move objects, so from then on the ID is non-zero, distinct
// from every other reachable variable's and stable. Commit-time locking
// acquires locks in increasing ID order, which makes transactional
// deadlock impossible; the write-set probe table hashes it and
// AbortError.VarID reports it. The integer is never converted back to a
// pointer.
func (v *Var) ID() uint64 { return uint64(uintptr(unsafe.Pointer(v))) }

// LoadVersion returns the current committed record without any
// transactional protection. It is linearizable on its own (the head
// record is immutable) but provides no consistency with other reads; it
// exists for tests, statistics and post-quiescence inspection.
func (v *Var) LoadVersion() *Version { return v.head.Load() }
