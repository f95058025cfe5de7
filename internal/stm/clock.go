// Package stm implements the low-level software transactional memory
// engine underlying the polymorphic transaction API of package core.
//
// The engine is word-based in the TL2/LSA tradition: shared state lives in
// explicit transactional variables (TVar), each a lock word and a head
// version record, and commit order is defined by a global version clock.
// On top of this single substrate the engine implements several
// transaction *semantics* — the paper's polymorphism parameter p in
// start(p):
//
//   - SemanticsDef: the default, opaque, monomorphic semantics
//     (TL2-style invisible reads, commit-time locking, full validation).
//   - SemanticsWeak: elastic transactions (Felber, Gramoli, Guerraoui,
//     DISC 2009) — the read prefix may be "cut" on conflict, keeping only
//     a sliding consistency window, which accepts schedules such as
//     Figure 1 of the paper that no monomorphic TM accepts.
//   - SemanticsSnapshot: multi-version read-only semantics; readers never
//     abort and observe the committed snapshot at their start time.
//   - SemanticsIrrevocable: the transaction is guaranteed to commit and
//     never re-executes; used for operations with side effects.
//
// All semantics interoperate safely in one memory: writers always
// preserve the overwritten version on a bounded version chain so that
// snapshot readers can never observe torn state, and elastic cuts only
// ever discard reads that were individually consistent at the time they
// were made (see elastic.go).
package stm

import "sync/atomic"

// Clock is the global version clock (TL2). Every committed writing
// transaction acquires a unique commit timestamp by incrementing it, and
// every transaction samples it at start to obtain its read timestamp.
//
// The zero Clock is ready to use; time starts at 0 and the first commit
// timestamp is 1. A timestamp must stay at or below 2^56 - 1, the
// largest a record's ver word holds beside its tag (see Version): at
// 10^8 commits a second that is 22 years of one engine's life, so the
// commit path carries no guard for it.
type Clock struct {
	t atomic.Uint64
}

// Now returns the current global time. A transaction samples Now at start
// as its read timestamp rv: any location with version <= rv is guaranteed
// to have been committed no later than the sample.
func (c *Clock) Now() uint64 { return c.t.Load() }

// Tick atomically advances the clock and returns the new, unique commit
// timestamp.
func (c *Clock) Tick() uint64 { return c.t.Add(1) }
