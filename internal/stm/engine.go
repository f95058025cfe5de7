package stm

import (
	"context"
	"sync"
	"sync/atomic"
)

// Config carries the engine-wide settings. A run's contention manager
// and attempt bound are per-run choices (RunOptions): a run that names
// neither uses NewPolite(8) and retries until it commits.
type Config struct {
	// Shards is the stripe count for the engine's internal
	// synchronization state (event counters, the live-transaction
	// registry, the snapshot registry). It is rounded up to a power of
	// two and capped at 256; <= 0 derives the count from GOMAXPROCS at
	// engine construction. One shard reproduces the old centralized
	// behaviour exactly.
	Shards int

	// Observer, when non-nil, receives transaction lifecycle events
	// (commit, abort, retry-wait) from the run loop for every
	// transaction of this engine. A per-run observer (RunOptions,
	// core.WithObserver) overrides it for that transaction. Nil costs
	// one pointer comparison per event site.
	Observer Observer
}

// defaultCM is the contention manager of a run that names none.
var defaultCM = NewPolite(8)

// engineWords numbers the engines of the process; see Engine.word.
var engineWords atomic.Uint64

// Engine is one transactional memory: a global version clock, an
// identity space for transactions, a snapshot registry, and the
// irrevocability token and commit gate. Engines are independent;
// variables must not flow between them.
//
// All bookkeeping — counters, the live registry, the snapshot registry —
// is paid per attempt, never per access, on sharded state (see
// shard.go): a read writes only to its own transaction, and the only
// state every committing writer still serializes on is the version clock
// itself, which defines commit order and is irreducible.
type Engine struct {
	cfg   Config
	clock Clock

	// nextTxnID is the source of per-Txn attempt-id blocks: each Txn
	// draws txnIDBlock ids at a time (see Txn.nextAttemptID), so this
	// counter is touched once per block rather than once per attempt.
	nextTxnID atomic.Uint64

	// shells numbers the Txn shells built, so each takes the next stats
	// stripe (see Txn.stripe).
	shells atomic.Uint64

	snaps snapshotRegistry

	// owed holds, per stripe, the variables whose history is kept for
	// snapshot readers until none can need it (see owedQueue).
	owed []owedQueue

	// word is the unlocked lock word of every variable of this engine: a
	// process-wide serial from 1 that is never reused, with bit 63 clear
	// (see lockword.go). The zero word is no engine's, so a Var that was
	// never initialised reads as foreign to all of them. Every InitVar
	// loads it, so it sits past the clock's cache line, beside fields
	// nothing writes after NewEngine.
	word uint64

	// irrevocable serializes SemanticsIrrevocable transactions, and the
	// one holding it raises gate to shut out writing commits (see
	// irrevocable.go). Every writing commit loads the gate, and every
	// one ticks the clock, which would pull a gate on the clock's cache
	// line away from the other cores; the padding keeps them apart.
	_           [cacheLine]byte
	irrevocable sync.Mutex
	gate        atomic.Bool

	// live resolves attempt id -> *Txn for contention managers that
	// need to inspect or kill lock owners.
	live liveRegistry

	// txnPool recycles Txn shells across Run calls (per-P free lists
	// under the hood), so the common transaction allocates nothing: the
	// shell, its read/write sets, its probe table and its contention
	// manager are all reused. Txns handed out by Begin are NOT pooled —
	// they escape to the caller, which could still hold them when the
	// pool re-issues the value.
	txnPool sync.Pool

	stats Stats
}

// NewEngine creates an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	cfg.Shards = resolveShardCount(cfg.Shards)
	e := &Engine{cfg: cfg, word: engineWords.Add(1)}
	e.snaps.init(cfg.Shards)
	e.owed = make([]owedQueue, cfg.Shards)
	e.live.init(cfg.Shards)
	e.stats.init(cfg.Shards)
	return e
}

// NewDefaultEngine creates an engine with default configuration.
func NewDefaultEngine() *Engine { return NewEngine(Config{}) }

// Shards returns the engine's resolved stripe count.
func (e *Engine) Shards() int { return e.cfg.Shards }

// Observer returns the engine-wide lifecycle observer (nil if none was
// configured). A caller installing a per-transaction WithObserver that
// still wants engine-wide delivery should forward events to this one —
// per-transaction observers replace, they do not chain.
func (e *Engine) Observer() Observer { return e.cfg.Observer }

// Stats returns a snapshot of the engine counters: StatsOf(e).
func (e *Engine) Stats() StatsSnapshot { return StatsOf(e) }

// ResetStats zeroes the engine counters (between benchmark phases).
func (e *Engine) ResetStats() { e.stats.reset() }

// newTxn builds a fresh, unpooled transaction shell; its birth id is
// assigned on the first begin, from the transaction's first attempt-id
// block.
func (e *Engine) newTxn(sem Semantics, cm CMFactory) *Txn {
	return &Txn{eng: e, word: e.word, sem: sem, cmFac: cm, ctx: context.Background(), stripe: e.shells.Add(1)}
}

// acquireTxn arms a pooled transaction shell (building one on pool
// miss) for a Run lifecycle.
func (e *Engine) acquireTxn(sem Semantics, cm CMFactory) *Txn {
	if tx, ok := e.txnPool.Get().(*Txn); ok {
		tx.sem = sem
		tx.cmFac = cm
		return tx
	}
	return e.newTxn(sem, cm)
}

// releaseTxn scrubs a finished transaction and returns it to the pool.
// A transaction that is somehow still active (a panicking body unwound
// through the run loop) is dropped instead — pooling it would hand a
// live read/write set to an unrelated Run.
func (e *Engine) releaseTxn(tx *Txn) {
	if tx.status.Load() == statusActive {
		return
	}
	tx.recycle()
	e.txnPool.Put(tx)
}

// Begin starts a transaction with semantics sem and the default
// contention manager, NewPolite(8). The returned Txn must be finished
// with Commit or Abort, after which it must not be touched again; Begin
// transactions are excluded from the engine's Txn pool (the caller
// could retain the handle), so each Begin allocates. Most callers should use RunOpts (or
// core.Atomic) instead, which handles the retry loop and runs
// allocation-free on the pooled lifecycle.
func (e *Engine) Begin(sem Semantics) *Txn {
	tx := e.newTxn(sem, defaultCM)
	tx.begin()
	return tx
}

// Run is RunOpts with a background context and zero RunOptions:
// the short form for a body that needs no cancellation and no per-run
// option.
func (e *Engine) Run(sem Semantics, fn func(*Txn) error) error {
	return e.RunOpts(context.Background(), sem, RunOptions{}, fn)
}
