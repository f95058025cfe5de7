// Package polytm is a Go implementation of transaction polymorphism
// (Gramoli & Guerraoui, "Brief Announcement: Transaction Polymorphism",
// SPAA 2011): a software transactional memory whose transactions carry a
// per-transaction semantic parameter — the paper's start(p) — so that
// transactions of different semantics run concurrently in one memory:
//
//	tm := polytm.New()
//	x := polytm.NewTVar(tm, 0)
//
//	// The paper's default semantics "def": omit the parameter.
//	tm.Atomic(func(tx *polytm.Tx) error {
//	    v, _ := polytm.Get(tx, x)
//	    return polytm.Set(tx, x, v+1)
//	})
//
//	// The paper's start(weak): an elastic search that cuts its read
//	// prefix instead of aborting (accepts Figure 1's schedule).
//	tm.Atomic(func(tx *polytm.Tx) error {
//	    _, err := polytm.Get(tx, x)
//	    return err
//	}, polytm.WithSemantics(polytm.Weak))
//
// The available semantics are Def (opaque, monomorphic), Weak (elastic),
// Snapshot (multi-version read-only; never aborts) and Irrevocable
// (guaranteed to commit on its first attempt). Nested transactions
// compose their semantics under the TM's NestingPolicy — parameter,
// parent, or strongest-of-the-two, the three answers to the paper's
// concluding question.
//
// The whole lifecycle is parametric, not just the semantics: AtomicCtx
// bounds a transaction by a context.Context (cancellation aborts
// between attempts, interrupts contention-manager backoff, and wakes a
// transaction parked in Retry's wait), WithMaxAttempts bounds its
// retries, WithLabel tags it, and WithObserver / Config.Observer hook
// its commit/abort/wait events. Every engine-generated failure is an
// *AbortError carrying the semantics, attempt count and rival
// involvement while still matching the legacy sentinels via errors.Is.
//
// Transactional collections built on this API live in
// internal/structures and are re-exported by the example programs; the
// executable rendition of the paper's formal model (schedules,
// histories, acceptance, the two theorems) lives in internal/schedule
// and internal/accept, driven by cmd/schedcheck and cmd/theorems.
//
// The polymorphism is also network-facing: cmd/polyserve is a TCP
// transactional key-value server (internal/wire, internal/server) whose
// request classes map onto the four semantics — point reads run as
// snapshot transactions, range scans elastically, writes under def, and
// admin operations irrevocably, each overridable per request by a
// semantics byte in the frame header.
package polytm

import (
	"polytm/internal/core"
	"polytm/internal/stm"
)

// TM is a polymorphic transactional memory.
type TM = core.TM

// Tx is the in-transaction handle.
type Tx = core.Tx

// TVar is a typed transactional variable.
type TVar[T any] = core.TVar[T]

// Semantics is the paper's parameter p of start(p).
type Semantics = core.Semantics

// NestingPolicy selects how nested transactions compose semantics.
type NestingPolicy = core.NestingPolicy

// Config configures a TM.
type Config = core.Config

// Option customises one transaction.
type Option = core.Option

// Observer receives transaction lifecycle events (commit, abort,
// retry-wait); register one TM-wide via Config.Observer or per
// transaction via WithObserver.
type Observer = core.Observer

// TxnEvent is the event payload delivered to an Observer.
type TxnEvent = core.TxnEvent

// AbortError is the structured abort outcome carried by every
// engine-generated error: its legacy sentinel identity plus the
// transaction's semantics, attempt count and rival involvement.
// errors.Is against the sentinels (ErrTooManyAttempts, ErrCancelled,
// stm.ErrConflict, …) keeps working; errors.As recovers the detail.
type AbortError = core.AbortError

// The transaction semantics.
const (
	Def         = core.Def
	Weak        = core.Weak
	Snapshot    = core.Snapshot
	Irrevocable = core.Irrevocable
)

// The nesting composition policies.
const (
	NestStrongest = core.NestStrongest
	NestParam     = core.NestParam
	NestParent    = core.NestParent
)

// Retry, returned from a transaction body, blocks the transaction until
// a variable it read changes, then re-executes it — the composable
// blocking combinator.
var Retry = core.Retry

// ErrTooManyAttempts matches errors returned when a transaction
// exhausted its attempt bound (WithMaxAttempts).
var ErrTooManyAttempts = stm.ErrTooManyAttempts

// ErrCancelled matches errors returned when a transaction was abandoned
// because its context was cancelled or its deadline expired; the same
// error also matches context.Canceled / context.DeadlineExceeded.
var ErrCancelled = stm.ErrCancelled

// New creates a TM with default configuration (Def default semantics,
// strongest-wins nesting).
func New() *TM { return core.NewDefault() }

// NewWithConfig creates a TM with cfg.
func NewWithConfig(cfg Config) *TM { return core.New(cfg) }

// NewTVar allocates a transactional variable holding init.
func NewTVar[T any](tm *TM, init T) *TVar[T] { return core.NewTVar(tm, init) }

// Get reads a TVar inside a transaction.
func Get[T any](tx *Tx, tv *TVar[T]) (T, error) { return core.Get(tx, tv) }

// GetAnchored reads a TVar with an anchored entry (exempt from elastic
// window sliding; see core.GetAnchored).
func GetAnchored[T any](tx *Tx, tv *TVar[T]) (T, error) { return core.GetAnchored(tx, tv) }

// Set writes a TVar inside a transaction.
func Set[T any](tx *Tx, tv *TVar[T], val T) error { return core.Set(tx, tv, val) }

// Modify applies f to a TVar's value inside a transaction.
func Modify[T any](tx *Tx, tv *TVar[T], f func(T) T) error { return core.Modify(tx, tv, f) }

// WithSemantics is the paper's start(p): set the semantic parameter.
func WithSemantics(s Semantics) Option { return core.WithSemantics(s) }

// WithContentionManager gives the transaction its own liveness policy;
// the factories live in internal/stm (NewSuicide, NewPolite, NewBackoff,
// NewKarma, NewTimestamp, NewAggressive).
func WithContentionManager(f stm.CMFactory) Option { return core.WithContentionManager(f) }

// WithMaxAttempts bounds the transaction to n attempts; exhausting the
// bound surfaces as an *AbortError matching ErrTooManyAttempts.
func WithMaxAttempts(n int) Option { return core.WithMaxAttempts(n) }

// WithLabel tags the transaction's Observer events.
func WithLabel(s string) Option { return core.WithLabel(s) }

// WithObserver gives this transaction its own lifecycle observer.
func WithObserver(o Observer) Option { return core.WithObserver(o) }
