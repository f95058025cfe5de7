// Package core implements transaction polymorphism, the primary
// contribution of Gramoli & Guerraoui, "Brief Announcement: Transaction
// Polymorphism" (SPAA 2011): a transactional memory whose transactions
// start with a semantic parameter p — start(p) — so that transactions of
// distinct semantics run concurrently in one memory.
//
// The package wraps the word-based STM engine of internal/stm with:
//
//   - typed transactional variables (TVar[T]),
//   - an Atomic combinator carrying per-transaction options — the
//     semantics parameter, a contention manager (a per-transaction
//     liveness policy), and attempt bounds,
//   - nested transactions with the three composition policies the
//     paper's concluding remarks ask about (NestParam, NestParent,
//     NestStrongest), and
//   - automatic escalation to irrevocable semantics when a nested scope
//     requires it inside an optimistic parent.
//
// A transaction that omits the parameter runs with the memory's default
// semantics — the paper's "def" — so monomorphic code works unchanged.
package core

import (
	"context"
	"errors"
	"unsafe"

	"polytm/internal/stm"
)

// Semantics re-exports the engine's semantics type; see internal/stm for
// the catalogue (Def, Weak, Snapshot, Irrevocable).
type Semantics = stm.Semantics

// The semantics values, re-exported for API convenience.
const (
	Def         = stm.SemanticsDef
	Weak        = stm.SemanticsWeak
	Snapshot    = stm.SemanticsSnapshot
	Irrevocable = stm.SemanticsIrrevocable
)

// NestingPolicy answers the paper's concluding question: "what should be
// the semantics of a nested transaction? the semantics indicated by its
// parameter as if it was not nested, the parent transaction semantics,
// or the strongest of the two?"
type NestingPolicy uint8

const (
	// NestStrongest (the default) gives a nested transaction the
	// stronger of its own parameter and the enclosing effective
	// semantics: weakening never happens implicitly.
	NestStrongest NestingPolicy = iota
	// NestParam gives a nested transaction exactly the semantics its
	// parameter indicates, as if it were not nested.
	NestParam
	// NestParent makes a nested transaction inherit the enclosing
	// effective semantics, ignoring its own parameter.
	NestParent
)

// String names the policy.
func (p NestingPolicy) String() string {
	switch p {
	case NestStrongest:
		return "strongest"
	case NestParam:
		return "param"
	case NestParent:
		return "parent"
	default:
		return "NestingPolicy(?)"
	}
}

// Compose computes the effective semantics of a nested scope whose
// enclosing effective semantics is parent and whose own parameter is
// child, under policy p.
func Compose(parent, child Semantics, p NestingPolicy) Semantics {
	switch p {
	case NestParam:
		return child
	case NestParent:
		return parent
	default:
		return stm.Stronger(parent, child)
	}
}

// ErrEscalated requests that the outermost transaction restart under
// irrevocable semantics (a nested irrevocable scope cannot be honoured
// after optimistic accesses have already been performed). Atomic
// handles it transparently — callers never receive it — but it IS
// visible to Observers: the abandoned optimistic run ends with an
// OnAbort whose Err matches ErrEscalated (or ErrTooManyAttempts for an
// EscalateAfter-triggered escalation) before the irrevocable run's
// OnCommit, because observer events describe engine runs, not logical
// Atomic calls.
var ErrEscalated = errors.New("core: transaction escalated to irrevocable semantics")

// ErrNoTransaction is returned by operations that require an enclosing
// transaction when none is active.
var ErrNoTransaction = errors.New("core: no active transaction")

// Observer receives transaction lifecycle events (commit, abort,
// retry-wait) from the run loop; see stm.Observer. Register one
// memory-wide via Config.Observer or per transaction via WithObserver.
type Observer = stm.Observer

// TxnEvent is the event payload delivered to an Observer.
type TxnEvent = stm.TxnEvent

// AbortError is the engine's structured abort outcome: every
// engine-generated error wraps its legacy sentinel (stm.ErrConflict,
// stm.ErrTooManyAttempts, stm.ErrCancelled, …) together with the
// transaction's semantics, attempt count and rival involvement.
// errors.Is against the bare sentinels keeps working unchanged;
// errors.As(&AbortError{}) recovers the detail.
type AbortError = stm.AbortError

// Config configures a polymorphic transactional memory.
type Config struct {
	// Default is the semantics used by transactions that do not pass
	// WithSemantics — the paper's def. The zero value is Def.
	Default Semantics
	// Nesting selects the composition policy for nested transactions.
	Nesting NestingPolicy
	// EscalateAfter, when > 0, escalates a transaction to Irrevocable
	// semantics after that many conflict-aborted optimistic attempts —
	// a guaranteed-progress fallback (starvation freedom bought with
	// serialization).
	EscalateAfter int
	// Shards sets the stripe count for the engine's sharded
	// synchronization state (counters, registries, id spaces); 0 keeps
	// the engine's GOMAXPROCS-derived default (see stm.Config.Shards).
	Shards int
	// Observer, when non-nil, receives lifecycle events for every
	// transaction of this memory; a per-transaction WithObserver
	// overrides it.
	Observer Observer
}

// TM is a polymorphic transactional memory.
type TM struct {
	eng           *stm.Engine
	def           Semantics
	nesting       NestingPolicy
	escalateAfter int
}

// New creates a polymorphic transactional memory with cfg.
func New(cfg Config) *TM {
	return &TM{
		eng:           stm.NewEngine(stm.Config{Shards: cfg.Shards, Observer: cfg.Observer}),
		def:           cfg.Default,
		nesting:       cfg.Nesting,
		escalateAfter: cfg.EscalateAfter,
	}
}

// NewDefault creates a TM with the default configuration (def
// semantics, strongest-wins nesting).
func NewDefault() *TM { return New(Config{}) }

// Engine exposes the underlying engine (benchmarks and tests).
func (tm *TM) Engine() *stm.Engine { return tm.eng }

// Stats returns engine counters.
func (tm *TM) Stats() stm.StatsSnapshot { return tm.eng.Stats() }

// ResetStats zeroes engine counters.
func (tm *TM) ResetStats() { tm.eng.ResetStats() }

// NestingPolicy returns the TM's composition policy.
func (tm *TM) NestingPolicy() NestingPolicy { return tm.nesting }

// Option customises one transaction. It is a value, not a closure, so
// building options on a hot path costs nothing; the variadic option
// slice of an Atomic call stays on the caller's stack. The run options
// travel to the engine as they are: an Option holds the stm.RunOptions
// its transaction runs with.
type Option struct {
	run    stm.RunOptions
	sem    Semantics
	semSet bool
}

// WithSemantics is the paper's start(p): it sets the transaction's
// semantic parameter. Omitting it yields the memory's default semantics.
func WithSemantics(s Semantics) Option {
	return Option{sem: s, semSet: true}
}

// WithContentionManager gives the transaction its own liveness policy.
func WithContentionManager(f stm.CMFactory) Option {
	return Option{run: stm.RunOptions{CM: f}}
}

// WithMaxAttempts bounds the transaction to n attempts (conflict
// retries and Retry waits both count); the bound exhausting surfaces as
// an *AbortError matching stm.ErrTooManyAttempts that carries the
// attempt count; without it a transaction retries until it commits.
// When the TM is also configured with EscalateAfter and that threshold
// is lower, escalation to Irrevocable wins — the transaction is
// guaranteed to commit before the bound can trip.
func WithMaxAttempts(n int) Option {
	return Option{run: stm.RunOptions{MaxAttempts: n}}
}

// WithLabel tags the transaction for observability: the label travels
// on every TxnEvent the transaction emits and on nothing else — it
// costs one string field, no allocation.
func WithLabel(s string) Option {
	return Option{run: stm.RunOptions{Label: s}}
}

// WithObserver gives this transaction its own lifecycle observer,
// overriding the TM-wide one for its events.
func WithObserver(o Observer) Option {
	return Option{run: stm.RunOptions{Observer: o}}
}

// resolve folds an option list over the TM defaults into one Option:
// the last setting of each field wins.
func (tm *TM) resolve(opts []Option) Option {
	o := Option{sem: tm.def}
	for i := range opts {
		op := &opts[i]
		if op.semSet {
			o.sem = op.sem
		}
		if op.run.CM != nil {
			o.run.CM = op.run.CM
		}
		if op.run.MaxAttempts != 0 {
			o.run.MaxAttempts = op.run.MaxAttempts
		}
		if op.run.Label != "" {
			o.run.Label = op.run.Label
		}
		if op.run.Observer != nil {
			o.run.Observer = op.run.Observer
		}
	}
	return o
}

// Tx is the handle passed to a transaction body. It is bound to one
// goroutine and is INVALID once the body returns: the handle lives on
// the pooled engine transaction it wraps (one Tx per stm.Txn shell,
// for the shell's whole life), so after the run ends the same *Tx is
// handed to whichever transaction draws that shell next. A body that
// leaks its *Tx — to a goroutine, a field, a channel — ends up driving
// a stranger's transaction. Transactions live at the same time never
// share a handle: a tm.Atomic started inside a body draws its own
// shell, and an escalated run draws one after the optimistic run has
// released its own.
type Tx struct {
	tm    *TM
	inner *stm.Txn
}

// handleOf returns the Tx riding on itx, attaching one the first time
// a shell is seen. A TM owns its engine and the engine its shell pool,
// so a handle found here was attached by this TM.
func (tm *TM) handleOf(itx *stm.Txn) *Tx {
	if h, ok := itx.Handle().(*Tx); ok {
		return h
	}
	h := &Tx{tm: tm, inner: itx}
	itx.SetHandle(h)
	return h
}

// Semantics returns the semantics currently in effect for this scope.
func (tx *Tx) Semantics() Semantics { return tx.inner.EffectiveSemantics() }

// Retry, returned from a transaction body, blocks the transaction until
// a variable it read changes and then re-executes it — the composable
// blocking combinator (a consumer returns Retry on empty, and sleeps
// instead of spinning).
var Retry = stm.ErrRetryWait

// Atomic runs fn as a transaction with the given options, retrying on
// conflict until it commits or fn returns a non-retryable error. It is
// the paper's start(p) … commit block. A body returning Retry blocks
// until the transaction's read set changes. If the TM was configured
// with EscalateAfter, a transaction that keeps losing conflicts is
// restarted under Irrevocable semantics, guaranteeing progress.
//
// The engine transaction behind the Tx handle is pooled: fn must not
// retain the *Tx (or anything aliasing the transaction's read/write
// sets) beyond its return.
func (tm *TM) Atomic(fn func(*Tx) error, opts ...Option) error {
	return tm.atomic(context.Background(), tm.resolve(opts), fn)
}

// AtomicCtx is Atomic bounded by ctx: cancellation (or the deadline
// expiring) aborts the transaction between attempts, interrupts
// contention-manager backoff sleeps, wakes a transaction parked in
// Retry's wait, and breaks lock-wait spins. The transaction's buffered
// writes are discarded — a cancelled transaction is never partially
// visible — and the returned error is an *AbortError matching both
// stm.ErrCancelled and the context's own error. Passing
// context.Background() is exactly Atomic and allocates nothing extra.
//
// An irrevocable transaction that has begun its attempt is guaranteed
// to commit and therefore ignores cancellation until it has.
func (tm *TM) AtomicCtx(ctx context.Context, fn func(*Tx) error, opts ...Option) error {
	return tm.atomic(ctx, tm.resolve(opts), fn)
}

// AtomicAs is Atomic(fn, WithSemantics(sem)) with the semantics passed
// directly — the hot-path form structure and server code uses per
// operation.
func (tm *TM) AtomicAs(sem Semantics, fn func(*Tx) error) error {
	return tm.atomic(context.Background(), Option{sem: sem}, fn)
}

// AtomicAsCtx is AtomicCtx(ctx, fn, WithSemantics(sem)) with the
// semantics passed directly — the hot-path form for per-operation
// semantics under a request-scoped context (polyserve's request path).
func (tm *TM) AtomicAsCtx(ctx context.Context, sem Semantics, fn func(*Tx) error) error {
	return tm.atomic(ctx, Option{sem: sem}, fn)
}

// atomic is the shared Atomic body with resolved options.
func (tm *TM) atomic(ctx context.Context, o Option, fn func(*Tx) error) error {
	// The run bound is the per-transaction WithMaxAttempts bound unless
	// the TM's escalation threshold comes first, in which case hitting
	// it escalates to Irrevocable instead of failing.
	escalate := tm.escalateAfter > 0 && o.sem != Irrevocable &&
		(o.run.MaxAttempts == 0 || tm.escalateAfter < o.run.MaxAttempts)
	if escalate {
		o.run.MaxAttempts = tm.escalateAfter
	}
	for {
		err := tm.eng.RunOpts(ctx, o.sem, o.run, func(itx *stm.Txn) error {
			return fn(tm.handleOf(itx))
		})
		escalated := errors.Is(err, ErrEscalated) || escalate && errors.Is(err, stm.ErrTooManyAttempts)
		if !escalated || o.sem == Irrevocable {
			return err
		}
		o.sem = Irrevocable
		o.run.MaxAttempts = 0
	}
}

// Atomic runs fn as a transaction nested in tx. Nesting is flat
// (subsumption): the nested scope shares the parent's read and write
// sets and commits with it, but its accesses run under the semantics
// computed by the TM's nesting policy from the enclosing semantics and
// the scope's own parameter.
//
// If the composed semantics is Irrevocable while the enclosing
// transaction is optimistic, the guarantee cannot be granted
// retroactively; Atomic aborts the whole transaction and the outermost
// Atomic restarts it irrevocably from the beginning.
func (tx *Tx) Atomic(fn func(*Tx) error, opts ...Option) error {
	return tx.AtomicAs(tx.tm.resolve(opts).sem, fn)
}

// AtomicCtx is the nested-scope form of TM.AtomicCtx. A nested scope
// runs inside the enclosing transaction's attempt, so the enclosing
// run's context governs its waits; ctx is checked at scope entry and
// exit — a cancelled ctx aborts the whole transaction and returns an
// *AbortError matching stm.ErrCancelled.
func (tx *Tx) AtomicCtx(ctx context.Context, fn func(*Tx) error, opts ...Option) error {
	return tx.AtomicAsCtx(ctx, tx.tm.resolve(opts).sem, fn)
}

// AtomicAs is the nested-scope form of TM.AtomicAs: the scope's own
// semantics parameter passed directly, composed with the enclosing
// semantics under the TM's nesting policy.
func (tx *Tx) AtomicAs(sem Semantics, fn func(*Tx) error) error {
	eff := Compose(tx.inner.EffectiveSemantics(), sem, tx.tm.nesting)
	if eff == Irrevocable && tx.inner.Semantics() != Irrevocable {
		tx.inner.Abort()
		return ErrEscalated
	}
	tx.inner.PushMode(eff)
	defer tx.inner.PopMode()
	return fn(tx)
}

// AtomicAsCtx is the nested-scope form of TM.AtomicAsCtx; see
// Tx.AtomicCtx for the cancellation contract.
func (tx *Tx) AtomicAsCtx(ctx context.Context, sem Semantics, fn func(*Tx) error) error {
	if err := ctx.Err(); err != nil {
		tx.inner.Abort()
		return &AbortError{
			Sentinel: stm.ErrCancelled, Cause: err,
			Semantics: tx.inner.Semantics(), Attempts: tx.inner.Attempt(),
			Reason: "context cancelled at nested scope entry",
		}
	}
	if err := tx.AtomicAs(sem, fn); err != nil {
		return err
	}
	// A cancellation that raced the scope body still aborts the whole
	// transaction rather than letting its writes ride the parent commit.
	if err := ctx.Err(); err != nil {
		tx.inner.Abort()
		return &AbortError{
			Sentinel: stm.ErrCancelled, Cause: err,
			Semantics: tx.inner.Semantics(), Attempts: tx.inner.Attempt(),
			Reason: "context cancelled at nested scope exit",
		}
	}
	return nil
}

// TVar is a typed transactional variable: one object holding the engine
// variable by value. It must not be copied once initialised (go vet's
// copylocks check enforces it).
type TVar[T any] struct {
	v stm.Var
}

// cell is the committed version record of a TVar[T]: the engine's record
// header and the value in one allocation (see stm.Version) — 24 bytes
// for a pointer or an int, 32 for a string. Every record of a TVar[T] is
// a cell[T] but a TVar[string]'s bytes cells, which value tells by
// their tag.
type cell[T any] struct {
	stm.Version
	v T
}

// record allocates the version record of one write of val.
func record[T any](val T) *stm.Version { return &(&cell[T]{v: val}).Version }

// value recovers the T a TVar[T]'s record holds. A record is the header
// of the cell[T] it begins, so the cast is a view of the object it was
// allocated as; Go objects never move. A tagged record is a bytes cell,
// only ever a TVar[string]'s: its tag is the string's length plus one.
func value[T any](rec *stm.Version) T {
	if n := int(rec.Tag()); n != 0 {
		s := unsafe.String(cellBytes(rec), n-1)
		return *(*T)(unsafe.Pointer(&s))
	}
	return (*cell[T])(unsafe.Pointer(rec)).v
}

// bytesCell is a string's record with the string's bytes in the same
// object, right after the header; the header's tag holds the length.
// One committed write of a borrowed []byte is then one allocation — the
// record is the value and the value's storage — where cell[string]
// needs the bytes cloned into an object of their own first.
type bytesCell[A any] struct {
	stm.Version
	b A // [N]byte
}

// newBytesCell allocates an empty bytesCell[A] and returns its record.
func newBytesCell[A any]() *stm.Version { return &new(bytesCell[A]).Version }

// cellBytes returns where a bytes cell's bytes begin, right after rec.
func cellBytes(rec *stm.Version) *byte {
	return (*byte)(unsafe.Add(unsafe.Pointer(rec), unsafe.Sizeof(*rec)))
}

// maxInlineBytes is the longest value bytesRecord stores inline: a
// 240-byte array after the 16-byte header makes a 256-byte object.
const maxInlineBytes = 240

// bytesCells holds bytesRecord's cells past 8 bytes, indexed by (n-1)/16
// for an n-byte value: [16]byte, [32]byte, …, [240]byte.
var bytesCells = [...]func() *stm.Version{
	newBytesCell[[16]byte], newBytesCell[[32]byte], newBytesCell[[48]byte], newBytesCell[[64]byte],
	newBytesCell[[80]byte], newBytesCell[[96]byte], newBytesCell[[112]byte], newBytesCell[[128]byte],
	newBytesCell[[144]byte], newBytesCell[[160]byte], newBytesCell[[176]byte], newBytesCell[[192]byte],
	newBytesCell[[208]byte], newBytesCell[[224]byte], newBytesCell[[maxInlineBytes]byte],
}

// bytesRecord allocates the version record of one write of a copy of
// val. The array lengths are the N for which N and 16+N are both malloc
// classes — 8, 16, 32, 48, … 240 — so a value of 1 to 240 bytes costs
// exactly the class of 16 bytes plus its length, one object no larger
// than the cell[string] and separately cloned bytes it replaces (64 B:
// 80 against 32+64; 128 B: 144 against 32+128). The empty value and
// anything over 240 bytes fall back to clone + cell[string]: past 240
// the next N, 256, would make a 272-byte object, which is no class.
//
// The bytes are copied in here, before the record is handed to the
// engine, and never again, so a string read from the cell is as
// immutable as any other. It points into the cell, which the collector
// treats like any other pointer: it keeps the whole cell alive for as
// long as the string (or a substring a reader kept) is reachable.
func bytesRecord(val []byte) *stm.Version {
	n := len(val)
	if n == 0 || n > maxInlineBytes {
		return record(string(val))
	}
	alloc := newBytesCell[[8]byte]
	if n > 8 {
		alloc = bytesCells[(n-1)/16]
	}
	rec := alloc()
	copy(unsafe.Slice(cellBytes(rec), n), val)
	rec.SetTag(uint8(n + 1))
	return rec
}

// NewTVar allocates a typed transactional variable in tm holding init.
func NewTVar[T any](tm *TM, init T) *TVar[T] {
	tv := new(TVar[T])
	tv.Init(tm, init)
	return tv
}

// Init makes the zero TVar tv — an element of a by-value array, a field
// of the caller's node — a variable of tm holding init.
func (tv *TVar[T]) Init(tm *TM, init T) { tm.eng.InitVar(&tv.v, record(init)) }

// InitBytes is Init for a BORROWED initial value: tv holds a private
// copy of init (see SetBytes). Like SetBytes it is a function, since a
// method cannot belong to TVar[string] alone.
func InitBytes(tm *TM, tv *TVar[string], init []byte) { tm.eng.InitVar(&tv.v, bytesRecord(init)) }

// LoadDirect reads the committed value outside any transaction (tests,
// quiescent inspection).
func (tv *TVar[T]) LoadDirect() T { return value[T](tv.v.LoadVersion()) }

// Get reads tv inside tx under the semantics in effect.
func Get[T any](tx *Tx, tv *TVar[T]) (T, error) {
	rec, err := tx.inner.ReadVersion(&tv.v, false)
	if err != nil {
		var zero T
		return zero, err
	}
	return value[T](rec), nil
}

// GetAnchored reads tv inside tx with an anchored (pinned) entry: under
// Weak semantics the read is exempt from elastic window sliding and is
// validated at every cut and at commit, like a def read. Use it for
// structural roots (a hash table's bucket array, a tree's root) that an
// elastic operation must observe consistently with its write, while the
// traversal below stays elastic.
func GetAnchored[T any](tx *Tx, tv *TVar[T]) (T, error) {
	rec, err := tx.inner.ReadVersion(&tv.v, true)
	if err != nil {
		var zero T
		return zero, err
	}
	return value[T](rec), nil
}

// Set writes val to tv inside tx.
func Set[T any](tx *Tx, tv *TVar[T], val T) error {
	return tx.inner.WriteVersion(&tv.v, record(val))
}

// SetBytes is Set for a BORROWED value: it writes a private copy of val,
// which the caller may reuse as soon as SetBytes returns. The copy lives
// inside the version record itself (up to maxInlineBytes; see
// bytesRecord), so the write allocates one object where
// Set(tx, tv, string(val)) allocates two. A string later read from tv
// may therefore alias its record: keeping it keeps the record — and
// whatever older versions the record still links for snapshot readers —
// reachable, so a holder that outlives its transaction by long should
// clone it.
func SetBytes(tx *Tx, tv *TVar[string], val []byte) error {
	return tx.inner.WriteVersion(&tv.v, bytesRecord(val))
}

// Modify applies f to tv's current value inside tx.
func Modify[T any](tx *Tx, tv *TVar[T], f func(T) T) error {
	cur, err := Get(tx, tv)
	if err != nil {
		return err
	}
	return Set(tx, tv, f(cur))
}
