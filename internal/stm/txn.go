package stm

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// Transaction status values.
const (
	statusActive uint32 = iota
	statusCommitted
	statusAborted
)

// readEntry records one validated read: the variable and the exact
// version record observed. Validation is by pointer identity: the read
// is still valid iff the variable's head is still that record. A pinned
// entry is never dropped by elastic window sliding and is validated at
// every cut and at commit — the anchor mechanism that lets elastic
// operations compose safely with structural invalidation (e.g. a hash
// table's bucket array being replaced by a resize).
type readEntry struct {
	v      *Var
	ver    *Version
	pinned bool
}

// writeEntry buffers one pending write (lazy versioning: writes become
// visible only at commit): the variable and the unstamped record the
// writer handed over, which commit installs as is (Var.install).
type writeEntry struct {
	v      *Var
	rec    *Version
	locked bool
}

// Txn is one transaction. A Txn value is reused across the attempts of
// one Engine.RunOpts call (so karma and birth order persist), but each
// attempt gets a fresh id, read timestamp, and read/write sets via
// begin. Txn is not safe for concurrent use by multiple goroutines; the
// paper's model runs each operation on one process.
//
// Txns driven by RunOpts are pooled: when the run ends the Txn
// is scrubbed (recycle) and returned to the engine's pool, so the
// common transaction costs no allocation at all. The corollary is the
// reuse contract: a transaction body must not retain its *Txn (or any
// alias into its read/write sets) beyond the body's return, and a
// finished Txn must never be used again by the caller — the next Run
// anywhere in the process may already own it. Begin hands out unpooled
// Txns for callers that need to drive the lifecycle manually.
type Txn struct {
	eng *Engine
	// word is eng.word, copied so that a read's one compare touches no
	// engine cache line (the clock shares one).
	word  uint64
	sem   Semantics
	cmFac CMFactory
	cm    ContentionManager

	// ctx is the run's cancellation scope; never nil (context.Background
	// when the run is not cancellable). The Background fast path costs
	// nothing: Done() is nil and Err() is a trivial interface call, so
	// the cancellation checks in the wait loops stay allocation-free.
	ctx context.Context

	// birth is the id of the first attempt; it defines the age order
	// used by the timestamp contention manager. It is atomic because
	// rival transactions inspect it (Birth) through live-registry
	// pointers that may be stale by the time they are dereferenced,
	// racing the rewrite a pooled reuse performs.
	birth atomic.Uint64

	// id is the per-attempt identity, used as the lock-word owner.
	id uint64

	// idNext/idLimit delimit the transaction's private block of attempt
	// ids, drawn txnIDBlock at a time from the engine's global counter
	// (see nextAttemptID).
	idNext, idLimit uint64

	// stripe is the stats stripe this shell's attempts fold into. Shells
	// take stripes in turn as they are built, and a pooled shell keeps
	// its stripe across runs; sync.Pool keeps a shell on the P that last
	// used it, so shells in use on distinct Ps mostly fold into distinct
	// stripes and the flush does not bounce a cache line between cores.
	stripe uint64

	// rv is the read timestamp: all reads are consistent at rv.
	rv uint64

	status atomic.Uint32

	// killedID holds the attempt id a contention manager asked to
	// abort, 0 if none. The owner treats the transaction as killed only
	// while killedID equals the current attempt id, which makes kill
	// delivery exact under pooling: a kill races with the target
	// finishing, and when it loses the race it deposits a stale id that
	// no later attempt ever matches.
	killedID atomic.Uint64

	rset []readEntry
	wset []writeEntry

	// wtab is the spilled write-set index: open addressing keyed by the
	// variable id, each slot holding a wset index + 1 (0 = empty). While
	// the write set is small (<= wsetLinearScan entries) lookups scan
	// wset directly and the table is not maintained at all; the first
	// write past the threshold builds it in place (see findWrite,
	// noteWrite). It holds no pointers, so recycling keeps it as-is.
	wtab []int32

	// written marks that a SemanticsWeak transaction has performed its
	// first write and must behave monomorphically from then on.
	written bool

	// tally counts this attempt's events (reads, writes, extensions,
	// cuts, ...) in plain fields; finish folds it into the shell's stats
	// stripe, once per attempt. It follows karma's rule below.
	tally [numStatCounters]uint64

	// karma accumulates the accesses (reads + writes) of the run's
	// finished attempts for the karma manager; the current attempt's are
	// still in tally. It is owner-side only, and the rule it set now
	// holds for every counter: an access writes nothing shared, because
	// any atomic form on the read fast path — LOCK-prefixed add or XCHG
	// store — measured 20-30%. Rivals (karma.OnLockBusy inspects a lock
	// owner through a registry pointer) read karmaSeen, the sum published
	// when the attempt registers as a lock owner (registerLive). That is
	// the only state a rival can meet it in — only writing optimistic
	// commits register; an irrevocable transaction never does — and the
	// copy is as good as the original there: a committer performs no
	// access after it.
	karma     uint64
	karmaSeen atomic.Uint64

	attempt int

	// liveID is the attempt id published while the attempt is a
	// registered lock owner: live-registry lookups match it through
	// pointers that may be stale, so it is atomic where id is not.
	// liveSlot and snapSlot are the registry slots the attempt holds,
	// nil when it spilled into the shard's overflow map.
	liveID   atomic.Uint64
	liveSlot *atomic.Pointer[Txn]
	snapSlot *atomic.Uint64

	snapRegistered  bool
	liveRegistered  bool
	irrevocableHeld bool

	// modes is the nested-scope semantics stack; see nesting.go.
	modes semStack

	// elasticFloor is the read-set index below which elastic window
	// sliding may not drop entries (they belong to enclosing scopes).
	elasticFloor int

	// handle belongs to the layer wrapping the engine (see Handle).
	handle any
}

// Handle returns the value the wrapping layer attached with SetHandle,
// nil if none. The slot exists so that layer's per-transaction handle
// (core's *Tx) can live as long as the pooled Txn shell it wraps and
// need not be allocated per run; the engine never reads it, and
// recycle deliberately keeps it — what it points at describes the
// shell, not a run.
func (tx *Txn) Handle() any { return tx.handle }

// SetHandle attaches h to the shell; see Handle.
func (tx *Txn) SetHandle(h any) { tx.handle = h }

// txnIDBlock is how many attempt ids a transaction draws from the
// engine's global counter at a time. Blocks amortize the global
// fetch-and-add across attempts; unused remainder ids are simply never
// issued (the 63-bit id space absorbs the waste).
const txnIDBlock = 64

// nextAttemptID hands out the next per-attempt id from the
// transaction's private block, refilling from the engine once per
// txnIDBlock ids. Ids start at 1, because 0 means "none" in killedID and
// birth. Ids are unique per engine only: another engine's lock word may
// carry the same id (see foreign). Block allocation keeps ids unique
// and keeps birth order (first id of the first block) aligned with
// transaction creation order, which the timestamp contention manager's
// age priority relies on.
func (tx *Txn) nextAttemptID() uint64 {
	if tx.idNext == tx.idLimit {
		end := tx.eng.nextTxnID.Add(txnIDBlock)
		tx.idNext, tx.idLimit = end-txnIDBlock+1, end+1
	}
	id := tx.idNext
	tx.idNext++
	return id
}

// wsetLinearScan is the write-set size up to which read-your-writes
// lookups scan wset linearly. Past it, an open-addressed index over the
// variable ids (wtab) is built in place and maintained incrementally —
// the crossover where a probe beats walking the entries. The old
// map[*Var]int this replaces cost an allocation (and a rehash of every
// entry) per attempt even for transactions that never wrote.
const wsetLinearScan = 8

// wtabHash spreads a variable id over the probe table. Ids are
// addresses (see Var.ID) — multiples of eight, evenly spaced within a
// tower or a size class — so they need mixing before masking; Fibonacci
// hashing's high bits do it in one multiply.
func wtabHash(id uint64) uint64 { return id * 0x9E3779B97F4A7C15 >> 32 }

// findWrite returns the wset index buffering v, or -1.
func (tx *Txn) findWrite(v *Var) int {
	if len(tx.wset) <= wsetLinearScan {
		for i := range tx.wset {
			if tx.wset[i].v == v {
				return i
			}
		}
		return -1
	}
	mask := uint64(len(tx.wtab) - 1)
	for h := wtabHash(v.ID()); ; h++ {
		slot := tx.wtab[h&mask]
		if slot == 0 {
			return -1
		}
		if i := int(slot - 1); tx.wset[i].v == v {
			return i
		}
	}
}

// noteWrite indexes the freshly appended wset entry i, spilling the
// linear scan into the probe table at the threshold and growing the
// table before it gets crowded.
func (tx *Txn) noteWrite(i int) {
	n := len(tx.wset)
	switch {
	case n <= wsetLinearScan:
		// Still linear; nothing to maintain.
	case n == wsetLinearScan+1 || 4*n >= 3*len(tx.wtab):
		tx.rebuildWtab()
	default:
		tx.insertWtab(i)
	}
}

// rebuildWtab (re)builds the probe table over the whole write set,
// reusing its storage when capacity allows. Load factor stays below
// 3/4.
func (tx *Txn) rebuildWtab() {
	size := 32
	for 4*len(tx.wset) >= 3*size {
		size <<= 1
	}
	if cap(tx.wtab) >= size {
		tx.wtab = tx.wtab[:size]
		clear(tx.wtab)
	} else {
		tx.wtab = make([]int32, size)
	}
	for i := range tx.wset {
		tx.insertWtab(i)
	}
}

// insertWtab adds wset entry i to the probe table (which must have a
// free slot; rebuildWtab maintains the load factor).
func (tx *Txn) insertWtab(i int) {
	mask := uint64(len(tx.wtab) - 1)
	for h := wtabHash(tx.wset[i].v.ID()); ; h++ {
		if tx.wtab[h&mask] == 0 {
			tx.wtab[h&mask] = int32(i + 1)
			return
		}
	}
}

// recycle scrubs every per-run trace from a finished transaction so a
// pooled reuse can neither observe nor retain anything from the
// previous lifecycle: read/write sets and the mode stack are
// element-cleared (dropping their Var/Version/value references for the
// GC) and truncated; identity, karma, attempt count and the contention
// manager reset. Only the slice capacities, the pointer-free probe
// table, and the remainder of the private attempt-id block survive —
// the id block keeps ids engine-unique, and reusing it is exactly the
// amortization the block allocator exists for (at the documented cost
// that birth "age" order is creation order per id block, not per Run).
func (tx *Txn) recycle() {
	clear(tx.rset)
	tx.rset = tx.rset[:0]
	clear(tx.wset)
	tx.wset = tx.wset[:0]
	tx.modes.stack = tx.modes.stack[:0]
	tx.sem = 0
	tx.cmFac = nil
	tx.cm = nil
	tx.ctx = context.Background()
	tx.birth.Store(0)
	tx.karma = 0
	tx.attempt = 0
	tx.rv = 0
	tx.written = false
	tx.elasticFloor = 0
	tx.killedID.Store(0)
}

// stat counts one event of this attempt (see tally).
func (tx *Txn) stat(c statCounter) { tx.tally[c]++ }

// begin (re)initializes the transaction for a new attempt. The
// contention manager is built on the first attempt and reused for the
// rest of the run — managers are values with per-lifecycle state, not
// per-attempt factory products (see ContentionManager). The previous
// attempt's read and write sets are cleared, not just truncated: a long
// aborted attempt followed by a short retry would otherwise keep its
// variables and version records reachable behind the capacity for as
// long as the shell is reused. The cost is the previous attempt's
// entries, nothing on a first attempt (recycle left both sets empty).
func (tx *Txn) begin() {
	tx.id = tx.nextAttemptID()
	if tx.birth.Load() == 0 {
		tx.birth.Store(tx.id)
	}
	tx.attempt++
	tx.status.Store(statusActive)
	clear(tx.rset)
	tx.rset = tx.rset[:0]
	clear(tx.wset)
	tx.wset = tx.wset[:0]
	tx.written = false
	tx.modes.stack = tx.modes.stack[:0]
	tx.elasticFloor = 0
	if tx.cm == nil {
		tx.cm = tx.cmFac()
	}

	switch tx.sem {
	case SemanticsIrrevocable:
		tx.beginIrrevocable()
	case SemanticsSnapshot:
		// Registration order matters: publish a conservative lower
		// bound to the registry FIRST, then sample the read timestamp.
		// Writers that read the registry minimum before our bound was
		// stored committed at wv <= rv (their tick preceded our
		// post-store sample), so their new version is itself visible at
		// rv; writers that read it after preserve the newest version
		// <= the bound and everything newer — a superset of what
		// resolving at rv needs. Either way no version this snapshot
		// requires is ever trimmed. registerSampling performs the
		// publish between the two clock samples (see its comment for
		// why the post-store sample is load-bearing).
		tx.rv, tx.snapSlot = tx.eng.snaps.registerSampling(tx.id, &tx.eng.clock)
		tx.snapRegistered = true
	default:
		tx.rv = tx.eng.clock.Now()
	}
}

// registerLive enters this attempt into the live registry so that
// contention managers can resolve it as a lock owner. It must be called
// before the attempt's first lock-word CAS can succeed: a rival that
// observes our id in a lock word must be able to look us up (a nil
// lookup is treated as "owner already finished", which would spin
// rather than arbitrate). Read-only attempts never lock and so never
// register — that is the point: the registry is off the read fast path.
func (tx *Txn) registerLive() {
	if !tx.liveRegistered {
		tx.karmaSeen.Store(tx.karma + tx.tally[statReads] + tx.tally[statWrites])
		tx.liveSlot = tx.eng.live.store(tx)
		tx.liveRegistered = true
	}
}

// unregisterLive undoes registerLive, if the attempt registered.
func (tx *Txn) unregisterLive() {
	if tx.liveRegistered {
		tx.eng.live.delete(tx.id, tx.liveSlot)
		tx.liveRegistered = false
	}
}

// finish tears down per-attempt registrations and folds the attempt's
// tally into the engine's stats — the one place every commit and abort
// passes through. A snapshot reader releases, once it has unregistered,
// whatever history only it still needed. An irrevocable attempt lowers
// the gate before it gives up the token.
func (tx *Txn) finish(st uint32) {
	tx.status.Store(st)
	tx.unregisterLive()
	if tx.snapRegistered {
		tx.eng.snaps.unregister(tx.id, tx.snapSlot)
		tx.snapRegistered = false
		for i := range tx.eng.owed {
			tx.eng.drain(&tx.eng.owed[i])
		}
	}
	if tx.irrevocableHeld {
		tx.eng.gate.Store(false)
		tx.eng.irrevocable.Unlock()
		tx.irrevocableHeld = false
	}
	outcome := statAborts
	if st == statusCommitted {
		outcome = statCommits
	}
	tx.karma += tx.tally[statReads] + tx.tally[statWrites]
	tx.eng.stats.flush(tx.stripe, tx.sem, outcome, &tx.tally)
	tx.tally = [numStatCounters]uint64{}
}

// Birth returns the id of the transaction's first attempt (its age).
func (tx *Txn) Birth() uint64 { return tx.birth.Load() }

// Attempt returns the 1-based attempt number.
func (tx *Txn) Attempt() int { return tx.attempt }

// Karma returns the access count accumulated across attempts, as of the
// current attempt's registration as a lock owner — exact for the caller
// of OnLockBusy and for the enemy it is handed (see the karma field).
func (tx *Txn) Karma() uint64 { return tx.karmaSeen.Load() }

// Semantics returns the transaction's semantic parameter p.
func (tx *Txn) Semantics() Semantics { return tx.sem }

// kill requests asynchronous abort of attempt expected — the id the
// caller observed in the busy lock word and resolved through the live
// registry. Delivery is attempt-exact: the kill deposits the expected
// id, and the owner honours it only while that is still the current
// attempt, so a kill racing through a stale registry pointer after the
// target finished (the shell may already be pooled, or re-armed as a
// different transaction — even an unabortable-by-contract snapshot
// reader or irrevocable) expires instead of landing. An irrevocable
// attempt is never the target itself: it never enters the registry, so
// no rival resolves its id. kill touches only an atomic for the same
// reason.
func (tx *Txn) kill(expected uint64) { tx.killedID.Store(expected) }

// isKilled reports whether a kill was delivered to the current attempt.
func (tx *Txn) isKilled() bool { return tx.killedID.Load() == tx.id }

// Sleep pauses for d, waking early when the transaction's context is
// cancelled first; it reports whether the full duration elapsed.
// Contention managers route their backoff sleeps through it so a
// cancelled caller is never held hostage by its own backoff. The
// Background path is a plain time.Sleep and allocates nothing.
func (tx *Txn) Sleep(d time.Duration) bool {
	done := tx.ctx.Done()
	if done == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return false
	case <-t.C:
		return true
	}
}

// checkLive verifies the transaction is usable and not killed.
func (tx *Txn) checkLive() error {
	if tx.status.Load() != statusActive {
		return tx.opError(ErrTxnDone, "finished handle")
	}
	if tx.isKilled() {
		tx.stat(statKills)
		tx.abortCleanup()
		return tx.abortKilled()
	}
	return nil
}

// Read performs a transactional read of v, an untyped variable (see
// NewVar), under the transaction's semantics. On conflict it aborts the
// transaction and returns a retryable error (see IsRetryable).
func (tx *Txn) Read(v *Var) (any, error) {
	rec, err := tx.ReadVersion(v, false)
	if err != nil {
		return nil, err
	}
	return unboxed(rec), nil
}

// ReadVersion is the record read every read goes through: it returns
// the record holding the value the transaction observes, whose shape is
// v's (see InitVar). A pinned read's entry is anchored: an elastic
// transaction never slides it out of the validated set, so the value is
// guaranteed current at every later cut and at commit, exactly like a
// def read. Under non-weak semantics pinned changes nothing.
func (tx *Txn) ReadVersion(v *Var, pinned bool) (*Version, error) {
	if err := tx.checkLive(); err != nil {
		return nil, err
	}
	tx.stat(statReads)

	// Read-your-writes.
	if len(tx.wset) > 0 {
		if i := tx.findWrite(v); i >= 0 {
			return tx.wset[i].rec, nil
		}
	}

	switch sem := tx.effective(); {
	case sem == SemanticsSnapshot:
		return tx.readSnapshot(v)
	case sem == SemanticsIrrevocable:
		return tx.readIrrevocable(v)
	case sem == SemanticsWeak && !tx.written:
		return tx.readElastic(v, pinned)
	default:
		return tx.readDef(v)
	}
}

// waitUnlocked spins until v is unlocked, and fails the attempt with
// ErrCrossEngine if v turns out to be another engine's (foreign). A
// locked variable may be mid-publish by a committer whose timestamp was
// taken BEFORE this transaction's read timestamp; trusting its (old)
// head would tear that commit across variables — the classic TL2 locked
// read hazard. Every committer, an irrevocable one included, holds its
// locks only across its commit window (tick and publish), so the wait
// is short. Returns an error if this transaction is killed, or its
// context cancelled, while waiting.
func (tx *Txn) waitUnlocked(v *Var) error {
	for {
		w := v.lw.Load()
		if w == tx.word {
			return nil
		}
		if tx.foreign(w) {
			return tx.crossEngine()
		}
		if err := tx.interrupted(); err != nil {
			return err
		}
		runtime.Gosched()
	}
}

// foreign reports whether lock word w, met by this attempt while it
// holds no lock, proves its variable belongs to another engine: an
// unlocked word that is not this engine's, or a lock in this attempt's
// own name. Attempt ids are unique per engine only, and no attempt
// reads or buffers a write while it holds a lock, so the second can only
// be another engine's attempt that drew the same id. Any other lock
// proves nothing until its holder lets go.
func (tx *Txn) foreign(w uint64) bool {
	if isLocked(w) {
		return wordOwner(w) == tx.id
	}
	return w != tx.word
}

// crossEngine aborts the attempt for touching another engine's variable.
func (tx *Txn) crossEngine() error {
	tx.abortCleanup()
	return tx.opError(ErrCrossEngine, "cross-engine access")
}

// interrupted is the check every wait loop makes before it yields: if
// the attempt was killed or its context cancelled, it aborts the
// attempt and returns the abort's error.
func (tx *Txn) interrupted() error {
	if tx.isKilled() {
		tx.stat(statKills)
		tx.abortCleanup()
		return tx.abortKilled()
	}
	if err := tx.ctx.Err(); err != nil {
		tx.abortCleanup()
		return tx.abortCancelled(err)
	}
	return nil
}

// readDef is the TL2/LSA read: wait out any in-flight commit, take the
// current head; if it is newer than rv, try to extend rv by
// revalidating the read set; otherwise the head is exactly the newest
// version <= rv (any commit after this transaction started has a
// strictly larger timestamp), so it is safe.
//
// The preamble is the classic TL2 unlocked fast path: one lock-word
// load and one head load decide the common case without entering the
// wait/extend loop; the compare with the engine's word means "unlocked"
// and "ours" at once. It is sound because observing the lock word
// unlocked means any commit with a timestamp <= rv has fully published
// (head.Store precedes the releasing lock-word store), while a commit
// racing between the two loads must have acquired the lock — and then
// ticked the clock — after our lock-word load, hence after rv was
// sampled, so its version is > rv and the h.ver guard routes it to the
// slow path.
func (tx *Txn) readDef(v *Var) (*Version, error) {
	if v.lw.Load() == tx.word {
		if h := v.head.Load(); h.ver&stampMask <= tx.rv {
			tx.rset = append(tx.rset, readEntry{v: v, ver: h})
			return h, nil
		}
	}
	return tx.readDefSlow(v)
}

// readDefSlow is readDef's wait/extend loop.
func (tx *Txn) readDefSlow(v *Var) (*Version, error) {
	for {
		if err := tx.waitUnlocked(v); err != nil {
			return nil, err
		}
		h := v.head.Load()
		if h.ver&stampMask <= tx.rv {
			tx.rset = append(tx.rset, readEntry{v: v, ver: h})
			return h, nil
		}
		if !tx.extend() {
			tx.stat(statReadAborts)
			tx.abortCleanup()
			return nil, tx.abortConflict("read validation", v.ID())
		}
	}
}

// extend attempts to advance rv to the current clock, revalidating every
// tracked read. Returns false if any read is no longer valid.
func (tx *Txn) extend() bool {
	now := tx.eng.clock.Now()
	if !tx.validateReads() {
		return false
	}
	tx.rv = now
	tx.stat(statExtensions)
	return true
}

// current reports whether the read is still valid for transaction id
// self: the variable is not locked by another transaction and the
// observed version is still its head — checked in THAT order. A
// committer holds the lock from before its clock tick until after it
// has replaced the head, so "unlocked, then head unchanged" proves
// every commit that replaces this head locked the variable — and hence
// ticked — after the lock-word load, i.e. after the timestamp the
// caller sampled before validating. The opposite order has a hole: the
// head is loaded while a committer whose tick PRECEDES that sample
// still holds the lock, the committer publishes and unlocks, and the
// lock-word load then sees nothing — the caller moves its read
// timestamp past a commit it has half observed
// (TestOpacityNoTornCommit, whenever q's address sorts before p's, so
// that commits publish q first).
func (e *readEntry) current(self uint64) bool {
	if w := e.v.lw.Load(); isLocked(w) && wordOwner(w) != self {
		return false
	}
	return e.v.head.Load() == e.ver
}

// validateReads checks that every tracked read is still current.
func (tx *Txn) validateReads() bool {
	for i := range tx.rset {
		if !tx.rset[i].current(tx.id) {
			return false
		}
	}
	return true
}

// Write buffers a transactional write of val to v, an untyped variable
// (see NewVar).
func (tx *Txn) Write(v *Var, val any) error {
	return tx.WriteVersion(v, boxed(val))
}

// WriteVersion buffers a transactional write to v of the value held by
// rec, a fresh record the caller allocated in v's shape (see Version and
// InitVar): if the attempt commits, rec itself becomes v's head. A later
// write to v in the same transaction replaces it, and an aborted attempt
// drops it.
func (tx *Txn) WriteVersion(v *Var, rec *Version) error {
	if err := tx.checkLive(); err != nil {
		return err
	}
	// A variable of another engine is refused here when its word shows
	// it; one that another transaction holds is refused by lockForCommit,
	// so that an optimistic write never waits. An irrevocable write waits
	// the lock out: the gate leaves only a foreign committer to hold it.
	if w := v.lw.Load(); w != tx.word {
		if tx.sem == SemanticsIrrevocable {
			if err := tx.waitUnlocked(v); err != nil {
				return err
			}
		} else if tx.foreign(w) {
			return tx.crossEngine()
		}
	}
	tx.stat(statWrites)

	switch tx.effective() {
	case SemanticsSnapshot:
		tx.abortCleanup()
		return tx.opError(ErrSnapshotWrite, "write in read-only snapshot")
	case SemanticsWeak:
		// From the first write on, the elastic transaction behaves
		// monomorphically: its current consistency window anchors the
		// write's critical step and is validated at commit.
		tx.written = true
	}

	if i := tx.findWrite(v); i >= 0 {
		tx.wset[i].rec = rec
		return nil
	}
	tx.wset = append(tx.wset, writeEntry{v: v, rec: rec})
	tx.noteWrite(len(tx.wset) - 1)
	return nil
}

// Abort aborts the transaction explicitly. It is idempotent on a
// finished transaction.
func (tx *Txn) Abort() {
	if tx.status.Load() != statusActive {
		return
	}
	tx.abortCleanup()
}

// abortCleanup releases resources and marks the transaction aborted.
func (tx *Txn) abortCleanup() {
	// Release commit-time locks: every one was taken from the engine's
	// word, which is what an unlocked variable holds.
	for i := range tx.wset {
		if tx.wset[i].locked {
			tx.wset[i].v.lw.Store(tx.word)
			tx.wset[i].locked = false
		}
	}
	tx.finish(statusAborted)
}

// Commit attempts to commit. On success all buffered writes become
// visible atomically at a fresh commit timestamp. On conflict the
// transaction is aborted and a retryable error returned.
func (tx *Txn) Commit() error {
	if tx.status.Load() != statusActive {
		return tx.opError(ErrTxnDone, "finished handle")
	}
	if tx.isKilled() {
		tx.stat(statKills)
		tx.abortCleanup()
		return tx.abortKilled()
	}

	if tx.sem == SemanticsIrrevocable {
		tx.commitIrrevocable()
		return nil
	}

	// Read-only transactions were validated incrementally (def: all
	// reads consistent at rv; weak: every window pairwise-consistent;
	// snapshot: reads resolved at the start timestamp) and commit
	// without further work.
	if len(tx.wset) == 0 {
		tx.finish(statusCommitted)
		return nil
	}

	// About to take locks: become resolvable as a lock owner first, once
	// no irrevocable transaction holds the gate.
	if err := tx.passGate(); err != nil {
		return err
	}

	// Acquire commit-time locks in variable-id (address) order, which is
	// deadlock-free. slices.SortFunc, unlike sort.Slice, costs no
	// allocation.
	slices.SortFunc(tx.wset, func(a, b writeEntry) int {
		return cmp.Compare(a.v.ID(), b.v.ID())
	})
	// The sort invalidates a spilled wtab, and that is fine: the engine
	// performs no write-set lookups after this point, and the next
	// lifecycle rebuilds the table from scratch when (if) its write set
	// crosses the spill threshold again.
	for i := range tx.wset {
		if err := tx.lockForCommit(&tx.wset[i]); err != nil {
			return err
		}
	}

	wv := tx.eng.clock.Tick()

	// TL2 fast path: if nothing committed since we started, reads are
	// trivially valid.
	if wv != tx.rv+1 {
		if !tx.validateReads() {
			tx.stat(statValidateAbort)
			tx.abortCleanup()
			return tx.abortConflict("commit validation", 0)
		}
	}

	tx.publish(wv)
	tx.finish(statusCommitted)
	return nil
}

// lockForCommit acquires one commit lock, driving the contention manager
// on conflict. It takes the lock only from the engine's own word, so the
// CAS itself proves the variable ours; a word that proves it another
// engine's (foreign) fails the attempt, before or after a wait on a held
// lock. While another engine's attempt holds it, its id may name one of
// ours to the contention manager: the misuse costs that attempt a retry
// at worst.
func (tx *Txn) lockForCommit(e *writeEntry) error {
	for attempt := 0; ; attempt++ {
		if err := tx.interrupted(); err != nil {
			return err
		}
		w := e.v.lw.Load()
		if w == tx.word {
			if e.v.lw.CompareAndSwap(w, packOwner(tx.id)) {
				e.locked = true
				return nil
			}
			continue // taken between load and CAS; look again
		}
		if tx.foreign(w) {
			return tx.crossEngine()
		}
		owner := wordOwner(w)
		enemy := tx.eng.live.lookup(owner)
		switch tx.cm.OnLockBusy(tx, enemy, attempt) {
		case ResolutionAbortSelf:
			tx.stat(statLockAborts)
			tx.abortCleanup()
			return tx.abortConflict("lock busy", e.v.ID())
		case ResolutionKillEnemy:
			if enemy != nil {
				enemy.kill(owner)
			}
			runtime.Gosched()
		case ResolutionRetryLock:
			runtime.Gosched()
		}
	}
}

// publish installs all buffered writes at commit timestamp wv and
// releases the locks. The overwritten head is preserved on the version
// chain, trimmed to what live snapshot readers may still need, and a
// variable that kept any is owed to the shell's stripe, which the
// commit then drains.
func (tx *Txn) publish(wv uint64) {
	needed := tx.eng.snaps.minActive()
	q := &tx.eng.owed[tx.stripe&tx.eng.stats.mask]
	for i := range tx.wset {
		e := &tx.wset[i]
		kept := e.v.install(e.rec, wv, needed)
		e.v.lw.Store(tx.word)
		e.locked = false
		if kept {
			q.owe(e.v, wv)
		}
	}
	tx.eng.drain(q)
}
