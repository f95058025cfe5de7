package server

import (
	"context"
	"fmt"
	"time"
	"unsafe"

	"polytm/internal/core"
	"polytm/internal/session"
	"polytm/internal/stm"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// The write path. Every transaction that changes a shard's map runs
// through the same four pieces:
//
//   - mutate, the runner: gate entry, the pooled capture, the choice
//     between the request's own semantics and the shard's irrevocable
//     token, and the acknowledgement gates after commit;
//   - keyOp, the GET/SET/CAS/DEL semantics of one key;
//   - applyOp, which applies one operation of the WAL vocabulary to the
//     map and records what it changed through the walCapture;
//   - applyOps, the replayer: a recovered, shipped or copied []wal.Op
//     group as one mutate body over applyOp.
//
// Cross-shard commits (twopc.go) nest one such transaction per shard and
// keep their own protocol in the innermost one, but record through the
// same capture.

// mutOpts are a mutation's real differences from a plain client write.
type mutOpts struct {
	// force takes the shard's token and collects session changes even on
	// an idle volatile store: SETEX (arming the first deadline is what
	// opens the session gate for everyone else) and the reaper (which
	// must emit EventExpire whoever is watching).
	force bool
	// quiet publishes no session events: recovery replays what was
	// already delivered, and a reshard copy or scrub moves or drops keys
	// whose values live on, on another shard. With force it still takes
	// the token.
	quiet bool
	// label names the transaction for the engine's observer.
	label string
}

// mutate runs body as one mutating transaction on sh. When the mutation
// has side effects to order — durability, live watches, armed TTL
// deadlines, a reshard's dirty tracking — it runs under the shard's
// irrevocable token, even over an explicit weaker override: both the
// log and the session notifier need a total order matching commit
// order, the token is that order, and it guarantees a reserved record's
// (and slot's) transaction commits. The acknowledgement then waits for
// the record to be durable, for its events to be delivered, and (sync-
// ack replication) for a follower ack covering it — here, unless ctx is
// a connection's, which holds the gate until it next writes (gate.go).
// Otherwise body runs under sem with nothing recorded.
//
// Cross-shard commits go through twopc.go, not here — they
// acknowledge on local durability only; see the replication doc.
func (s *Store) mutate(ctx context.Context, sh *shard, sem core.Semantics, o mutOpts, body func(tx *core.Tx, cp *walCapture) error) error {
	g := s.grace.enter()
	defer s.grace.exit(g)
	cp := sh.caps.Get().(*walCapture)
	defer sh.caps.Put(cp)
	// The reservation is the body's final step: nothing after it can
	// abort the transaction (irrevocable commit cannot fail), and nothing
	// before it has fixed the order. (The engine never retains the
	// closure, so it lives on this stack frame.)
	run := func(tx *core.Tx) error {
		cp.begin()
		if err := body(tx, cp); err != nil {
			return err
		}
		// Recovery and reshard copies (quiet) move records that were
		// logged already; only new writes are held to what replicates.
		if !o.quiet {
			if err := cp.fits(0); err != nil {
				return err
			}
		}
		cp.reserve()
		return nil
	}
	if !cp.reset(o) {
		return sh.tm.AtomicAsCtx(ctx, sem, run)
	}
	err := sh.tm.AtomicCtx(ctx, run, core.WithSemantics(core.Irrevocable), core.WithObserver(cp), core.WithLabel(o.label))
	if err != nil || !(cp.logged || cp.slotUsed) {
		return err
	}
	if g, ok := ctx.(*connGate); ok {
		g.hold(cp.ackPos)
		return nil
	}
	return cp.close(ctx)
}

// walCapture carries one mutation's side effects from the transaction
// body to the systems that consume them after commit: the shard's
// write-ahead log (durable stores), its dirty sets (the incremental
// checkpointer's and a running reshard's) and its session notifier
// (watch events + TTL effects, when any session state is live). Log and
// notifier follow the same two-phase protocol (see wal.Log and
// session.Notifier):
//
//   - the transaction body builds the WAL record into buf, collects
//     session changes, and reserves both while the body is still
//     running — under the shard's irrevocable token, so reservation
//     order is exactly commit order;
//   - the capture is also the transaction's stm.Observer: OnCommit
//     confirms the reservations, OnAbort tombstones them. A record or
//     event can therefore never outlive an aborted transaction.
//
// Captures are pooled per shard; one capture serves one mutate call or
// one cross-shard participant.
type walCapture struct {
	ackPos              // the shard, and what this execution reserved on it
	next   stm.Observer // the engine-wide observer, still owed its events

	buf      []byte
	ctl      []byte // scratch for a cross-shard commit's control records (see control)
	reserved bool   // log reservation outstanding, awaiting OnCommit/OnAbort

	track   bool             // collect session changes this execution
	changes []session.Change // the collected changes, in mutation order
	slotRes bool             // slot reservation outstanding
}

// reset readies a pooled capture for one execution, resolving the
// session gate for it — changes are collected only when a watch is
// live or the shard has armed TTL deadlines — and reports whether the
// mutation has anything to order, i.e. must hold the shard's token.
func (c *walCapture) reset(o mutOpts) bool {
	sh := c.sh
	c.begin()
	c.ackPos = ackPos{sh: sh}
	c.reserved, c.slotRes = false, false
	c.track = !o.quiet && (o.force || sh.sess.ActiveWatches() > 0 || sh.ttl.Len() > 0)
	return o.force || c.track || sh.wal != nil || sh.resharding.Load()
}

// begin readies the capture for one attempt of the transaction body: a
// re-executed body (which cannot happen under the token, but costs
// nothing to tolerate) rebuilds its record from scratch.
func (c *walCapture) begin() {
	c.buf = c.buf[:0]
	c.changes = c.changes[:0]
}

// reserve queues the built record (if any) at the log's next position
// and the collected changes (if any) at the notifier's. A mutation that
// changed nothing — a CAS mismatch, a DEL of a missing key — built
// nothing and reserves nothing.
func (c *walCapture) reserve() {
	if len(c.buf) > 0 && c.sh.wal != nil {
		c.seq = c.sh.wal.Reserve(c.buf)
		c.reserved = true
		c.logged = true
	}
	c.reserveSlot()
}

// fits refuses, on a durable shard, a record no follower could receive:
// one that with head more bytes of framing (a PREPARE's) cannot ship
// alone in a WAL-BATCH frame. Logged, it would be acknowledged here
// and wedge every feed that tried to ship it.
func (c *walCapture) fits(head int) error {
	if c.sh.wal != nil && wire.ReplRecSize(head+len(c.buf)) > wire.MaxReplBatch {
		return fmt.Errorf("server: a %d-byte WAL record cannot replicate: %w", len(c.buf), wire.ErrFrameTooLarge)
	}
	return nil
}

// prepare is reserve for a cross-shard participant: the built record (if
// any) is queued framed as a PREPARE, and the coordinator's decision,
// not this transaction's commit, resolves it. It reports whether a
// PREPARE was queued; wait() then blocks until it is durable — a vote
// only counts once it cannot be lost. The frame wraps buf, so it is
// built in the capture's second scratch buffer.
func (c *walCapture) prepare(epoch uint64, coord int) bool {
	if len(c.buf) == 0 || c.sh.wal == nil {
		return false
	}
	c.control(wal.AppendPrepare(c.ctl[:0], epoch, coord, c.buf))
	return true
}

// control queues rec — a 2PC control record, built on c.ctl — on the
// shard's log as already committed: the protocol, not the enclosing
// transaction, decides its fate. wait() then blocks on it.
func (c *walCapture) control(rec []byte) {
	c.ctl = rec
	c.seq = c.sh.wal.Reserve(rec)
	c.sh.wal.Commit(c.seq)
	c.logged = true
}

// reserveSlot takes the next notifier slot for the collected changes,
// if there are any.
func (c *walCapture) reserveSlot() {
	if len(c.changes) > 0 {
		c.slot = c.sh.notif.Reserve()
		c.slotRes = true
		c.slotUsed = true
	}
}

// OnCommit / OnAbort / OnWait implement stm.Observer. A per-
// transaction observer REPLACES the engine-wide one, so the capture
// forwards every event to the observer the TM was configured with —
// enabling durability must not silently cut the write path out of an
// operator's metrics.
func (c *walCapture) OnCommit(ev stm.TxnEvent) {
	if c.reserved {
		c.sh.wal.Commit(c.seq)
		c.reserved = false
	}
	if c.slotRes {
		c.sh.notif.Commit(c.slot, c.changes)
		c.slotRes = false
	}
	if c.next != nil {
		c.next.OnCommit(ev)
	}
}

func (c *walCapture) OnAbort(ev stm.TxnEvent) {
	if c.reserved {
		c.sh.wal.Cancel(c.seq)
		c.reserved = false
		c.logged = false
	}
	if c.slotRes {
		c.sh.notif.Cancel(c.slot)
		c.slotRes = false
		c.slotUsed = false
	}
	if c.next != nil {
		c.next.OnAbort(ev)
	}
}

func (c *walCapture) OnWait(ev stm.TxnEvent) {
	if c.next != nil {
		c.next.OnWait(ev)
	}
}

// touched records that key changed: into the checkpointer's dirty set
// (durable stores), a running reshard's, and — when this execution
// tracks session changes — as ch. A SET's key is the map's own (see
// PutBytesTx), so remembering it costs no clone. A DEL's aliases the
// node it unlinked, and holding it would hold that node, its value and,
// along its links, every node deleted after it: when anything keeps it,
// it is copied once.
func (c *walCapture) touched(key string, ch session.Change) {
	sh, resharding := c.sh, c.sh.resharding.Load()
	if ch.Op != wire.EventSet && (sh.wal != nil || resharding || c.track) {
		key = string(viewBytes(key))
	}
	if sh.wal != nil {
		sh.dirty.mark(key)
	}
	if resharding {
		sh.rdirty.mark(key)
	}
	if c.track {
		ch.Key = key
		c.changes = append(c.changes, ch)
	}
}

// effect is what a recorded SET or DEL means to the session side beyond
// its WAL form. The record is identical whatever it says: TTL never
// persists or replicates, only the reaper's eventual delete does.
type effect struct {
	// ttl > 0 arms a deadline (SETEX); 0 disarms any existing one (a
	// plain SET means "no expiry") unless keepTTL leaves it ticking
	// (INCR/DECR: touching a counter neither re-arms nor disarms it).
	ttl     time.Duration
	keepTTL bool
	// expire marks a DEL as the reaper's: logged and replicated as an
	// ordinary delete (recovery and followers converge without ever
	// re-deciding expiry), surfaced to watchers as EventExpire.
	expire bool
}

// applyOp applies one operation of the WAL vocabulary to sh inside tx
// and records what it changed through cp: the redo record, the dirty
// sets, the session change. It is the only place the map is written and
// the only place a side effect is recorded, so every writer — client
// request, TXN sub-op, cross-shard participant, reaper, replay — leaves
// the same trail. key and val are both borrowed (see lookupKey): the map
// copies a key it inserts into the new node and the value's version
// record stores its own copy of val. It returns how many entries the
// operation touched: a DEL of a missing key touches none and records
// nothing.
func (sh *shard) applyOp(tx *core.Tx, cp *walCapture, kind wal.OpKind, key, val []byte, eff effect) (int, error) {
	logs := sh.wal != nil
	switch kind {
	case wal.OpSet:
		stored, _, err := sh.m.PutBytesTx(tx, lookupKey(key), val)
		if err != nil {
			return 0, err
		}
		if logs {
			cp.buf = wal.AppendSet(cp.buf, key, val)
		}
		cp.touched(stored, session.Change{Op: wire.EventSet, TTL: eff.ttl, KeepTTL: eff.keepTTL})
		return 1, nil
	case wal.OpDel:
		stored, removed, err := sh.m.DeleteTx(tx, lookupKey(key))
		if err != nil || !removed {
			return 0, err
		}
		if logs {
			cp.buf = wal.AppendDel(cp.buf, key)
		}
		ev := wire.EventDel
		if eff.expire {
			ev = wire.EventExpire
		}
		cp.touched(stored, session.Change{Op: ev})
		return 1, nil
	case wal.OpFlush:
		n, err := sh.m.ClearTx(tx)
		if err != nil {
			return 0, err
		}
		// A clear cannot be expressed per key: it forces the next
		// checkpoint to a full base (see dirtySet) and tells a running
		// reshard that everything it shipped so far is void (see the
		// delta loop in reshard.go).
		if logs {
			cp.buf = wal.AppendFlush(cp.buf)
			sh.dirty.markFull()
		}
		if sh.resharding.Load() {
			sh.rdirty.markFull()
		}
		// Every shard's change clears its own TTL table; only shard 0's
		// delivery publishes the one FLUSH event watchers see (see
		// applyChanges).
		if cp.track {
			cp.changes = append(cp.changes, session.Change{Op: wire.EventFlush})
		}
		return n, nil
	}
	return 0, fmt.Errorf("server: unknown wal op kind %v", kind)
}

// applyOps replays one record — one atomic operation group, exactly as
// the original mutation committed — into sh as a single mutation. It
// serves recovery and reshard copies (quiet), and a follower's shipped
// records.
func (s *Store) applyOps(ctx context.Context, sh *shard, ops []wal.Op, o mutOpts) error {
	return s.mutate(ctx, sh, core.Def, o, func(tx *core.Tx, cp *walCapture) error {
		for _, op := range ops {
			if _, err := sh.applyOp(tx, cp, op.Kind, viewBytes(op.Key), viewBytes(op.Val), effect{}); err != nil {
				return err
			}
		}
		return nil
	})
}

// live reads key inside tx under the lazy-expiry rule: an entry past
// its armed deadline reads as absent even before the reaper's delete
// lands (the reaper is the only thing that removes it — reads never
// write).
func (sh *shard) live(tx *core.Tx, key []byte) (string, bool, error) {
	v, ok, err := sh.m.GetTx(tx, lookupKey(key))
	if err != nil || !ok || sh.expiredNow(key) {
		return "", false, err
	}
	return v, true, nil
}

// keyOp runs one GET, SET, CAS or DEL on key against sh inside tx,
// filling out — the single-key requests, each TXN sub-operation (on one
// shard or as a cross-shard participant's share) and each MGET key. cp
// records the writes; a read-only caller passes nil.
//
// Mismatches and misses are outcomes, not failures: they return nil
// with out's status set, write nothing and record nothing, so the
// transaction commits read-only and wire-level CAS misses never inflate
// the engine's abort counters.
//
// Routing races with a reshard cutover (see errMovedKey): a write to a
// key the shard no longer owns aborts before touching anything; a read
// that misses on such a shard is not an answer either — the value may
// live on the new owner, and the split's scrub may already have removed
// the moved half here.
func (s *Store) keyOp(tx *core.Tx, sh *shard, cp *walCapture, op wire.Op, key, old, val []byte, out *wire.Response) error {
	// A retried body may have half-filled the slot on its first attempt.
	out.Status = wire.StatusOK
	out.Val = out.Val[:0]
	if op != wire.OpGet && !s.ownsKey(sh, key) {
		return errMovedKey
	}
	switch op {
	case wire.OpGet:
		v, ok, err := sh.live(tx, key)
		if err != nil {
			return err
		}
		if !ok {
			if !s.ownsKey(sh, key) {
				return errMovedKey
			}
			out.Status = wire.StatusNotFound
			return nil
		}
		out.Val = append(out.Val, v...)
	case wire.OpSet:
		_, err := sh.applyOp(tx, cp, wal.OpSet, key, val, effect{})
		return err
	case wire.OpCAS:
		cur, ok, err := sh.live(tx, key)
		if err != nil {
			return err
		}
		if !ok {
			out.Status = wire.StatusNotFound
			return nil
		}
		if cur != lookupKey(old) {
			out.Status = wire.StatusCASMismatch
			out.Val = append(out.Val, cur...)
			return nil
		}
		_, err = sh.applyOp(tx, cp, wal.OpSet, key, val, effect{})
		return err
	case wire.OpDel:
		// An expired entry is absent to DEL too; its physical removal
		// stays with the reaper so expiry reaches the WAL (and every
		// follower) exactly once, as the reaper's delete.
		if sh.expiredNow(key) {
			out.Status = wire.StatusNotFound
			return nil
		}
		n, err := sh.applyOp(tx, cp, wal.OpDel, key, nil, effect{})
		if err != nil {
			return err
		}
		if n == 0 {
			out.Status = wire.StatusNotFound
		}
	default:
		return wire.ErrBadSubOp
	}
	return nil
}

// viewBytes views a string as bytes without copying — lookupKey's
// inverse, for handing replayed keys and values to code that only reads
// them (applyOp borrows both).
func viewBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}
