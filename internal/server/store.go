package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"polytm/internal/core"
	"polytm/internal/repl"
	"polytm/internal/session"
	"polytm/internal/stm"
	"polytm/internal/structures"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// DefaultSemantics is the server's per-request-class semantics mapping —
// the subsystem's rendition of the paper's start(p). Each wire opcode is
// a request class, and each class gets the weakest semantics that still
// carries its correctness requirement:
//
//   - GET/MGET run as snapshot transactions: point reads need a
//     consistent committed value but tolerate slight staleness, and the
//     multi-versioned read path never aborts and never blocks writers —
//     the ideal profile for read-dominated KV traffic.
//   - SCAN runs elastically (weak): a range scan is a search traversal;
//     consecutive hops must be mutually consistent but the window may
//     slide past concurrent inserts elsewhere in the range, exactly like
//     the paper's elastic list search.
//   - SET/CAS/DEL/TXN run under def: updates relink skip-list towers and
//     read-modify-write values, which need full opacity.
//   - FLUSH (admin) runs irrevocably: a whole-store operation would
//     starve under optimistic retry against heavy traffic, so it takes
//     the guaranteed-commit semantics and serializes.
//
// A request may override its class's mapping with an explicit semantics
// byte in the frame header.
func DefaultSemantics(op wire.Op) core.Semantics {
	switch op {
	case wire.OpGet, wire.OpMGet:
		return core.Snapshot
	case wire.OpScan:
		return core.Weak
	case wire.OpFlush:
		return core.Irrevocable
	default: // OpSet, OpCAS, OpDel, OpTxn, OpStats
		return core.Def
	}
}

// resolveSemantics applies a request's semantics byte over the class
// default. Validation lives in wire.Semantics — the one place the byte
// range is checked — so requests that bypass the wire decoder (tests,
// in-process embedding) are rejected identically to decoded ones.
//
// A hand-built frame can ask for any combination, including snapshot
// (read-only) semantics on a write opcode; the engine would reject the
// write mid-transaction (stm.ErrSnapshotWrite), but only after a
// transaction has started and begun its attempt. The protocol layer
// knows the combination is nonsense from the header alone, so it is
// rejected here — before any transaction starts — with the typed
// *wire.SnapshotWriteError.
func resolveSemantics(req *wire.Request) (core.Semantics, error) {
	sem, err := wire.Semantics(req.Sem, DefaultSemantics(req.Op))
	if err != nil {
		return 0, err
	}
	if sem == core.Snapshot && req.Op.Mutates() {
		return 0, &wire.SnapshotWriteError{Op: req.Op}
	}
	return sem, nil
}

// shard is one hash partition of the keyspace: its own polymorphic TM
// (so its irrevocable token serializes only this shard's durable
// writes), its own skip map, and — when durable — its own write-ahead
// log. Nothing is shared between shards except the Store's routing
// table and the cross-shard commit protocol.
type shard struct {
	// idx is the shard's STABLE id: assigned once (at construction or
	// when a split creates the shard), persisted in the MANIFEST, and
	// never reused. It names the shard in 2PC coordinator records,
	// STATS rows, and admin ops — unlike the shard's position in the
	// routing table, which shifts as shards split and merge.
	idx int
	tm  *core.TM
	m   *structures.TSkipMap

	// The shard's hash slice lives in the routing table (hashSlice),
	// not here: tables are immutable and a cutover publishes the new
	// slice only with the new table.

	// resharding is the split/merge capture gate: while set, every
	// mutation on this shard runs under the irrevocable token and marks
	// rdirty, so the copy protocol's delta rounds see exactly the keys
	// that changed since its snapshot. rdirty reuses the incremental-
	// checkpoint dirty-set machinery, but tracks a different consumer.
	// ckptHold additionally pauses the shard's checkpoints — a rotation
	// between a RESHARD BEGIN and its COMMIT could truncate the journal
	// record recovery needs.
	resharding atomic.Bool
	ckptHold   atomic.Bool
	rdirty     dirtySet

	// Session wiring (see internal/session and applyChanges): sess is
	// the store-wide watch registry, notif orders this shard's
	// committed changes for delivery, ttl holds its armed expiry
	// deadlines.
	sess  *session.Registry
	notif *session.Notifier
	ttl   ttlTable

	wal *wal.Log
	// walName is the shard's log directory relative to the store's WAL
	// root ("." = the root itself; "" when not durable) — what the
	// MANIFEST records and a retiring merge removes.
	walName string
	caps    sync.Pool // *walCapture, wired at store construction

	// dirty tracks the keys mutated since the last checkpoint cut — the
	// incremental checkpointer's working set; ckptMu serializes cuts so
	// one policy decision pairs with one installed file.
	dirty  dirtySet
	ckptMu sync.Mutex

	// hub is the store's replication hub slot, set while a primary
	// serves feeds: the ack gate's sync-ack wait (see ackPos.close).
	hub *atomic.Pointer[repl.Hub]

	routed atomic.Uint64 // operations routed here (STATS distribution row)
}

// Store is the server's keyspace: an ordered transactional map
// hash-partitioned across one or more shards. Single-key requests
// route to exactly one shard by key hash; MGET and SCAN fan out and
// merge; a TXN whose keys span shards — and FLUSH, which spans all of
// them — commit through the cross-shard protocol in twopc.go.
// All transaction-semantics policy lives in the request execution
// path, not in the structure.
//
// A durable store (EnableDurability) additionally owns one write-ahead
// log per shard: every mutating request runs as an irrevocable
// transaction on its shard that reserves its log record under that
// shard's irrevocable token, and is acknowledged only once the record
// is durable.
type Store struct {
	// table is the current routing epoch: the shards in table order
	// with their hash slices, immutable once published. Every request
	// snapshots it once (tab) and works against that one view; a
	// SPLIT/MERGE publishes a successor with the epoch incremented.
	table atomic.Pointer[routingTable]

	// Reshard machinery: reshardMu serializes SPLIT/MERGE (and guards
	// nextID, the next stable shard id); grace fences the capture-gate
	// flip (see graceGate); the counters feed STATS.
	reshardMu     sync.Mutex
	nextID        int
	grace         graceGate
	reshardSplits atomic.Uint64
	reshardMerges atomic.Uint64
	retired       atomic.Pointer[retirement] // what retired shards leave to STATS (see retire)

	// mkTM builds the engine of every shard the store adds after
	// construction: a SPLIT's, an adopted topology's, a reshard roll-
	// forward's, a recovered MANIFEST's. server.New sets it to the
	// constructor its initial shards came from; the default uses the
	// engine's own defaults.
	mkTM func() *core.TM

	// epoch numbers cross-shard transactions; durable stores persist it
	// through control records and resume past the recovered maximum.
	epoch atomic.Uint64

	xshardTxns   atomic.Uint64 // cross-shard commits attempted
	xshardAborts atomic.Uint64 // cross-shard commits that aborted

	// Replication (see replication.go). A follower rejects every
	// mutating request before any transaction starts; primaryAddr rides
	// the rejection so clients can redirect. At most one of hub (a
	// primary serving feeds) and follower (the link to a primary) is
	// set; the server installs and removes them.
	role        atomic.Int32
	failovers   atomic.Uint64
	primaryAddr atomic.Pointer[string]
	hub         atomic.Pointer[repl.Hub]
	follower    atomic.Pointer[repl.Follower]

	// Session subsystem (see internal/session): the watch registry all
	// shards publish through, plus the STATS counters the wire reports.
	sessions    *session.Registry
	keysExpired atomic.Uint64 // keys the reaper durably deleted
	incrOps     atomic.Uint64 // INCR/DECR operations served

	// The background loops: the TTL reaper (StartTTLReaper /
	// StopTTLReaper) and the checkpointer (EnableDurability /
	// CloseDurability).
	reaper, ckpt loop

	diag func(format string, args ...any) // diagnostics sink (see logf)

	// Incremental-checkpoint policy (EnableDurability resolves the
	// defaults) and the process incarnation scoping this lifetime's WAL
	// seqs for replication delta catch-up (see CatchUp).
	ckptMaxChain int
	ckptRatio    float64
	incarnation  uint64

	// Durable-store layout, kept so a SPLIT can open the new shard's log
	// with the same options under the same root (empty when not durable).
	walDir  string
	walOpts wal.Options
}

// NewStore creates an empty single-shard store on tm.
func NewStore(tm *core.TM) *Store {
	return NewShardedStore([]*core.TM{tm})
}

// NewShardedStore creates an empty store with one shard per TM. Shard
// i starts with stable id i and hash slice (N, i) — the historical
// h % N routing — at routing epoch 0. The count sizes a store that
// starts empty; EnableDurability replaces it with the table a
// directory's MANIFEST pins, and a follower with its primary's.
func NewShardedStore(tms []*core.TM) *Store {
	if len(tms) == 0 {
		panic("server: store needs at least one shard")
	}
	s := &Store{sessions: session.NewRegistry()}
	s.mkTM = func() *core.TM { return core.New(core.Config{}) }
	s.retired.Store(new(retirement))
	shards := make([]*shard, len(tms))
	slices := make([]hashSlice, len(tms))
	for i, tm := range tms {
		shards[i] = s.newShard(i, tm)
		slices[i] = hashSlice{mod: uint64(len(tms)), res: uint64(i)}
	}
	s.nextID = len(tms)
	s.table.Store(newRoutingTable(0, shards, slices))
	return s
}

// newShard wires one shard: engine, skip map, session plumbing. The
// capture pool closes over the shard, so a pool is per-shard by
// construction.
func (s *Store) newShard(id int, tm *core.TM) *shard {
	sh := &shard{idx: id, tm: tm, m: structures.NewTSkipMap(tm), sess: s.sessions, hub: &s.hub}
	sh.notif = session.NewNotifier(func(cs []session.Change) { s.applyChanges(sh, cs) })
	sh.caps.New = func() any { return &walCapture{ackPos: ackPos{sh: sh}, next: sh.tm.Engine().Observer()} }
	return sh
}

// logf emits a diagnostic to the store's sink, when it has one.
func (s *Store) logf(format string, args ...any) {
	if s.diag != nil {
		s.diag(format, args...)
	}
}

// loop is one background goroutine the store owns, stopped through its
// context.
type loop struct {
	cancel context.CancelFunc // nil while the loop is not running
	done   chan struct{}
}

// start runs pass every `every` until stop. pass gets the loop's
// context: one that should end with the loop passes it on.
func (l *loop) start(every time.Duration, pass func(ctx context.Context)) {
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel, l.done = cancel, make(chan struct{})
	go func() {
		defer close(l.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				pass(ctx)
			}
		}
	}()
}

// stop cancels the loop's context and waits for the pass in flight, if
// any, to return.
func (l *loop) stop() {
	if l.cancel != nil {
		l.cancel()
		<-l.done
		*l = loop{}
	}
}

// tab snapshots the current routing table. All multi-step work —
// fan-outs, cross-shard groups, stats — runs against ONE snapshot so
// a concurrent reshard cannot split a request across two epochs.
func (s *Store) tab() *routingTable { return s.table.Load() }

// RoutingEpoch returns the current routing epoch (0 until the first
// completed SPLIT/MERGE).
func (s *Store) RoutingEpoch() uint64 { return s.tab().epoch }

// Sessions returns the store's watch registry (the server's session
// connections register through it).
func (s *Store) Sessions() *session.Registry { return s.sessions }

// applyChanges is shard sh's notifier deliver callback: it runs with
// committed changes strictly in sh's commit order (serialized under
// the notifier). Each change first lands its TTL effect on the shard's
// table, then fans out to the watch sessions. A FLUSH drops every
// deadline on the shard; to keep a multi-shard FLUSH from showing up
// N times, only shard 0 — a participant of every flush — publishes the
// event.
func (s *Store) applyChanges(sh *shard, cs []session.Change) {
	for i := range cs {
		ch := &cs[i]
		switch ch.Op {
		case wire.EventFlush:
			sh.ttl.clearAll()
			if sh.idx != 0 {
				continue
			}
		case wire.EventSet:
			switch {
			case ch.TTL > 0:
				sh.ttl.set(ch.Key, nowNanos()+int64(ch.TTL))
			case !ch.KeepTTL:
				sh.ttl.clear(ch.Key)
			}
		case wire.EventDel, wire.EventExpire:
			sh.ttl.clear(ch.Key)
		}
		s.sessions.Publish(ch.Op, ch.Key)
	}
}

// expiredNow reports whether key is past an armed deadline on sh —
// the read paths' lazy-expiry check. The Len gate keeps TTL-free
// stores at one atomic load.
func (sh *shard) expiredNow(key []byte) bool {
	if sh.ttl.Len() == 0 {
		return false
	}
	return sh.ttl.expired(lookupKey(key), nowNanos())
}

// TM returns the first shard's transactional memory (stats, tests;
// see Store.Stats for the all-shards aggregate).
func (s *Store) TM() *core.TM { return s.tab().shards[0].tm }

// NumShards returns the store's current shard count.
func (s *Store) NumShards() int { return len(s.tab().shards) }

// Stats sums the engine counters of every shard in the table and of
// every shard retired from it.
func (s *Store) Stats() stm.StatsSnapshot { return stm.StatsOf(s.engines()...) }

// ResetStats zeroes the counters of every engine Stats sums.
func (s *Store) ResetStats() {
	for _, e := range s.engines() {
		e.ResetStats()
	}
}

// engines lists every engine whose counters STATS reports: the retired
// shards' and the table's.
func (s *Store) engines() []*stm.Engine {
	engs := slices.Clone(s.retired.Load().engines)
	for _, sh := range s.tab().shards {
		engs = append(engs, sh.tm.Engine())
	}
	return engs
}

// route returns the shard owning key under the current table, counting
// the routing decision.
func (s *Store) route(key []byte) *shard {
	sh := s.tab().shardFor(hashKey(key))
	sh.routed.Add(1)
	return sh
}

// errMovedKey is the internal retry signal for a request that raced a
// reshard cutover: it routed through the pre-cutover table, but by the
// time its transaction body ran (a write: serialized behind the cutover
// barrier on the frozen shard's token) the key's owner had changed. The
// body aborts with this sentinel — a write before writing anything, a
// read instead of reporting a miss (see keyOp) — and ExecuteCtx
// re-routes through the published table: the caller never sees a
// failure, only the bounded barrier latency.
var errMovedKey = errors.New("server: key moved by concurrent reshard")

// ownsKey re-checks, inside a transaction body, that sh still owns key
// under the CURRENT table. Free until the first reshard (epoch 0 means
// routing can never have changed).
func (s *Store) ownsKey(sh *shard, key []byte) bool {
	t := s.tab()
	if t.epoch == 0 {
		return true
	}
	return t.shardFor(hashKey(key)) == sh
}

// Execute runs one decoded request against the store and returns its
// response. It never returns an error: failures become StatusErr
// responses so the connection's pipeline keeps its 1:1 ordering.
func (s *Store) Execute(req *wire.Request) *wire.Response {
	resp := new(wire.Response)
	s.ExecuteCtx(context.Background(), req, resp)
	return resp
}

// ExecuteInto is Execute writing into a caller-owned response, reusing
// its slice storage (value buffer, scan pairs, sub-responses, counter
// list) — the execution path of a connection loop that keeps one
// Response per connection. The previous contents of resp are
// discarded; the filled resp is valid until the next ExecuteInto on it.
func (s *Store) ExecuteInto(req *wire.Request, resp *wire.Response) {
	s.ExecuteCtx(context.Background(), req, resp)
}

// ExecuteCtx is ExecuteInto bounded by a request-scoped context: the
// server derives one per connection — cancelled when the connection's
// handler exits and on forced drain — so an abandoned request's
// transaction stops retrying instead of running to completion for
// nobody. A cancelled transaction surfaces as a StatusErr response
// matching stm.ErrCancelled. (Cross-shard commits are the exception:
// once begun they ignore cancellation, mirroring the irrevocable
// contract they ride.)
func (s *Store) ExecuteCtx(ctx context.Context, req *wire.Request, resp *wire.Response) {
	// A request that raced a reshard cutover aborts with errMovedKey
	// before writing or answering anything; re-dispatching routes it
	// through the published table. Bounded: each retry needs another cutover to
	// land inside the request's own window, and reshards serialize.
	err := s.executeOnce(ctx, req, resp)
	for attempt := 0; attempt < 3 && errors.Is(err, errMovedKey); attempt++ {
		err = s.executeOnce(ctx, req, resp)
	}
	if err != nil {
		errInto(resp, err)
	}
}

// executeOnce dispatches req to its handler. A handler fills resp with
// its outcome — OK unless it says otherwise — or returns the error that
// stopped it; turning that error into a reply is ExecuteCtx's job alone.
func (s *Store) executeOnce(ctx context.Context, req *wire.Request, resp *wire.Response) error {
	resetResponse(resp)
	// The follower role gate runs before semantics resolution and before
	// any routing: a mutating request on a follower gets exactly one
	// clean StatusErr carrying the primary's address, with zero engine
	// transactions started.
	if req.Op.Mutates() && Role(s.role.Load()) == RoleFollower {
		return &wire.NotPrimaryError{Primary: s.PrimaryAddr()}
	}
	sem, err := resolveSemantics(req)
	if err != nil {
		return err
	}
	switch req.Op {
	case wire.OpGet:
		return s.get(ctx, s.route(req.Key), req.Key, sem, resp)
	case wire.OpSet, wire.OpCAS, wire.OpDel:
		return s.write(ctx, s.route(req.Key), req, sem, resp)
	case wire.OpScan:
		return s.scan(ctx, req.From, req.To, req.Limit, sem, resp)
	case wire.OpMGet:
		return s.mget(ctx, s.tab(), req.Keys, sem, resp)
	case wire.OpTxn:
		return s.txn(ctx, s.tab(), req.Batch, sem, resp)
	case wire.OpIncr:
		return s.incr(ctx, s.route(req.Key), req.Key, req.Delta, false, sem, resp)
	case wire.OpDecr:
		return s.incr(ctx, s.route(req.Key), req.Key, req.Delta, true, sem, resp)
	case wire.OpSetEx:
		return s.setex(ctx, s.route(req.Key), req.Key, req.Val, req.TTLMillis)
	case wire.OpWatch:
		// A watch reaching the execution path means no session-capable
		// connection intercepted it (in-process store, or a server bug):
		// there is nowhere to push events to.
		return &wire.ProtocolError{Code: wire.ProtoBadSession, Detail: "WATCH needs a server connection to push events on"}
	case wire.OpStats:
		s.stats(resp)
	case wire.OpFlush:
		return s.flush(ctx, sem, resp)
	case wire.OpPing:
		// Liveness probe: no transaction, no routing; followers answer
		// too. The response is the health signal.
	case wire.OpSubscribeWAL:
		// A subscribe reaching the execution path means no replication
		// hub intercepted it (server not replication-enabled, or an
		// in-process store with no server at all).
		return errReplicationDisabled
	case wire.OpSplit:
		resp.N, err = s.Split(ctx, req.Epoch, int(req.Shard))
		return err
	case wire.OpMerge:
		resp.N, err = s.Merge(ctx, req.Epoch, int(req.Shard), int(req.Shard2))
		return err
	default:
		return wire.ErrBadOp
	}
	return nil
}

// resetResponse scrubs resp for reuse, truncating (not freeing) its
// slice storage.
func resetResponse(r *wire.Response) {
	r.Status = wire.StatusOK
	r.Val = r.Val[:0]
	r.Pairs = r.Pairs[:0]
	r.Batch = r.Batch[:0]
	r.Counters = r.Counters[:0]
	r.N = 0
	r.Int = 0
	r.Msg = ""
	r.SubOp = 0
}

// errInto makes resp the StatusErr reply for err — the one place an
// error becomes a reply. Scrubbed first: whatever a handler half-filled
// before it failed, an error reply carries its message and nothing else.
func errInto(resp *wire.Response, err error) {
	resetResponse(resp)
	resp.Status = wire.StatusErr
	resp.Msg = err.Error()
}

// lookupKey views a wire key as a string without copying. Safe only
// for operations that compare the key and never retain it: lookups,
// deletes, range bounds, and TSkipMap's puts, whose key is borrowed (an
// insert clones it; an overwrite never stores it).
func lookupKey(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// appendPair appends one scan result to resp.Pairs, reusing the
// entry's key/value storage when the slice has capacity.
func appendPair(resp *wire.Response, k, v string) {
	n := len(resp.Pairs)
	if n < cap(resp.Pairs) {
		resp.Pairs = resp.Pairs[:n+1]
	} else {
		resp.Pairs = append(resp.Pairs, wire.KV{})
	}
	p := &resp.Pairs[n]
	p.Key = append(p.Key[:0], k...)
	p.Val = append(p.Val[:0], v...)
}

// appendSub appends one sub-response slot to resp.Batch, reusing the
// entry's storage when the slice has capacity, and returns it fully
// scrubbed (via resetResponse — every field, not just the ones MGET
// and TXN happen to set: a reused slot carries whatever the previous
// request left in Msg, N, Pairs, Counters and nested Batch, and any
// stale field is a wire leak waiting for the encoder to grow a path
// that reads it).
func appendSub(resp *wire.Response) *wire.Response {
	n := len(resp.Batch)
	if n < cap(resp.Batch) {
		resp.Batch = resp.Batch[:n+1]
	} else {
		resp.Batch = append(resp.Batch, wire.Response{})
	}
	sub := &resp.Batch[n]
	resetResponse(sub)
	return sub
}

func (s *Store) get(ctx context.Context, sh *shard, key []byte, sem core.Semantics, resp *wire.Response) error {
	return sh.tm.AtomicAsCtx(ctx, sem, func(tx *core.Tx) error {
		return s.keyOp(tx, sh, nil, wire.OpGet, key, nil, nil, resp)
	})
}

// write serves SET, CAS and DEL: one key-op as one mutation.
func (s *Store) write(ctx context.Context, sh *shard, req *wire.Request, sem core.Semantics, resp *wire.Response) error {
	return s.mutate(ctx, sh, sem, mutOpts{}, func(tx *core.Tx, cp *walCapture) error {
		return s.keyOp(tx, sh, cp, req.Op, req.Key, req.Old, req.Val, resp)
	})
}

// incr is the server-side counter: one def-class read-modify-write
// round trip, with contention left to the engine's contention manager
// instead of client CAS loops. A missing (or expired) key counts from
// zero; a non-integer value is a clean StatusErr committed read-only
// (like a CAS mismatch, it is an outcome, not an engine failure). The
// new value rides back in resp.Int. Counters keep an armed TTL ticking
// (keepTTL) — touching a counter neither re-arms nor disarms it —
// except when the increment starts from zero: a revived expired entry
// must not inherit the dead deadline.
func (s *Store) incr(ctx context.Context, sh *shard, key []byte, delta uint64, negate bool, sem core.Semantics, resp *wire.Response) error {
	if delta > math.MaxInt64 {
		return fmt.Errorf("server: INCR delta %d overflows int64", delta)
	}
	d := int64(delta)
	if negate {
		d = -d
	}
	err := s.mutate(ctx, sh, sem, mutOpts{}, func(tx *core.Tx, cp *walCapture) error {
		if !s.ownsKey(sh, key) {
			return errMovedKey
		}
		cur, ok, err := sh.live(tx, key)
		if err != nil {
			return err
		}
		var n int64
		if ok {
			n, err = strconv.ParseInt(cur, 10, 64)
			if err != nil {
				resp.Status = wire.StatusErr
				resp.Msg = fmt.Sprintf("server: INCR on non-integer value %q", cur)
				return nil
			}
		}
		if (d > 0 && n > math.MaxInt64-d) || (d < 0 && n < math.MinInt64-d) {
			resp.Status = wire.StatusErr
			resp.Msg = fmt.Sprintf("server: counter %d%+d overflows int64", n, d)
			return nil
		}
		resp.Status = wire.StatusOK
		resp.Int = n + d
		var digits [20]byte // the longest int64, sign included
		_, err = sh.applyOp(tx, cp, wal.OpSet, key, strconv.AppendInt(digits[:0], resp.Int, 10), effect{keepTTL: ok})
		return err
	})
	if err == nil {
		s.incrOps.Add(1)
	}
	return err
}

// setex is SET with a TTL of ttlMillis: the write is logged and
// replicated as an ordinary set (TTL never persists); the armed
// deadline lives in the shard's in-memory table, applied through the
// notifier so it lands in commit order before the ack. The capture is
// forced: arming the first deadline is what turns the session gate on.
func (s *Store) setex(ctx context.Context, sh *shard, key, val []byte, ttlMillis uint64) error {
	if ttlMillis == 0 {
		return wire.ErrZeroTTL
	}
	// A TTL past maxTTL saturates there: neither it nor its deadline,
	// now plus the TTL in Unix nanoseconds, can wrap — a wrapped one read
	// as already expired, or as zero.
	ttl := maxTTL
	if ttlMillis < uint64(maxTTL/time.Millisecond) {
		ttl = time.Duration(ttlMillis) * time.Millisecond
	}
	return s.mutate(ctx, sh, core.Irrevocable, mutOpts{force: true}, func(tx *core.Tx, cp *walCapture) error {
		if !s.ownsKey(sh, key) {
			return errMovedKey
		}
		_, err := sh.applyOp(tx, cp, wal.OpSet, key, val, effect{ttl: ttl})
		return err
	})
}

// txn executes the batch's sub-operations in ONE atomic unit under
// tab: all commit together or none do. Each participating shard's share
// is the sub-operations it owns, in batch order, into sub-response
// slots created up front, so a retried share rewrites its own. The
// whole share is ONE record: its operations replay in one transaction,
// atomic exactly as they committed.
func (s *Store) txn(ctx context.Context, tab *routingTable, batch []wire.Request, sem core.Semantics, resp *wire.Response) error {
	// Validate before grouping: an unknown sub-op fails the whole batch
	// before any transaction starts on any shard.
	for i := range batch {
		switch batch[i].Op {
		case wire.OpGet, wire.OpSet, wire.OpCAS, wire.OpDel:
		default:
			return wire.ErrBadSubOp
		}
	}
	var ownerBuf [32]uint32
	var shardBuf [8]*shard
	owner, shards := tab.group(len(batch), func(j int) []byte { return batch[j].Key }, ownerBuf[:0], shardBuf[:0])
	for j := range batch {
		appendSub(resp).SubOp = batch[j].Op
	}
	for _, sh := range shards {
		sh.routed.Add(tab.owned(owner, sh))
	}
	return s.commit(ctx, tab, shards, sem, func(tx *core.Tx, sh *shard, cp *walCapture) error {
		for j := range batch {
			if tab.shards[owner[j]] != sh {
				continue
			}
			sub := &batch[j]
			if err := s.keyOp(tx, sh, cp, sub.Op, sub.Key, sub.Old, sub.Val, &resp.Batch[j]); err != nil {
				return err
			}
		}
		return nil
	}, "xshard-txn")
}

// stats snapshots the aggregated engine counters — including the
// per-semantics breakdown that makes the polymorphic schedule-
// acceptance gap visible from the wire — plus, on a sharded store, the
// per-shard routing distribution and per-shard WAL rows.
func (s *Store) stats(resp *wire.Response) {
	tab := s.tab()
	snap := s.Stats()
	cs := append(resp.Counters[:0], []wire.Counter{
		{Name: "starts", Value: snap.Starts},
		{Name: "commits", Value: snap.Commits},
		{Name: "aborts", Value: snap.Aborts},
		{Name: "read_aborts", Value: snap.ReadAborts},
		{Name: "lock_aborts", Value: snap.LockAborts},
		{Name: "validate_aborts", Value: snap.ValidateAbort},
		{Name: "kills", Value: snap.Kills},
		{Name: "extensions", Value: snap.Extensions},
		{Name: "elastic_cuts", Value: snap.ElasticCuts},
		{Name: "snapshot_reads", Value: snap.SnapshotReads},
		{Name: "irrevocables", Value: snap.Irrevocables},
		{Name: "vars", Value: snap.VarsAllocated},
		{Name: "reads", Value: snap.Reads},
		{Name: "writes", Value: snap.Writes},
	}...)
	for _, p := range []stm.Semantics{stm.SemanticsDef, stm.SemanticsWeak, stm.SemanticsSnapshot, stm.SemanticsIrrevocable} {
		c := snap.Sem(p)
		cs = append(cs,
			wire.Counter{Name: "starts." + p.String(), Value: c.Starts},
			wire.Counter{Name: "commits." + p.String(), Value: c.Commits},
			wire.Counter{Name: "aborts." + p.String(), Value: c.Aborts},
		)
	}
	cs = append(cs,
		wire.Counter{Name: "store_shards", Value: uint64(len(tab.shards))},
		wire.Counter{Name: "routing_epoch", Value: tab.epoch},
		wire.Counter{Name: "reshard_splits", Value: s.reshardSplits.Load()},
		wire.Counter{Name: "reshard_merges", Value: s.reshardMerges.Load()},
	)
	var armed uint64
	for _, sh := range tab.shards {
		armed += uint64(sh.ttl.Len())
	}
	cs = append(cs,
		wire.Counter{Name: "watch_sessions", Value: uint64(s.sessions.Sessions())},
		wire.Counter{Name: "events_pushed", Value: s.sessions.EventsPushed()},
		wire.Counter{Name: "events_lost", Value: s.sessions.EventsLost()},
		wire.Counter{Name: "keys_expired", Value: s.keysExpired.Load()},
		wire.Counter{Name: "ttl_armed", Value: armed},
		wire.Counter{Name: "incr_ops", Value: s.incrOps.Load()},
	)
	cs = append(cs,
		wire.Counter{Name: "repl_role", Value: uint64(s.role.Load())},
		wire.Counter{Name: "repl_failovers", Value: s.failovers.Load()},
	)
	if h := s.hub.Load(); h != nil {
		cs = append(cs, h.Counters()...)
	} else if fl := s.follower.Load(); fl != nil {
		cs = append(cs, fl.Counters()...)
	}
	var figs [][len(walStats)]uint64 // by table position, when durable
	if s.durable() {
		figs = make([][len(walStats)]uint64, len(tab.shards))
		for i, sh := range tab.shards {
			figs[i] = walFigures(sh.wal)
		}
		gone := &s.retired.Load().wal
		for j, ws := range walStats {
			v := figs[0][j] + gone[j]
			for _, f := range figs[1:] {
				switch ws.fold {
				case '+':
					v += f[j]
				case 'M':
					v = max(v, f[j])
				}
			}
			cs = append(cs, wire.Counter{Name: ws.name, Value: v})
		}
	}
	if len(tab.shards) > 1 {
		cs = append(cs,
			wire.Counter{Name: "xshard_txns", Value: s.xshardTxns.Load()},
			wire.Counter{Name: "xshard_aborts", Value: s.xshardAborts.Load()},
		)
		// The shard-distribution rows, keyed by stable shard id: how the
		// workload's keys spread, and (post-reshard) each shard's slice.
		for i, sh := range tab.shards {
			cs = append(cs, wire.Counter{Name: fmt.Sprintf("shard%d.ops", sh.idx), Value: sh.routed.Load()})
			if tab.epoch > 0 {
				cs = append(cs,
					wire.Counter{Name: fmt.Sprintf("shard%d.mod", sh.idx), Value: tab.slices[i].mod},
					wire.Counter{Name: fmt.Sprintf("shard%d.res", sh.idx), Value: tab.slices[i].res},
				)
			}
			for j, ws := range walStats {
				if figs != nil && ws.shard {
					cs = append(cs, wire.Counter{Name: fmt.Sprintf("shard%d.%s", sh.idx, ws.name), Value: figs[i][j]})
				}
			}
		}
	}
	resp.Counters = cs
}

// walStats names the WAL and checkpoint-chain STATS rows in order: how
// the store's row folds the shards' figures ('+' sums them, 'M' takes
// the longest chain, which bounds restart work, '0' reports shard 0's),
// whether each shard also reports its own as shard<id>.<name>, and
// whether the row counts events, so a retired shard's final figure
// stays in it (the others describe the live shards only).
var walStats = [...]struct {
	name           string
	fold           byte
	shard, counter bool
}{
	{"wal_bytes", '+', true, true},
	{"wal_records", '+', true, true},
	{"wal_writes", '+', true, true},
	{"wal_fsyncs", '+', true, true},
	{"wal_checkpoints", '+', false, true},
	{"wal_segment", '0', false, false},
	{"ckpt_chain_len", 'M', true, false},
	{"ckpt_delta_bytes", '+', true, false},
	{"ckpt_base_bytes", '+', true, false},
	{"ckpt_last_kind", '0', true, false},
}

// retirement is what the shards retired from the table leave to STATS:
// their engines, whose counters StatsOf keeps summing, and their logs'
// final figures in walStats order, counter rows only. It is replaced
// whole, never edited.
type retirement struct {
	engines []*stm.Engine
	wal     [len(walStats)]uint64
}

// walFigures reads one shard log's figures, in walStats order.
func walFigures(l *wal.Log) [len(walStats)]uint64 {
	b, r, f, c := l.Stats()
	ch := l.Chain()
	return [...]uint64{b, r, l.Writes(), f, c, l.Segment(),
		uint64(ch.Len()), ch.DeltaBytes(), ch.BaseBytes, uint64(l.LastCheckpointKind())}
}

// flush serves FLUSH: every shard of the table clears its map in one
// atomic unit, and resp.N reports the entries removed.
func (s *Store) flush(ctx context.Context, sem core.Semantics, resp *wire.Response) error {
	tab := s.tab()
	for _, sh := range tab.shards {
		sh.routed.Add(1)
	}
	removed := make([]int, len(tab.shards)) // by position: a retried share rewrites its own
	err := s.commit(ctx, tab, tab.shards, sem, func(tx *core.Tx, sh *shard, cp *walCapture) error {
		// Freshness: a split racing this request may have published a
		// shard this FLUSH would miss — retry through the new table so
		// FLUSH stays whole-store atomic. (commit re-checks for several
		// participants too; a lone one has only this.)
		if s.tab() != tab {
			return errMovedKey
		}
		n, err := sh.applyOp(tx, cp, wal.OpFlush, nil, nil, effect{})
		removed[slices.Index(tab.shards, sh)] = n
		return err
	}, "xshard-flush")
	for _, n := range removed {
		resp.N += uint64(n)
	}
	return err
}
