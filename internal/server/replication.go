// Replication: the store-side role machinery and the server-side
// wiring that connects a Store to internal/repl.
//
// A primary server owns a repl.Hub: SUBSCRIBE-WAL connections are
// handed off from the request loop to the hub, which streams each
// shard's WAL (snapshot + live tail) to the follower. A follower
// server owns a repl.Follower: it applies shipped records through the
// same per-shard apply machinery recovery uses — on a durable follower
// every applied record is re-logged in the follower's own WAL, so a
// promoted follower is durable in its own right — and its store
// rejects outside writes with *wire.NotPrimaryError.
//
// Consistency: per-shard log order is commit order (the irrevocable
// token), so a follower's shard state is always a prefix of the
// primary's — snapshot-class reads (GET/MGET/SCAN) served by a
// follower see a consistent, possibly slightly stale state, the same
// contract those request classes already have on the primary.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"

	"polytm/internal/repl"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// Role is a store's position in a replication topology.
type Role int32

const (
	// RolePrimary: the store accepts writes (the default, even with no
	// replication configured — a standalone store is its own primary).
	RolePrimary Role = iota
	// RoleFollower: the store applies replicated records only; outside
	// mutating requests are rejected with *wire.NotPrimaryError.
	RoleFollower
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	default:
		return "Role(?)"
	}
}

// errReplicationDisabled answers SUBSCRIBE-WAL on a server with no hub.
var errReplicationDisabled = errors.New("server: replication not enabled")

// Role returns the store's current role.
func (s *Store) Role() Role { return Role(s.role.Load()) }

// PrimaryAddr returns the primary's address as known to a follower
// store ("" on a primary or when unknown).
func (s *Store) PrimaryAddr() string {
	if p := s.primaryAddr.Load(); p != nil {
		return *p
	}
	return ""
}

// BecomeFollower flips the store into the follower role: every
// subsequent mutating request is rejected with a NotPrimaryError
// carrying primary's address. Replication applies bypass the gate via
// ApplyShardOps.
func (s *Store) BecomeFollower(primary string) {
	s.primaryAddr.Store(&primary)
	s.role.Store(int32(RoleFollower))
}

// BecomePrimary flips a follower store into the primary role (a
// failover), counting the transition. On a store already primary it is
// a no-op.
func (s *Store) BecomePrimary() {
	if s.role.Swap(int32(RolePrimary)) == int32(RoleFollower) {
		s.failovers.Add(1)
	}
}

// Failovers returns how many follower→primary transitions the store
// has performed.
func (s *Store) Failovers() uint64 { return s.failovers.Load() }

// Routing returns the store's routing epoch and the table's slices in
// position order (repl.PrimaryStore): the hub sends this to every
// follower right after HELLO, and all shard indices in subsequent feed
// frames are positions in this table. The hub keys sync-ack waits on
// the stable ids it lists.
func (s *Store) Routing() (uint64, []wire.ReplShardSlice) {
	tab := s.tab()
	slices := make([]wire.ReplShardSlice, len(tab.shards))
	for i, sh := range tab.shards {
		slices[i] = wire.ReplShardSlice{ID: uint64(sh.idx), Mod: tab.slices[i].mod, Res: tab.slices[i].res}
	}
	return tab.epoch, slices
}

// CatchUp streams shard i's catch-up for a follower whose applied
// position within the CURRENT incarnation is applied
// (repl.PrimaryStore). It tries the churn-bounded delta first (see
// delta) and reports delta=true when that proved complete. Otherwise it
// emits a FLUSH and then every pair of the shard as SETs: the FLUSH goes
// first, so it clears whatever the follower held — including the SETs
// of a delta that gave up part-way.
//
// The walk is chunked (shard.walk), so what it ships is no single
// state; the live tail makes it one. The feed's taps attach before the
// walk, so every change a chunk missed or saw early is also in the
// tail, which replays after it, absolute and idempotent. Between its
// FLUSH and the end of that overlap the follower already serves a state
// that is not a prefix — catch-up applies as separate 256 KB records,
// and executeOnce gates only mutations — so a chunked walk weakens no
// promise.
func (s *Store) CatchUp(ctx context.Context, i int, applied uint64, emit func(wal.Op) error) (bool, error) {
	tab := s.tab()
	if i < 0 || i >= len(tab.shards) {
		return false, fmt.Errorf("server: catch-up of shard %d of %d", i, len(tab.shards))
	}
	sh := tab.shards[i]
	if ok, err := s.delta(ctx, sh, applied, emit); ok || err != nil {
		return ok, err
	}
	if err := emit(wal.Op{Kind: wal.OpFlush}); err != nil {
		return false, err
	}
	return false, sh.walk(ctx, emit)
}

// Incarnation returns the durable store's process incarnation — the
// scope within which this lifetime's WAL seqs are comparable (0 when
// not durable). Seqs restart at 1 in every process, so a follower's
// applied position only means something to a primary whose incarnation
// minted it; the hub gates delta catch-up on a match.
func (s *Store) Incarnation() uint64 { return s.incarnation }

// delta emits the churn-bounded catch-up set of sh since applied: every
// checkpoint-chain delta with a cover point past applied, then the live
// dirty set at its current committed values — each key a SET or a DEL,
// last writer wins on the follower. Completeness: a change at seq
// q > applied is either in the delta covering (parent, cover] with
// cover >= q, or — past the newest cut — still in the dirty set;
// requiring applied >= the base's cover guarantees no needed change is
// buried in the base itself (a compaction since the follower
// disconnected raises the base cover above applied and correctly forces
// the full path).
//
// ok=false (with nil error) means the delta cannot prove completeness —
// no position, no base, a flush pending (not expressible per key), a
// stale applied position, or a chain file lost to a racing compaction —
// and the caller must send a full catch-up.
func (s *Store) delta(ctx context.Context, sh *shard, applied uint64, emit func(wal.Op) error) (bool, error) {
	// applied == 0 is "no position" — a follower that never finished this
	// shard's catch-up in this incarnation, or whose catch-up was cut.
	// It must not pass as a position: a recovered base has cover 0.
	if applied == 0 || !s.durable() {
		return false, nil
	}
	// Freeze the chain/dirty pair under the checkpoint lock: a cut
	// between reading the chain and copying the dirty set would move
	// keys into a delta this read already missed. Keys mutated after
	// the copy need no delta — the feed's taps are attached before
	// catch-up starts, so their records ship in the live tail.
	sh.ckptMu.Lock()
	chain := sh.wal.Chain()
	dirtyKeys, flushPending := sh.dirty.snapshotKeys()
	sh.ckptMu.Unlock()
	if chain.BaseSeg == 0 || flushPending || applied < chain.BaseCover {
		return false, nil
	}
	for _, d := range chain.Deltas {
		if d.Cover <= applied {
			// Already applied on the follower — including recovered
			// deltas (cover 0), whose content predates this incarnation
			// and was covered by the follower's original catch-up.
			continue
		}
		// An emit error (the feed connection) fails the catch-up; a
		// chain-file error — the chain moved under us (a compaction
		// removed the file) or the file failed validation — demotes it
		// to the full path.
		var emitErr error
		err := sh.wal.ReadDelta(d.Seg, func(op wal.Op) error {
			emitErr = emit(op)
			return emitErr
		})
		if emitErr != nil || err != nil {
			return false, emitErr
		}
	}
	if err := sh.emitKeys(ctx, dirtyKeys, emit); err != nil {
		return false, err
	}
	return true, nil
}

// ApplyShardOps applies one replicated operation group to shard i as a
// single atomic transaction (repl.FollowerStore). It bypasses the
// follower write gate — replication is the one legitimate writer on a
// follower. It is a mutation like a client's: on a durable store the
// group is re-logged through the shard's own WAL, so the follower's
// durable state tracks what it has applied and survives its own
// crashes; a non-durable follower applies in memory only.
//
// Watch sessions on a follower ride the same capture: replicated
// records push events to the follower's watchers in the primary's
// per-shard commit order (a replicated SETEX arrives as a plain set —
// followers never learn deadlines, so expiry is only ever the
// primary's replicated delete).
func (s *Store) ApplyShardOps(i int, ops []wal.Op) error {
	tab := s.tab()
	if i < 0 || i >= len(tab.shards) {
		return fmt.Errorf("server: apply to shard %d of %d", i, len(tab.shards))
	}
	return s.applyOps(context.Background(), tab.shards[i], ops, mutOpts{label: "repl-apply"})
}

// ResumeEpoch raises the store's cross-shard epoch counter to at least
// e (repl.FollowerStore): a promoted follower's new cross-shard
// transactions must use epochs above every epoch the old primary ever
// logged.
func (s *Store) ResumeEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if cur >= e || s.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// ---- server wiring ----

// ReplConfig parameterizes Server.EnableReplication.
type ReplConfig struct {
	// Follow, when non-empty, runs the server as a follower of this
	// primary address; empty runs it as a primary serving feeds.
	Follow string
	// SyncAck (primary): gate durable-write acknowledgement on a
	// follower ack covering the record. Degrades to local-durability
	// acks while no follower is connected.
	SyncAck bool
	// Backoff is the follower's reconnection policy.
	Backoff repl.Backoff
}

// EnableReplication wires the server into a replication topology. As a
// primary it creates the feed hub (the store must be durable — feeds
// tap the per-shard WALs); as a follower it flips the store's role and
// starts the link to the primary. Call before Serve.
func (s *Server) EnableReplication(cfg ReplConfig) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Hub() != nil || s.Follower() != nil {
		return errors.New("server: replication already enabled")
	}
	s.replCfg = cfg
	if cfg.Follow == "" {
		return s.startHubLocked()
	}
	s.store.BecomeFollower(cfg.Follow)
	fl, err := repl.StartFollower(repl.FollowerConfig{
		Primary: cfg.Follow,
		Store:   s.store,
		Backoff: cfg.Backoff,
		Logf:    s.cfg.Logf,
	})
	if err != nil {
		return err
	}
	s.store.follower.Store(fl)
	return nil
}

// startHubLocked creates and installs the primary-side hub (s.mu held).
func (s *Server) startHubLocked() error {
	if !s.store.Durable() {
		return errors.New("server: replication primary needs a durable store (the feed streams the WAL)")
	}
	s.store.hub.Store(repl.NewHub(s.store, repl.HubConfig{
		SyncAck: s.replCfg.SyncAck,
		Logf:    s.cfg.Logf,
	}))
	return nil
}

// Follower returns the replication link, nil when not a follower.
func (s *Server) Follower() *repl.Follower { return s.store.follower.Load() }

// Hub returns the feed hub, nil when not a replication primary.
func (s *Server) Hub() *repl.Hub { return s.store.hub.Load() }

// Promote fails the server over from follower to primary: the link is
// stopped, pending cross-shard prepares resolve against the shipped
// decision sets (exactly the recovery rule), the epoch counter resumes
// past the old primary's maximum, and the store starts taking writes.
// A durable store also starts a feed hub, so further followers can
// chain off the new primary.
func (s *Server) Promote() (repl.PromoteResult, error) {
	fl := s.Follower()
	if fl == nil {
		return repl.PromoteResult{}, errors.New("server: not a follower")
	}
	res, err := fl.Promote()
	if err != nil {
		return res, err
	}
	s.store.BecomePrimary()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store.follower.Store(nil)
	if s.store.Durable() {
		if err := s.startHubLocked(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// closeReplication tears down the hub or link (used at shutdown).
func (s *Server) closeReplication() {
	s.mu.Lock()
	h, fl := s.store.hub.Swap(nil), s.store.follower.Swap(nil)
	s.mu.Unlock()
	if h != nil {
		h.Close()
	}
	if fl != nil {
		fl.Close()
	}
}

// serveSubscribe hands a connection whose SUBSCRIBE-WAL request was
// just read over to the hub, which answers it and streams the feed. The
// connection never returns to the request loop: from here on it speaks
// the repl frame family until either side drops.
func (s *Server) serveSubscribe(c net.Conn, br *bufio.Reader, bw *bufio.Writer, h *repl.Hub) {
	if err := h.ServeFeed(c, br, bw); err != nil && !isExpectedClose(err) {
		s.logf("polyserve: %v: feed: %v", c.RemoteAddr(), err)
	}
}
