package repl

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polytm/internal/wal"
	"polytm/internal/wire"
)

// FollowerStore is what a Follower needs from the store it feeds:
// per-shard atomic application of record groups (the same machinery
// recovery replays through) and the epoch resume hook promotion uses.
// polyserve's server.Store implements it.
type FollowerStore interface {
	NumShards() int
	// ApplyShardOps applies one atomic operation group to shard i,
	// bypassing the follower's write rejection (replication is the one
	// legitimate writer on a follower).
	ApplyShardOps(shard int, ops []wal.Op) error
	// ResumeEpoch raises the store's cross-shard epoch counter to at
	// least e (promotion: new epochs must clear every epoch the primary
	// ever used).
	ResumeEpoch(e uint64)
	// RoutingEpoch reports the routing epoch the store's table currently
	// embodies; the HELLO announces it so the primary can tell whether
	// the follower's per-shard positions are comparable to its own.
	RoutingEpoch() uint64
	// AdoptRouting reshapes the store to the primary's published routing
	// table (from the TOPOLOGY frame a subscription opens with) and
	// reports whether it did. A table of the same epoch and shape is a
	// no-op; an older epoch is an error.
	AdoptRouting(epoch uint64, topo []wire.ReplShardSlice) (bool, error)
}

// FollowerConfig parameterizes StartFollower.
type FollowerConfig struct {
	// Primary is the primary's address.
	Primary string
	// Store receives the applied records.
	Store FollowerStore
	// Backoff is the reconnection policy.
	Backoff Backoff
	// Logf, when non-nil, receives link diagnostics.
	Logf func(format string, args ...any)
}

// followerShard is one shard's apply-side state: the ack position and
// the shard's shipped record stream, stepped by the same wal.Replay
// machine recovery steps over a log tail. id is the shard's stable id
// on the primary (its table position until a TOPOLOGY frame says
// otherwise) — what PREPARE records name their coordinator by.
type followerShard struct {
	id       int
	ackSeq   uint64
	ackBytes uint64
	replay   wal.Replay
}

// Follower is the client side of a feed: Redial keeps one Link to the
// primary up, and each link's lifetime (linkOnce) subscribes, applies
// the WAL records it is shipped — catch-up, then the live tail — and
// acks its positions — an ACK is also its answer to PING. One Follower
// owns one goroutine; Close or Promote end it by cancelling the context
// every link descends from.
type Follower struct {
	cfg     FollowerConfig
	nshards int
	tm      Timeouts // every link's budgets: Budgets()

	state      atomic.Int32
	reconnects atomic.Uint64
	applRecs   atomic.Uint64
	applBytes  atomic.Uint64

	mu     sync.Mutex
	shards []followerShard
	// maxEpoch is the largest 2PC epoch any shard's stream has shown,
	// kept across the catch-ups and reshapes that reset a stream.
	maxEpoch uint64
	// primaryInc is the primary incarnation the last completed catch-up
	// spoke to (from SNAP-DONE). The next HELLO echoes it so the primary
	// can tell whether our per-shard applied seqs are comparable to its
	// own — the gate for churn-bounded delta catch-up.
	primaryInc uint64

	ctx    context.Context // every link's parent
	cancel context.CancelCauseFunc
	done   chan struct{}
}

// StartFollower starts the replication link. The store should already
// be in its follower role (rejecting outside writes) before the link
// starts applying records.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, fmt.Errorf("repl: follower needs a primary address")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("repl: follower needs a store")
	}
	f := newFollower(cfg)
	go f.run()
	return f, nil
}

// newFollower builds the link state without starting its goroutine.
func newFollower(cfg FollowerConfig) *Follower {
	f := &Follower{
		cfg:     cfg,
		nshards: cfg.Store.NumShards(),
		tm:      Budgets(),
		done:    make(chan struct{}),
	}
	f.ctx, f.cancel = context.WithCancelCause(context.Background())
	f.shards = make([]followerShard, f.nshards)
	for i := range f.shards {
		f.shards[i].id = i
	}
	return f
}

// State reports the link's position in its connection state machine.
func (f *Follower) State() ConnState { return ConnState(f.state.Load()) }

// Counters reports the follower's STATS rows.
func (f *Follower) Counters() []wire.Counter {
	return []wire.Counter{
		{Name: "repl_applied_records", Value: f.applRecs.Load()},
		{Name: "repl_applied_bytes", Value: f.applBytes.Load()},
		{Name: "repl_reconnects", Value: f.reconnects.Load()},
		{Name: "repl_state", Value: uint64(f.state.Load())},
	}
}

// logf emits a diagnostic when configured.
func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// run keeps the link up until halt.
func (f *Follower) run() {
	defer close(f.done)
	Redial(f.ctx, f.cfg.Backoff, f.linkOnce, func(err error, retryIn time.Duration) {
		f.reconnects.Add(1)
		f.logf("repl: link to %s down (%v); retrying in %v", f.cfg.Primary, err, retryIn)
	})
}

// linkOnce runs one connection lifecycle: dial, subscribe, catch up,
// stream. It returns whether the link reached streaming, and the error
// that ended it (always non-nil).
func (f *Follower) linkOnce() (streamed bool, err error) {
	defer f.state.Store(int32(StateDisconnected))
	f.state.Store(int32(StateConnecting))
	l, resp, err := dial(f.ctx, f.cfg.Primary, f.tm, &wire.Request{Op: wire.OpSubscribeWAL, Sem: wire.SemDefault})
	if err != nil {
		return false, err
	}
	defer l.Close()
	if resp.N == 0 {
		return false, fmt.Errorf("repl: primary reports zero shards")
	}
	// A count that differs from ours is not an error: the TOPOLOGY frame
	// the primary sends after HELLO carries the authoritative routing
	// table, and the follower reshapes to it.

	// HELLO: announce the incarnation we last caught up against, the
	// routing epoch our table embodies, and our per-shard applied
	// positions, so the primary can choose a churn-bounded delta
	// catch-up over a full one.
	hello := wire.ReplFrame{Kind: wire.ReplHello, Epoch: f.cfg.Store.RoutingEpoch()}
	f.mu.Lock()
	hello.Incarnation = f.primaryInc
	for i := range f.shards {
		hello.Acks = append(hello.Acks, wire.ReplAckEntry{Shard: uint64(i), Seq: f.shards[i].ackSeq})
	}
	f.mu.Unlock()
	out, err := wire.AppendReplFrame(nil, &hello)
	if err != nil {
		return false, err
	}
	if err := l.Write(out); err != nil {
		return false, err
	}

	f.state.Store(int32(StateCatchingUp))
	var frame wire.ReplFrame
	var ops []wal.Op
	snapsDone := 0
	err = l.Recv(func(payload []byte) error {
		if err := wire.DecodeReplFrame(&frame, payload); err != nil {
			return err
		}
		// Frames that name no shard decode with Shard 0.
		if frame.Shard >= uint64(f.nshards) {
			return fmt.Errorf("repl: %v for shard %d of %d", frame.Kind, frame.Shard, f.nshards)
		}
		switch frame.Kind {
		case wire.ReplTopology:
			return f.adoptTopology(&frame)
		case wire.ReplSnapDone:
			f.finishCatchUp(&frame)
			if snapsDone++; snapsDone == f.nshards {
				f.state.Store(int32(StateStreaming))
				streamed = true
			}
		case wire.ReplWALBatch:
			if err := f.applyWALBatch(&frame, &ops); err != nil {
				return err
			}
		case wire.ReplPing:
		default:
			return fmt.Errorf("repl: unexpected %v frame from primary", frame.Kind)
		}
		return f.sendAck(l, &out)
	})
	return streamed, err
}

// finishCatchUp handles SNAP-DONE, whichever catch-up the shard got:
// its catch-up records are applied and reflect every record up to the
// frame's cover seq. Apply-side 2PC state from the old link is embodied
// in the shipped state, so the stream restarts there, and byte
// accounting restarts with the new feed.
func (f *Follower) finishCatchUp(frame *wire.ReplFrame) {
	f.mu.Lock()
	sh := &f.shards[frame.Shard]
	sh.replay, sh.ackSeq, sh.ackBytes = wal.Replay{}, frame.CoverSeq, 0
	f.primaryInc = frame.Incarnation
	f.mu.Unlock()
}

// adoptTopology handles the TOPOLOGY frame a subscription opens with.
// When the store's table differs from the frame's — in epoch or in
// shape — the store reshapes, and every per-shard position resets
// (table positions are meaningless across a reshape — the primary will
// send full catch-ups) along with the link state's size.
func (f *Follower) adoptTopology(frame *wire.ReplFrame) error {
	reshaped, err := f.cfg.Store.AdoptRouting(frame.Epoch, frame.Topo)
	if err != nil {
		return fmt.Errorf("repl: adopting routing epoch %d: %w", frame.Epoch, err)
	}
	n := len(frame.Topo)
	f.mu.Lock()
	if reshaped {
		f.shards = make([]followerShard, n)
		f.primaryInc = 0 // old positions are void; the next HELLO asks for full catch-ups
	}
	for i := range f.shards {
		f.shards[i].id = int(frame.Topo[i].ID)
	}
	f.mu.Unlock()
	if reshaped {
		f.nshards = n
		f.logf("repl: adopted routing epoch %d (%d shards)", frame.Epoch, n)
	}
	return nil
}

// applyWALBatch steps one WAL-BATCH frame's records, in order, through
// the shard's stream and applies what each step releases. Catch-up
// records take the same path as live ones.
func (f *Follower) applyWALBatch(frame *wire.ReplFrame, ops *[]wal.Op) error {
	shard := int(frame.Shard)
	for _, r := range frame.Recs {
		rec, err := wal.DecodeRecord((*ops)[:0], r.Payload)
		if err != nil {
			return fmt.Errorf("repl: shard %d seq %d: %w", shard, r.Seq, err)
		}
		if rec.Ops != nil {
			*ops = rec.Ops
		}
		f.mu.Lock()
		sh := &f.shards[shard]
		group := sh.replay.Step(rec)
		f.maxEpoch = max(f.maxEpoch, sh.replay.MaxEpoch)
		f.mu.Unlock()

		if group != nil {
			if err := f.cfg.Store.ApplyShardOps(shard, group); err != nil {
				return fmt.Errorf("repl: shard %d seq %d: %w", shard, r.Seq, err)
			}
		}

		// A catch-up record carries seq 0, so from the first one until
		// SNAP-DONE the shard has no position: a catch-up cut at any
		// point is redone in full on reconnect, never continued as a
		// delta from state it half replaced. Its bytes stay out of the
		// acked count, which the hub sets against the live bytes it
		// shipped to report lag.
		f.mu.Lock()
		f.shards[shard].ackSeq = r.Seq
		if r.Seq != 0 {
			f.shards[shard].ackBytes += uint64(len(r.Payload))
		}
		f.mu.Unlock()
		f.applRecs.Add(1)
		f.applBytes.Add(uint64(len(r.Payload)))
	}
	return nil
}

// sendAck writes one ACK frame carrying every shard's position,
// encoded into buf's storage.
func (f *Follower) sendAck(l *Link, buf *[]byte) error {
	frame := wire.ReplFrame{Kind: wire.ReplAck}
	f.mu.Lock()
	for i := range f.shards {
		frame.Acks = append(frame.Acks, wire.ReplAckEntry{
			Shard: uint64(i),
			Seq:   f.shards[i].ackSeq,
			Bytes: f.shards[i].ackBytes,
		})
	}
	f.mu.Unlock()
	var err error
	if *buf, err = wire.AppendReplFrame((*buf)[:0], &frame); err != nil {
		return err
	}
	return l.Write(*buf)
}

// halt cuts the live link, or the dial in flight, and waits for the
// link goroutine to exit.
func (f *Follower) halt() {
	f.cancel(ErrLinkClosed)
	<-f.done
}

// Close stops the link without promotion.
func (f *Follower) Close() { f.halt() }

// PromoteResult is what Promote resolved.
type PromoteResult struct {
	// Committed / RolledBack count pending prepares resolved for /
	// against commit (exactly the recovery rule: the coordinator
	// shard's decision set is the truth).
	Committed  int
	RolledBack int
	// MaxEpoch is the epoch floor handed to the store.
	MaxEpoch uint64
}

// Promote ends the link and finalizes the follower's state for taking
// writes: prepares still pending resolve by wal.ResolveInDoubt, the
// rule recovery resolves in-doubt prepares by, and the store's epoch
// counter resumes above every epoch the old primary used. The caller
// flips the store's role to primary afterwards.
func (f *Follower) Promote() (PromoteResult, error) {
	f.halt()
	f.mu.Lock()
	defer f.mu.Unlock()
	res := PromoteResult{MaxEpoch: f.maxEpoch}
	streams := make([]wal.Stream, len(f.shards))
	for i := range f.shards {
		streams[i] = wal.Stream{ID: f.shards[i].id, Replay: &f.shards[i].replay}
	}
	var err error
	res.Committed, res.RolledBack, err = wal.ResolveInDoubt(streams, func(i int, pp *wal.PendingPrepare, commit bool) error {
		f.shards[i].replay.InDoubt = nil
		if !commit {
			return nil
		}
		if err := f.cfg.Store.ApplyShardOps(i, pp.Ops); err != nil {
			return fmt.Errorf("repl: promote: applying pending prepare epoch=%d on shard %d: %w", pp.Epoch, i, err)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	f.cfg.Store.ResumeEpoch(f.maxEpoch)
	return res, nil
}
