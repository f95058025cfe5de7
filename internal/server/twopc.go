package server

import (
	"context"

	"polytm/internal/core"
	"polytm/internal/wal"
)

// Cross-shard commit.
//
// A TXN whose keys span shards — and FLUSH, which spans all of
// them — must be failure-atomic: after any crash, recovery surfaces
// either every shard's share of the transaction or none of it. The
// store gets this from a two-phase commit that is nothing but the
// polymorphic engine's own composition: one IRREVOCABLE transaction per
// participating shard, each opened inside the body of the previous one,
// all on the caller's goroutine.
//
//   - Participant i's body applies its share to memory and then opens
//     participant i+1's transaction on the next shard's engine. The
//     irrevocable token is held from the moment a body starts until its
//     transaction finishes, so by the time the innermost frame is
//     reached every participant holds its token, every share is applied
//     and none can be aborted by contention; nothing else can write any
//     participating shard's log in between.
//   - The innermost frame does the protocol's log work for everyone
//     (durable stores; see xcommit.seal). A PREPARE record (epoch,
//     coordinator shard, redo operations) is queued on each shard's log
//     and only then are they awaited together, so the per-shard flushes
//     and fsyncs overlap.
//   - The COORDINATOR — the lowest participating shard, the outermost
//     frame — then gets a DECISION record (the epoch alone) appended to
//     ITS log. That single durable append is the commit point.
//   - Each other participant then gets a COMMIT mark on its own log,
//     queued together and awaited together, still under every token.
//   - Unwinding the stack is the outcome: returning nil commits every
//     share, inner shards first and the coordinator last; returning an
//     error — a share's own, a log's — aborts them all in the same
//     order, and that error is what the caller sees. A share that fails
//     does so before the first PREPARE is queued, so a live abort leaves
//     no record in any log.
//
// Recovery (wal.Open + EnableDurability) resolves the crash windows:
// a PREPARE followed in its own log by its COMMIT mark (or, on the
// coordinator, by the DECISION) replays; a PREPARE followed by any
// other record was aborted live and is dropped; a PREPARE that ends
// its log is in-doubt and commits iff its epoch is in the coordinator
// shard's recovered decision set. Orphaned prepares — coordinator
// never durably decided — roll back, which is correct because no
// acknowledgement was sent without the decision being durable.
//
// Deadlock freedom: tokens are taken by nesting, in ascending shard
// order — a frame asks for the next token only while holding every
// lower one. Two concurrent cross-shard commits contending for the same
// tokens acquire them in the same global order, so one always drains.
//
// The coordinator keeps holding its token until every participant's
// COMMIT mark is durable — its frame is the last to unwind. A
// checkpoint rotation on the coordinator shard needs that token, so a
// DECISION record can never be truncated out of the log while any
// participant's prepare might still need it.

// xshare applies sh's share of a cross-shard commit inside sh's
// irrevocable transaction, recording through cp like any mutation body
// (nothing recorded = nothing to log for this shard).
type xshare func(tx *core.Tx, sh *shard, cp *walCapture) error

// xcommit is one cross-shard commit on its way down the stack: the
// participants and the captures drawn so far. It lives on crossShard's
// frame, and so does everything a caller's share closes over — which
// is why the context, the label and the share travel as arguments: the
// compiler tracks what a struct points to as one unit, the first two do
// reach the heap (the engine keeps them for the run), and as fields they
// would take the callers' inline arrays there with them.
// TestRoundTripAllocs holds a cross-shard TXN to a one-shard TXN's count.
type xcommit struct {
	s      *Store
	shards []*shard
	epoch  uint64
	caps   []*walCapture // caps[i] records shards[i]'s share; nil until frame i is entered
}

// crossShard commits share over shards — which MUST be in ascending
// shard order — as one atomic unit, with shards[0] as coordinator. It
// returns nil iff every shard's share committed; on error nothing
// committed, and the error is the one that stopped it.
//
// The caller's context is honoured while tokens are being taken: a
// cancellation seen before a frame begins unwinds the frames above it,
// which have logged nothing yet. After the last token is taken nothing
// looks at the context again, mirroring the irrevocable contract the
// commit rides — a hung-up client cannot strand a prepare with no
// outcome.
func (s *Store) crossShard(ctx context.Context, shards []*shard, share xshare, label string) error {
	s.xshardTxns.Add(1)
	// The inline array covers the usual store — a handful of shards —
	// and a larger one spills to the heap.
	var capBuf [8]*walCapture
	caps := capBuf[:]
	if len(shards) > len(caps) {
		caps = make([]*walCapture, len(shards))
	}
	caps = caps[:len(shards)]
	x := xcommit{s: s, shards: shards, epoch: s.epoch.Add(1), caps: caps}
	err := x.enter(ctx, label, share, 0)
	for i, cp := range caps {
		if cp == nil {
			break
		}
		if err == nil {
			// Like a single-shard ack: watchers and TTL tables have every
			// share's changes before the client sees OK.
			cp.waitDelivered()
		}
		shards[i].caps.Put(cp)
	}
	if err != nil {
		s.xshardAborts.Add(1)
	}
	return err
}

// enter runs participant i's irrevocable transaction — its share, then
// everything deeper — and past the last participant, the log work.
//
// The participant records through a capture like any mutation, with two
// differences: the record goes out as a PREPARE (seal), and the capture
// resets under the token rather than before it — participants do not
// enter the grace gate, so only there is the reshard flag it reads
// stable. The capture is the transaction's observer, so the notifier
// slot it reserves is resolved by this frame's own commit or abort.
func (x *xcommit) enter(ctx context.Context, label string, share xshare, i int) error {
	if i == len(x.shards) {
		return x.seal()
	}
	sh := x.shards[i]
	cp := sh.caps.Get().(*walCapture)
	x.caps[i] = cp
	return sh.tm.AtomicCtx(ctx, func(tx *core.Tx) error {
		cp.reset(mutOpts{})
		if err := share(tx, sh, cp); err != nil {
			return err
		}
		cp.reserveSlot()
		return x.enter(ctx, label, share, i+1)
	}, core.WithSemantics(core.Irrevocable), core.WithObserver(cp), core.WithLabel(label))
}

// seal is the innermost frame: every token held, every share applied.
// It makes the commit durable — PREPAREs, the coordinator's DECISION,
// COMMIT marks — and its return value is the commit's outcome: a share
// whose PREPARE could not replicate aborts it before anything is
// logged. A volatile store, or a commit that changed nothing, logs
// nothing and commits by unwinding alone.
func (x *xcommit) seal() error {
	coord := x.caps[0]
	for _, cp := range x.caps {
		if err := cp.fits(wal.PrepareHead); err != nil {
			return err
		}
	}
	prepared := false
	for _, cp := range x.caps {
		if cp.prepare(x.epoch, coord.sh.idx) {
			prepared = true
		}
	}
	if !prepared {
		return nil
	}
	// A vote only counts once it cannot be lost.
	var err error
	for _, cp := range x.caps {
		if werr := cp.wait(); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	// The commit point. If this append fails the outcome is unknown on
	// disk; abort in memory — recovery will roll the participants'
	// prepares back, matching.
	coord.control(wal.AppendDecision(coord.ctl[:0], x.epoch))
	if err := coord.wait(); err != nil {
		return err
	}
	// The decision already committed every prepare; a mark only spares
	// the next recovery a coordinator lookup. A failure here is NOT an
	// abort — log and move on, the wal's sticky error will surface
	// loudly enough.
	marks := x.caps[1:]
	for _, cp := range marks {
		if cp.logged {
			cp.control(wal.AppendCommitMark(cp.ctl[:0], x.epoch))
		}
	}
	for _, cp := range marks {
		if werr := cp.wait(); werr != nil {
			x.s.logf("polyserve: shard %d: commit mark epoch=%d: %v", cp.sh.idx, x.epoch, werr)
		}
	}
	return nil
}
