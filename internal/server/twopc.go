package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"polytm/internal/core"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// Cross-shard commit.
//
// A TXN whose keys span shards — and FLUSH/REBUILD, which span all of
// them — must be failure-atomic: after any crash, recovery surfaces
// either every shard's share of the transaction or none of it. The
// store gets this from a two-phase commit built on the pieces the
// polymorphic engine already provides:
//
//   - Each participating shard runs its share inside one IRREVOCABLE
//     transaction. The irrevocable token is held from the moment the
//     body starts until the transaction finishes, so a participant
//     that has applied its operations cannot be aborted by contention,
//     and nothing else can write that shard's log in between.
//   - Durable stores write a PREPARE record (epoch, coordinator shard,
//     redo operations) to each participating shard's log, under that
//     shard's token, and wait for it to be durable.
//   - The COORDINATOR — the lowest participating shard — collects all
//     votes and appends a DECISION record (the epoch alone) to ITS log.
//     That single durable append is the commit point.
//   - Each participant then appends a COMMIT mark to its own log,
//     still under its token, and the acknowledgement waits for it.
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
// Deadlock freedom: participants enter their transactions in
// ascending shard order, each waiting until the previous
// participant's body is running (and therefore holds its token).
// Two concurrent cross-shard commits contending for the same tokens
// acquire them in the same global order, so one always drains.
//
// The coordinator keeps holding its token until every participant's
// COMMIT mark is durable. A checkpoint rotation on the coordinator
// shard needs that token, so a DECISION record can never be truncated
// out of the log while any participant's prepare might still need it.

// errXShardAbort is the internal "another participant failed" abort;
// crossShard unwraps it to the real cause before returning.
var errXShardAbort = errors.New("server: cross-shard transaction aborted")

// xpart is one shard's share of a cross-shard commit. apply runs
// inside the shard's irrevocable transaction; it applies the shard's
// operations to memory, recording them through cp like any mutation
// body (nothing recorded = nothing to log for this shard).
type xpart struct {
	sh    *shard
	apply func(tx *core.Tx, cp *walCapture) error
}

// crossShard commits parts — which MUST be in ascending shard order —
// as one atomic unit, with parts[0].sh as coordinator. It returns nil
// iff every shard's share committed; on error nothing committed.
//
// The caller's context is honoured only up to the point the protocol
// begins: once tokens are being taken the commit ignores cancellation
// (context.WithoutCancel), mirroring the irrevocable contract it
// rides — a hung-up client must not strand held tokens or a prepare
// with no outcome.
func (s *Store) crossShard(ctx context.Context, parts []xpart, label string) error {
	s.xshardTxns.Add(1)
	n := len(parts)
	epoch := s.epoch.Add(1)
	coord := parts[0].sh.idx
	bctx := context.WithoutCancel(ctx)

	var (
		votes    = make(chan error, n)
		done     = make(chan struct{}, n)
		decided  = make(chan struct{})
		decide   sync.Once
		commit   atomic.Bool
		decision error // the vote that aborted (or the decision append error); written before decided closes

		// begun[i] closes when participant i's body is running — i.e.
		// its shard token is held. Participant i+1 enters only then.
		begun = make([]chan struct{}, n)

		prepares atomic.Uint64 // PREPARE records written (durable stores)
	)
	for i := range begun {
		begun[i] = make(chan struct{})
	}

	run := func(i int) error {
		p := parts[i]
		var began, voted sync.Once
		begin := func() { began.Do(func() { close(begun[i]) }) }
		vote := func(err error) { voted.Do(func() { votes <- err }) }

		// The participant records through a capture like any mutation,
		// with two differences: the record goes out as a PREPARE inside
		// the body (cp.prepare), and the capture resets under the token
		// rather than before it — participants do not enter the grace
		// gate, so only there is the reshard flag it reads stable.
		cp := p.sh.caps.Get().(*walCapture)
		defer p.sh.caps.Put(cp)

		if i > 0 {
			<-begun[i-1]
		}
		err := p.sh.tm.AtomicCtx(bctx, func(tx *core.Tx) error {
			begin()
			cp.reset(mutOpts{})
			aerr := p.apply(tx, cp)
			logged := false
			if aerr == nil {
				if logged, aerr = cp.prepare(epoch, coord); logged {
					prepares.Add(1)
				}
			}
			vote(aerr)

			if i == 0 {
				// Coordinator: collect every vote (its own included),
				// decide, and make the decision durable before anyone
				// learns it.
				var ferr error
				for j := 0; j < n; j++ {
					if verr := <-votes; verr != nil && ferr == nil {
						ferr = verr
					}
				}
				if ferr == nil && prepares.Load() > 0 {
					// The commit point. If this append fails the outcome
					// is unknown on disk; abort in memory — recovery will
					// roll the participants' prepares back, matching.
					ferr = p.sh.wal.Append(wal.AppendDecision(nil, epoch))
				}
				decide.Do(func() {
					decision = ferr
					commit.Store(ferr == nil)
					close(decided)
				})
				if ferr != nil {
					return ferr // aborts the coordinator's own share
				}
				// Hold the token until every participant's COMMIT mark is
				// durable (see the package comment on truncation safety).
				for j := 1; j < n; j++ {
					<-done
				}
				return nil
			}

			<-decided
			if !commit.Load() {
				return errXShardAbort // aborts this shard's share
			}
			if logged {
				// The decision already committed this prepare; the mark
				// only spares the next recovery a coordinator lookup. An
				// append failure here is NOT an abort — log and move on,
				// the wal's sticky error will surface loudly enough.
				if werr := p.sh.wal.Append(wal.AppendCommitMark(nil, epoch)); werr != nil && s.logf != nil {
					s.logf("polyserve: shard %d: commit mark epoch=%d: %v", p.sh.idx, epoch, werr)
				}
			}
			done <- struct{}{}
			return nil
		}, core.WithSemantics(core.Irrevocable), core.WithObserver(cp), core.WithLabel(label))

		// If the engine refused the transaction outright the body never
		// ran: the chain, the vote, and (for the coordinator) the
		// decision are still owed, or everyone else hangs.
		begin()
		vote(err)
		if i == 0 {
			decide.Do(func() {
				decision = err
				close(decided)
			})
		}
		if err == nil {
			// Like a single-shard ack: watchers and TTL tables have this
			// share's changes before the client sees OK.
			cp.waitDelivered()
		}
		return err
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run(i)
		}(i)
	}
	errs[0] = run(0)
	wg.Wait()

	if commit.Load() {
		return nil
	}
	s.xshardAborts.Add(1)
	if decision != nil {
		return decision
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, errXShardAbort) {
			return err
		}
	}
	return errXShardAbort
}

// txnCross commits a TXN batch spanning shards of the snapshot table.
// Sub-responses are pre-created so the per-shard bodies write disjoint
// slots. Each participant re-checks table freshness under its token: a
// cutover that published a newer table between grouping and commit
// means some key may have a new owner (or FLUSH would miss a brand-new
// shard), so the whole unit aborts with errMovedKey and the dispatcher
// retries through the current table.
func (s *Store) txnCross(ctx context.Context, tab *routingTable, batch []wire.Request, resp *wire.Response) {
	resp.Batch = resp.Batch[:0]
	for i := range batch {
		sub := appendSub(resp)
		sub.SubOp = batch[i].Op
	}
	groups := make([][]int, len(tab.shards))
	for i := range batch {
		si := tab.pos(hashKey(batch[i].Key))
		groups[si] = append(groups[si], i)
	}
	parts := make([]xpart, 0, len(tab.shards))
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		sh := tab.shards[si]
		sh.routed.Add(uint64(len(idxs)))
		idxs := idxs
		parts = append(parts, xpart{sh: sh, apply: func(tx *core.Tx, cp *walCapture) error {
			if s.tab() != tab {
				return errMovedKey
			}
			for _, j := range idxs {
				sub := &batch[j]
				if err := s.keyOp(tx, sh, cp, sub.Op, sub.Key, sub.Old, sub.Val, &resp.Batch[j]); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	if err := s.crossShard(ctx, parts, "xshard-txn"); err != nil {
		resp.Batch = resp.Batch[:0]
		errInto(resp, err)
		return
	}
	resp.Status = wire.StatusOK
}

// adminCross runs FLUSH or REBUILD across every shard as one
// cross-shard commit, summing the per-shard counts into resp.N. Like
// txnCross, each participant re-checks table freshness under its token
// so a FLUSH can never miss a shard a concurrent split just published.
func (s *Store) adminCross(ctx context.Context, tab *routingTable, kind wal.OpKind, resp *wire.Response) {
	var total atomic.Uint64
	parts := make([]xpart, len(tab.shards))
	for i, sh := range tab.shards {
		sh.routed.Add(1)
		sh := sh
		parts[i] = xpart{sh: sh, apply: func(tx *core.Tx, cp *walCapture) error {
			if s.tab() != tab {
				return errMovedKey
			}
			n, err := sh.applyOp(tx, cp, kind, nil, "", effect{})
			total.Add(uint64(n))
			return err
		}}
	}
	label := "xshard-flush"
	if kind == wal.OpRebuild {
		label = "xshard-rebuild"
	}
	if err := s.crossShard(ctx, parts, label); err != nil {
		errInto(resp, err)
		return
	}
	resp.N = total.Load()
	resp.Status = wire.StatusOK
}
