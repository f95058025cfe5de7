package server

import (
	"context"
	"fmt"
	"slices"

	"polytm/internal/core"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// Online resharding: SPLIT and MERGE rewire the routing table while the
// store serves traffic.
//
// Both directions follow the same copy protocol. The moving shard's
// capture gate (shard.resharding) is flipped and a grace period waited
// out, so every subsequent mutation on it runs under the shard's
// irrevocable token and marks the reshard dirty set (rdirty). Then:
//
//  1. BULK: one snapshot walk collects the moving keys (the new
//     shard's half of a split source; the absorbed shard's whole slice
//     for a merge) and copies them in snapshot-read batches.
//  2. DELTA: rounds of rdirty.take() — each take fenced by an empty
//     irrevocable transaction with a notifier Sync, so it observes no
//     mid-flight mutation and no undelivered TTL effect — re-copy what
//     changed since the snapshot, until a round comes back small.
//  3. CUTOVER: a short barrier under the moving shard's token drains
//     the final delta, journals the RESHARD COMMIT, rewrites the
//     MANIFEST, and publishes the new table. Writers blocked on the
//     token re-check ownership when they resume and retry through the
//     published table (errMovedKey); nothing is ever acknowledged and
//     lost.
//
// Durably, the reshard journals RESHARD BEGIN before copying and
// RESHARD COMMIT at the cutover's commit point — both to the log that
// survives the reshard (the split source's; the merge survivor's), both
// under that shard's token so they can never interleave a 2PC
// PREPARE/COMMIT window. Recovery resolves a mid-reshard crash from
// that journal (reshard_recover.go): BEGIN without COMMIT rolls back,
// BEGIN+COMMIT past the MANIFEST's epoch rolls forward. ckptHold pauses
// the hosting log's checkpoints meanwhile, so rotation cannot truncate
// the BEGIN a crash would need.

// copyBatch bounds one applied copy batch; deltaSmall is the round size
// under which the copy loop hands off to the cutover barrier.
const (
	copyBatch     = 256
	deltaSmall    = 128
	deltaRounds   = 8
	mergeBarrierN = 64
)

// posByID returns the table position of the shard with the given
// stable id, -1 when absent.
func (t *routingTable) posByID(id int) int {
	for i, sh := range t.shards {
		if sh.idx == id {
			return i
		}
	}
	return -1
}

// Split halves the hash slice of the shard with stable id srcID onto a
// brand-new shard, live. wantEpoch must match the current routing epoch
// (the admin client's view — a stale view gets *wire.WrongEpochError
// and refreshes). Returns the routing epoch the split published.
func (s *Store) Split(ctx context.Context, wantEpoch uint64, srcID int) (uint64, error) {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	tab := s.tab()
	if wantEpoch != tab.epoch {
		return 0, &wire.WrongEpochError{Have: wantEpoch, Want: tab.epoch}
	}
	srcPos := tab.posByID(srcID)
	if srcPos < 0 {
		return 0, fmt.Errorf("server: SPLIT of unknown shard %d", srcID)
	}
	src := tab.shards[srcPos]
	sl := tab.slices[srcPos]
	if sl.mod >= 1<<62 {
		return 0, fmt.Errorf("server: shard %d at modulus %d cannot split further", srcID, sl.mod)
	}
	srcMod, srcRes, dstMod, dstRes := splitSlices(sl.mod, sl.res)
	newEpoch := tab.epoch + 1
	dstID := s.nextID
	durable := s.durable()

	dst, err := s.freshShard(dstID)
	if err != nil {
		return 0, err
	}
	abort := func(err error) (uint64, error) {
		// Live rollback: the new shard never went live and nothing was
		// acknowledged against it. The journal's BEGIN (if it landed) has
		// no COMMIT, so a crash after this point reaches the same state.
		src.resharding.Store(false)
		src.ckptHold.Store(false)
		if dst.wal != nil {
			dst.wal.Close()
		}
		s.removeLogDir(dst.walName)
		return 0, err
	}

	// Flip the capture gate and wait out the grace period: from here on
	// every mutation on src holds src's token and marks rdirty.
	// ckptHold goes first so no rotation can run between the BEGIN below
	// and the cutover's COMMIT.
	src.ckptHold.Store(true)
	src.resharding.Store(true)
	s.grace.synchronize()

	// The cutover must finish even if the admin client hangs up.
	bctx := context.WithoutCancel(ctx)

	// Journal BEGIN under src's token. The fence also serializes after
	// any mutation that was mid-commit at the gate flip.
	rs := &wal.Reshard{Op: wal.ReshardSplit, Src: srcID, Dst: dstID,
		Mod: srcMod, Res: srcRes, Mod2: dstMod, Res2: dstRes, Dir: dst.walName}
	err = src.tm.AtomicCtx(bctx, func(*core.Tx) error {
		if durable {
			return src.wal.Append(wal.AppendReshardBegin(nil, newEpoch, rs))
		}
		return nil
	}, core.WithSemantics(core.Irrevocable), core.WithLabel("reshard-begin"))
	if err != nil {
		return abort(err)
	}

	// Only the new shard's half moves; it is a strict subset of src's
	// slice, so keys a lazy cleanup left from an EARLIER reshard can
	// never match (they fail src's current slice, hence dst's too).
	owns := func(k string) bool { return hashKeyStr(k)%dstMod == dstRes }
	// Copy batches land on dst as quiet mutations — the values are not
	// new, they moved. dst is not yet routable: no concurrent writer, so
	// no token beyond what its own log's ordering takes.
	sink := func(ops []wal.Op) error {
		return s.applyOps(bctx, dst, ops, mutOpts{quiet: true, label: "reshard-copy"})
	}
	pendingTTL := make(map[string]int64)

	if err := s.copyPhase(bctx, src, owns, sink, pendingTTL, func() error {
		// A concurrent FLUSH voided everything shipped so far.
		clear(pendingTTL)
		return sink([]wal.Op{{Kind: wal.OpFlush}})
	}); err != nil {
		return abort(err)
	}

	// Cutover barrier: src's token blocks every writer; the final delta
	// is read through the barrier's own transaction, applied to dst
	// (which commits immediately — dst has no concurrent writers), and
	// the new table published before the token is released.
	err = src.tm.AtomicCtx(bctx, func(tx *core.Tx) error {
		src.notif.Sync()
		taken, flushed := src.rdirty.take()
		var finals []wal.Op
		if flushed {
			clear(pendingTTL)
			if err := sink([]wal.Op{{Kind: wal.OpFlush}}); err != nil {
				return err
			}
			if err := src.m.RangeTx(tx, "", "", 0, func(k, v string) bool {
				if owns(k) {
					finals = append(finals, wal.Op{Kind: wal.OpSet, Key: k, Val: v})
					trackTTL(src, k, false, pendingTTL)
				}
				return true
			}); err != nil {
				return err
			}
		} else {
			for k := range taken {
				if !owns(k) {
					continue
				}
				v, ok, err := src.m.GetTx(tx, k)
				if err != nil {
					return err
				}
				if ok {
					finals = append(finals, wal.Op{Kind: wal.OpSet, Key: k, Val: v})
				} else {
					finals = append(finals, wal.Op{Kind: wal.OpDel, Key: k})
				}
				trackTTL(src, k, !ok, pendingTTL)
			}
		}
		if len(finals) > 0 {
			if err := sink(finals); err != nil {
				return err
			}
		}
		for k, d := range pendingTTL {
			dst.ttl.set(k, d)
		}
		// The commit point: after this append a crash rolls FORWARD.
		if durable {
			if err := src.wal.Append(wal.AppendReshardCommit(nil, newEpoch)); err != nil {
				return err
			}
		}
		next := splitTable(tab, srcPos, dst, srcMod, srcRes, dstMod, dstRes, newEpoch)
		if durable {
			if err := writeStoreManifest(s.walDir, s.manifestFor(next, dstID+1)); err != nil && s.logf != nil {
				// Not fatal: the journal's COMMIT already decides recovery;
				// the next manifest rewrite heals the file.
				s.logf("polyserve: split epoch=%d: manifest rewrite: %v (journal will roll forward)", newEpoch, err)
			}
		}
		s.table.Store(next)
		return nil
	}, core.WithSemantics(core.Irrevocable), core.WithLabel("reshard-cutover"))
	if err != nil {
		return abort(err)
	}

	s.nextID = dstID + 1
	src.resharding.Store(false)
	src.ckptHold.Store(false)
	s.reshardSplits.Add(1)
	if s.logf != nil {
		s.logf("polyserve: split shard %d -> new shard %d, routing epoch %d", srcID, dstID, newEpoch)
	}
	if hook := s.reshardHook.Load(); hook != nil {
		(*hook)(newEpoch)
	}
	// Lazily scrub the moved half off src — reads already route past it.
	// The scrub holds reshardMu for its (bounded, batched) duration: a
	// MERGE folding the moved half back, or another SPLIT of src, must
	// not interleave with deletes planned against the pre-scrub table.
	go func() {
		s.reshardMu.Lock()
		defer s.reshardMu.Unlock()
		if n, err := s.cleanShard(context.Background(), src); err != nil {
			if s.logf != nil {
				s.logf("polyserve: split cleanup of shard %d: %v", srcID, err)
			}
		} else if n > 0 && s.logf != nil {
			s.logf("polyserve: split cleanup removed %d moved keys from shard %d", n, srcID)
		}
	}()
	return newEpoch, nil
}

// Merge folds the shard with stable id bID back into its buddy aID,
// live. The two must be an exact split pair (see mergeable); either
// order is accepted — the lower-residue shard survives. Returns the
// routing epoch the merge published.
func (s *Store) Merge(ctx context.Context, wantEpoch uint64, aID, bID int) (uint64, error) {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	tab := s.tab()
	if wantEpoch != tab.epoch {
		return 0, &wire.WrongEpochError{Have: wantEpoch, Want: tab.epoch}
	}
	if aID == bID {
		return 0, fmt.Errorf("server: MERGE of shard %d with itself", aID)
	}
	aPos, bPos := tab.posByID(aID), tab.posByID(bID)
	if aPos < 0 || bPos < 0 {
		return 0, fmt.Errorf("server: MERGE of unknown shard %d", map[bool]int{true: aID, false: bID}[aPos < 0])
	}
	// The survivor is the lower-residue shard: its token hosts the
	// journal and the barrier, and lower-residue-first matches the 2PC
	// token order (table order), keeping the cutover deadlock-free.
	if tab.slices[aPos].res > tab.slices[bPos].res {
		aID, bID = bID, aID
		aPos, bPos = bPos, aPos
	}
	asl, bsl := tab.slices[aPos], tab.slices[bPos]
	mod, res, err := mergeable(asl.mod, asl.res, bsl.mod, bsl.res)
	if err != nil {
		return 0, err
	}
	a, b := tab.shards[aPos], tab.shards[bPos]
	newEpoch := tab.epoch + 1
	durable := s.durable()

	a.ckptHold.Store(true)
	b.ckptHold.Store(true)
	b.resharding.Store(true)
	s.grace.synchronize()
	abort := func(err error) (uint64, error) {
		b.resharding.Store(false)
		a.ckptHold.Store(false)
		b.ckptHold.Store(false)
		return 0, err
	}
	bctx := context.WithoutCancel(ctx)

	// Journal BEGIN in the SURVIVOR's log, under its token — the copy
	// records land in the same log after it, the COMMIT after those.
	rs := &wal.Reshard{Op: wal.ReshardMerge, Src: bID, Dst: aID, Mod: mod, Res: res, Dir: b.walName}
	if durable {
		err := a.tm.AtomicCtx(bctx, func(*core.Tx) error {
			return a.wal.Append(wal.AppendReshardBegin(nil, newEpoch, rs))
		}, core.WithSemantics(core.Irrevocable), core.WithLabel("reshard-begin"))
		if err != nil {
			return abort(err)
		}
	}

	// Only keys b currently OWNS move — a key a lazy cleanup left from
	// an earlier split may hash into the survivor's half of the merged
	// slice, and copying its stale value would clobber a's live one.
	owns := func(k string) bool { return hashKeyStr(k)%bsl.mod == bsl.res }
	// Copy batches land on a — a live shard with concurrent writers and
	// 2PC records in its log — under its token (force), as quiet
	// mutations: the values are not new, they moved.
	sink := func(ops []wal.Op) error {
		return s.applyOps(bctx, a, ops, mutOpts{force: true, quiet: true, label: "reshard-copy"})
	}
	pendingTTL := make(map[string]int64)

	if err := s.copyPhase(bctx, b, owns, sink, pendingTTL, func() error {
		// A concurrent FLUSH was a cross-shard commit: it already cleared
		// both a (voiding every copy shipped so far, in a's own commit
		// order) and b. Nothing to undo — just restart the tracking.
		clear(pendingTTL)
		return nil
	}); err != nil {
		return abort(err)
	}

	// Cutover: converge-and-verify. The barrier takes a's token, then
	// b's (ascending residue, the global token order — no deadlock with
	// cross-shard commits), and checks that b has no undrained delta. A
	// dirty round releases both tokens, drains it through the normal
	// copy path, and retries; a clean round cuts over while both tokens
	// are held, so no b-writer can slip between the check and the
	// publish, and every copy into a has already committed.
	for try := 0; ; try++ {
		var residual []string
		var flushed, done bool
		err := a.tm.AtomicCtx(bctx, func(*core.Tx) error {
			return b.tm.AtomicCtx(bctx, func(*core.Tx) error {
				b.notif.Sync()
				taken, fl := b.rdirty.take()
				if fl || len(taken) > 0 {
					flushed = fl
					for k := range taken {
						if owns(k) {
							residual = append(residual, k)
						}
					}
					if !fl && len(residual) == 0 {
						// Only keys outside b's slice changed (cleanup
						// tombstones) — nothing to drain after all.
					} else {
						return nil
					}
				}
				for k, d := range pendingTTL {
					a.ttl.set(k, d)
				}
				if durable {
					if err := a.wal.Append(wal.AppendReshardCommit(nil, newEpoch)); err != nil {
						return err
					}
				}
				next := mergeTable(tab, aPos, bPos, mod, res, newEpoch)
				if durable {
					if err := writeStoreManifest(s.walDir, s.manifestFor(next, s.nextID)); err != nil && s.logf != nil {
						s.logf("polyserve: merge epoch=%d: manifest rewrite: %v (journal will roll forward)", newEpoch, err)
					}
				}
				s.table.Store(next)
				done = true
				return nil
			}, core.WithSemantics(core.Irrevocable), core.WithLabel("reshard-cutover"))
		}, core.WithSemantics(core.Irrevocable), core.WithLabel("reshard-cutover"))
		if err != nil {
			return abort(err)
		}
		if done {
			break
		}
		if try >= mergeBarrierN {
			return abort(fmt.Errorf("server: MERGE of shard %d into %d could not converge under sustained write load", bID, aID))
		}
		if flushed {
			clear(pendingTTL)
			var keys []string
			if err := b.m.SnapshotAllCtx(bctx, func(k, v string) error {
				if owns(k) {
					keys = append(keys, k)
				}
				return nil
			}); err != nil {
				return abort(err)
			}
			residual = keys
		}
		if err := s.copyKeys(bctx, b, residual, pendingTTL, sink); err != nil {
			return abort(err)
		}
	}

	a.ckptHold.Store(false)
	s.reshardMerges.Add(1)
	if s.logf != nil {
		s.logf("polyserve: merged shard %d into shard %d, routing epoch %d", bID, aID, newEpoch)
	}
	if hook := s.reshardHook.Load(); hook != nil {
		(*hook)(newEpoch)
	}
	// Retire b: wait out one grace period so no in-flight gated mutation
	// still references it (each such mutation re-checks ownership before
	// touching the log and bails with errMovedKey), then close its log
	// under its own token — anything that held the token before us has
	// finished its append; anything after re-checks and never appends.
	s.grace.synchronize()
	b.resharding.Store(false)
	b.ckptHold.Store(false)
	// A connection may still hold an ack gate on b (gates are waited
	// outside the grace period): its log wait is answered by the Close
	// below, and its sync-ack wait must not run at all — b's position no
	// longer names it, and followers re-sync the merged shard whole.
	b.replWait.Store(nil)
	if durable {
		berr := b.tm.AtomicCtx(bctx, func(*core.Tx) error {
			return b.wal.Close()
		}, core.WithSemantics(core.Irrevocable), core.WithLabel("reshard-retire"))
		if berr != nil && s.logf != nil {
			s.logf("polyserve: closing merged shard %d's log: %v", bID, berr)
		}
		if err := s.removeLogDir(b.walName); err != nil && s.logf != nil {
			s.logf("polyserve: removing merged shard %d's log dir: %v", bID, err)
		}
	}
	return newEpoch, nil
}

// splitTable derives the split's published table: src's slice halved in
// place, dst inserted at its residue-order position.
func splitTable(tab *routingTable, srcPos int, dst *shard, srcMod, srcRes, dstMod, dstRes uint64, epoch uint64) *routingTable {
	hs := slices.Clone(tab.slices)
	hs[srcPos] = hashSlice{mod: srcMod, res: srcRes}
	at := len(hs)
	for i := range hs {
		if hs[i].res > dstRes {
			at = i
			break
		}
	}
	hs = slices.Insert(hs, at, hashSlice{mod: dstMod, res: dstRes})
	return newRoutingTable(epoch, slices.Insert(slices.Clone(tab.shards), at, dst), hs)
}

// mergeTable derives the merge's published table: b removed, a's slice
// widened in place (a's residue is unchanged, so the order holds).
func mergeTable(tab *routingTable, aPos, bPos int, mod, res uint64, epoch uint64) *routingTable {
	hs := slices.Clone(tab.slices)
	hs[aPos] = hashSlice{mod: mod, res: res}
	hs = slices.Delete(hs, bPos, bPos+1)
	return newRoutingTable(epoch, slices.Delete(slices.Clone(tab.shards), bPos, bPos+1), hs)
}

// manifestFor renders a routing table as the manifest to persist with
// it.
func (s *Store) manifestFor(t *routingTable, nextID int) *storeManifest {
	m := &storeManifest{Epoch: t.epoch, NextID: nextID, Shards: make([]manifestShard, len(t.shards))}
	for i, sh := range t.shards {
		m.Shards[i] = manifestShard{ID: sh.idx, Mod: t.slices[i].mod, Res: t.slices[i].res, Dir: sh.walName}
	}
	return m
}

// copyPhase runs the bulk snapshot walk plus the delta rounds of one
// reshard's copy protocol against source shard src. owns filters to the
// moving keys, sink applies one batch to the receiver, onFlush resets
// receiver-side state after a concurrent FLUSH voided prior batches.
func (s *Store) copyPhase(ctx context.Context, src *shard, owns func(string) bool, sink func([]wal.Op) error, pendingTTL map[string]int64, onFlush func() error) error {
	collect := func() ([]string, error) {
		var keys []string
		err := src.m.SnapshotAllCtx(ctx, func(k, v string) error {
			if owns(k) {
				keys = append(keys, k)
			}
			return nil
		})
		return keys, err
	}
	keys, err := collect()
	if err != nil {
		return err
	}
	if err := s.copyKeys(ctx, src, keys, pendingTTL, sink); err != nil {
		return err
	}
	for round := 0; round < deltaRounds; round++ {
		var taken map[string]struct{}
		var flushed bool
		// The fence: taking under src's token means no mutation is
		// mid-commit (every gated mutation holds the token), and the Sync
		// means every earlier commit's TTL effect has been delivered —
		// the deadline reads below are exact as of the fence.
		err := src.tm.AtomicCtx(ctx, func(*core.Tx) error {
			src.notif.Sync()
			taken, flushed = src.rdirty.take()
			return nil
		}, core.WithSemantics(core.Irrevocable), core.WithLabel("reshard-delta"))
		if err != nil {
			return err
		}
		keys = keys[:0]
		if flushed {
			if err := onFlush(); err != nil {
				return err
			}
			if keys, err = collect(); err != nil {
				return err
			}
		} else {
			for k := range taken {
				if owns(k) {
					keys = append(keys, k)
				}
			}
		}
		if len(keys) > 0 {
			if err := s.copyKeys(ctx, src, keys, pendingTTL, sink); err != nil {
				return err
			}
		}
		if !flushed && len(keys) < deltaSmall {
			break
		}
	}
	return nil
}

// copyKeys streams the current committed value — or a tombstone — of
// every listed key out of src in snapshot-read batches (emitKeys, the
// machinery checkpoint deltas and replication catch-up share) and
// applies them through sink, tracking TTL deadlines as it goes.
func (s *Store) copyKeys(ctx context.Context, src *shard, keys []string, pendingTTL map[string]int64, sink func([]wal.Op) error) error {
	// The batch keeps value strings past the snapshot transaction that
	// read them, and each may alias src's version record (core.SetBytes).
	// That pin is bounded — at most copyBatch records, dropped as soon as
	// the sink, which copies every value into the receiver's own cells,
	// returns — so the values are not cloned a second time here. The
	// cutover barriers' final deltas (finals) are the same case.
	var ops []wal.Op
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		err := sink(ops)
		ops = nil
		return err
	}
	err := s.emitKeys(ctx, src, keys, func(k, v string, del bool) error {
		if del {
			ops = append(ops, wal.Op{Kind: wal.OpDel, Key: k})
		} else {
			ops = append(ops, wal.Op{Kind: wal.OpSet, Key: k, Val: v})
		}
		trackTTL(src, k, del, pendingTTL)
		if len(ops) >= copyBatch {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// trackTTL records key's deadline on src (or its absence) into the
// reshard's pending TTL map, applied to the receiver at cutover.
func trackTTL(src *shard, k string, del bool, pendingTTL map[string]int64) {
	if del {
		delete(pendingTTL, k)
		return
	}
	if d, ok := src.ttl.deadline(k); ok {
		pendingTTL[k] = d
	} else {
		delete(pendingTTL, k)
	}
}

// cleanShard deletes, in bounded batches, every key sh holds but no
// longer owns under the current table — the moved half a split retains
// until this lazy pass, or merge-copy pollution a recovery rolled back.
// The deletes are mutations like any other (through the WAL, so the
// next recovery starts cleaner) but quiet: the keys' values live on, on
// the owning shard. Returns how many were removed.
func (s *Store) cleanShard(ctx context.Context, sh *shard) (int, error) {
	tab := s.tab()
	if tab.epoch == 0 {
		return 0, nil
	}
	pos := tab.posByID(sh.idx)
	if pos < 0 {
		return 0, nil // absorbed by a merge; nothing to scrub
	}
	sl := tab.slices[pos]
	var stale []string
	err := sh.m.SnapshotAllCtx(ctx, func(k, v string) error {
		if hashKeyStr(k)%sl.mod != sl.res {
			stale = append(stale, k)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	removed := 0
	for start := 0; start < len(stale); start += copyBatch {
		end := min(start+copyBatch, len(stale))
		chunk := stale[start:end]
		done := false
		err := s.mutate(ctx, sh, core.Irrevocable, mutOpts{force: true, quiet: true, label: "reshard-clean"}, func(tx *core.Tx, cp *walCapture) error {
			// Re-resolve ownership INSIDE the token: the collection walk
			// above ran lock-free, and a concurrent MERGE may since have
			// folded the moved half back onto this shard (or a SPLIT
			// reshaped it again). Every cutover barrier publishes its
			// table while holding this same token, so the table read
			// here is stable for the whole batch — without this check a
			// lazy scrub racing a merge deletes keys the shard owns
			// again, durably.
			cur := s.tab()
			pos := cur.posByID(sh.idx)
			if pos < 0 {
				done = true // absorbed mid-scrub; nothing left to scrub
				return nil
			}
			csl := cur.slices[pos]
			for _, k := range chunk {
				if hashKeyStr(k)%csl.mod == csl.res {
					continue // owned again — a reshape brought it back
				}
				n, err := sh.applyOp(tx, cp, wal.OpDel, viewBytes(k), nil, effect{})
				if err != nil {
					return err
				}
				removed += n
				sh.ttl.clear(k)
			}
			return nil
		})
		if err != nil {
			return removed, err
		}
		if done {
			break
		}
	}
	return removed, nil
}

// AdoptRouting reshapes a FOLLOWER's table to the primary's published
// topology. Shards are matched by stable id: survivors keep their
// engine and state, new ids get fresh shards (filled by the per-shard
// re-sync the hub forces after a reshard), absent ids are dropped —
// their keys arrive through the surviving shard's stream. Durable
// followers mirror the layout on disk: a new shard gets a log, a
// dropped shard's directory is removed, and the MANIFEST rewritten.
func (s *Store) AdoptRouting(epoch uint64, topo []wire.ReplShardSlice) error {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	tab := s.tab()
	if epoch == tab.epoch {
		return nil
	}
	if epoch < tab.epoch {
		return fmt.Errorf("server: routing epoch %d is older than adopted epoch %d", epoch, tab.epoch)
	}
	if len(topo) == 0 {
		return fmt.Errorf("server: empty routing topology for epoch %d", epoch)
	}
	shards := make([]*shard, len(topo))
	slices := make([]hashSlice, len(topo))
	maxID := s.nextID
	for i, e := range topo {
		if i > 0 && e.Res <= topo[i-1].Res {
			return fmt.Errorf("server: routing topology for epoch %d not in residue order", epoch)
		}
		slices[i] = hashSlice{mod: e.Mod, res: e.Res}
		if shards[i] = tab.byID(int(e.ID)); shards[i] == nil {
			sh, err := s.freshShard(int(e.ID))
			if err != nil {
				return err
			}
			shards[i] = sh
		}
		if int(e.ID)+1 > maxID {
			maxID = int(e.ID) + 1
		}
	}
	next := newRoutingTable(epoch, shards, slices)
	s.nextID = maxID
	s.table.Store(next)
	// Dropped shards: wait out readers still holding the old table, then
	// retire their logs.
	s.grace.synchronize()
	for _, old := range tab.shards {
		if next.byID(old.idx) != nil {
			continue
		}
		if old.wal != nil {
			if err := old.wal.Close(); err != nil && s.logf != nil {
				s.logf("polyserve: closing dropped shard %d's log: %v", old.idx, err)
			}
			s.removeLogDir(old.walName)
		}
	}
	if s.durable() {
		return writeStoreManifest(s.walDir, s.manifestFor(next, maxID))
	}
	return nil
}
