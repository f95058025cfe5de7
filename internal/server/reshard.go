package server

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"polytm/internal/core"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// Online resharding: SPLIT and MERGE rewire the routing table while the
// store serves traffic. Both are one move of a hash slice from the
// moving shard (from) to a receiver (to) — a split's new shard, a
// merge's survivor — and run every step through the same functions:
//
//  1. BEGIN: the moving shard's capture gate (shard.resharding) is
//     flipped and a grace period waited out, so every later mutation on
//     it runs under its irrevocable token and marks the reshard dirty
//     set (rdirty). A barrier then fences the host — the shard whose log
//     takes the journal: the split source, the merge survivor — and the
//     moving shard, and journals RESHARD BEGIN inside it.
//  2. BULK: a chunked walk (shard.walk) ships the moving keys, one
//     snapshot read per chunk.
//  3. DELTA: rounds of take — rdirty.take() under the moving shard's
//     token after a notifier Sync, so it observes no mid-flight mutation
//     and no undelivered TTL effect — re-ship what changed since, until
//     a round comes back small.
//  4. CUTOVER: a barrier arms the moved deadlines, journals RESHARD
//     COMMIT, rewrites the MANIFEST and publishes the new table
//     (publish). Writers blocked on a token re-check ownership when they
//     resume and retry through the published table (errMovedKey);
//     nothing is ever acknowledged and lost.
//
// A concurrent FLUSH voids every copy shipped so far, and a batch read
// before it may land after it. ship holds the one rule for that: the
// receiver loses every key of the moving slice — before the cutover only
// copies put such keys there — and the slice is walked again.
//
// The cutover is the one real difference. A split's receiver has no
// other writer, so its barrier holds the source's token and ships the
// final delta inside. A merge's survivor is live and a copy into it
// needs its token, so its barrier (both tokens) only verifies that the
// delta is empty: a clean round publishes, a dirty one ships the delta
// outside and tries again.
//
// BEGIN and COMMIT both land in the host's log under its token, so they
// never interleave a 2PC PREPARE/COMMIT window. Recovery resolves a
// mid-reshard crash from that journal (reshard_recover.go): BEGIN
// without COMMIT rolls back, BEGIN+COMMIT past the MANIFEST's epoch
// rolls forward. ckptHold pauses the host's checkpoints meanwhile, so
// rotation cannot truncate the BEGIN a crash would need.

// copyBatch bounds one applied copy batch; deltaSmall is the round size
// under which the copy loop hands off to the cutover barrier.
const (
	copyBatch     = 256
	deltaSmall    = 128
	deltaRounds   = 8
	mergeBarrierN = 64
)

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

	dst, err := s.freshShard(dstID)
	if err != nil {
		return 0, err
	}
	// Only the new shard's half moves; it is a strict subset of src's
	// slice, so keys an unfinished scrub left from an EARLIER reshard can
	// never match (they fail src's current slice, hence dst's too).
	m := s.newMove(ctx, src, src, dst, hashSlice{mod: dstMod, res: dstRes})
	abort := func(err error) (uint64, error) {
		// Live rollback: the new shard never went live and nothing was
		// acknowledged against it. The journal's BEGIN (if it landed) has
		// no COMMIT, so a crash after this point reaches the same state.
		m.end()
		if dst.wal != nil {
			dst.wal.Close()
		}
		s.removeLogDir(dst.walName)
		return 0, err
	}
	rs := &wal.Reshard{Op: wal.ReshardSplit, Src: srcID, Dst: dstID,
		Mod: srcMod, Res: srcRes, Mod2: dstMod, Res2: dstRes, Dir: dst.walName}
	if err := m.begin(newEpoch, rs); err != nil {
		return abort(err)
	}
	if err := m.copyPhase(); err != nil {
		return abort(err)
	}
	// Cutover: src's token blocks every writer, and dst has none, so the
	// final delta ships inside the barrier — its snapshot reads need no
	// token, and the barrier's own transaction reads nothing — and the
	// new table is published before the token is released.
	next := splitTable(tab, srcPos, dst, srcMod, srcRes, dstMod, dstRes, newEpoch)
	err = barrier(m.ctx, "reshard-cutover", m.fence(), func() error {
		if err := m.ship(m.take()); err != nil {
			return err
		}
		return m.publish(next, dstID+1)
	})
	if err != nil {
		return abort(err)
	}
	s.nextID = dstID + 1
	m.published(&s.reshardSplits, newEpoch, fmt.Sprintf("split shard %d -> new shard %d", srcID, dstID))
	// Scrub the moved half off src before returning — reads already route
	// past it. reshardMu is held throughout, so a MERGE folding the moved
	// half back, or another SPLIT of src, cannot interleave with deletes
	// planned against the pre-scrub table.
	if n, err := s.cleanShard(context.Background(), src); err != nil {
		s.logf("polyserve: split cleanup of shard %d: %v", srcID, err)
	} else if n > 0 {
		s.logf("polyserve: split cleanup removed %d moved keys from shard %d", n, srcID)
	}
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
	// The survivor is the lower-residue shard: its log hosts the journal,
	// and lower-residue-first matches the 2PC token order (table order),
	// keeping the barriers deadlock-free.
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

	// Only keys b currently OWNS move — a key an unfinished scrub left
	// from an earlier split may hash into the survivor's half of the merged
	// slice, and copying its stale value would clobber a's live one.
	m := s.newMove(ctx, a, b, a, bsl)
	abort := func(err error) (uint64, error) {
		m.end()
		return 0, err
	}
	rs := &wal.Reshard{Op: wal.ReshardMerge, Src: bID, Dst: aID, Mod: mod, Res: res, Dir: b.walName}
	if err := m.begin(newEpoch, rs); err != nil {
		return abort(err)
	}
	if err := m.copyPhase(); err != nil {
		return abort(err)
	}
	// Cutover: converge-and-verify. The barrier holds a's token, then
	// b's, and checks that b has no undrained delta. A dirty round
	// releases both, ships the delta — a copy into a needs a's token — and
	// retries; a clean round publishes while both are held, so no
	// b-writer can slip between the check and the publish, and every copy
	// into a has already committed.
	next := mergeTable(tab, aPos, bPos, mod, res, newEpoch)
	for try := 0; ; try++ {
		var keys []string
		var flushed bool
		err := barrier(m.ctx, "reshard-cutover", m.fence(), func() error {
			if keys, flushed = m.take(); flushed || len(keys) > 0 {
				return nil
			}
			return m.publish(next, s.nextID)
		})
		if err != nil {
			return abort(err)
		}
		if !flushed && len(keys) == 0 {
			break
		}
		if try >= mergeBarrierN {
			return abort(fmt.Errorf("server: MERGE of shard %d into %d could not converge under sustained write load", bID, aID))
		}
		if err := m.ship(keys, flushed); err != nil {
			return abort(err)
		}
	}
	m.published(&s.reshardMerges, newEpoch, fmt.Sprintf("merged shard %d into shard %d", bID, aID))
	s.retire(m.ctx, tab, next)
	return newEpoch, nil
}

// retire takes every shard of old that the published table next no
// longer holds out of service; the caller holds reshardMu. One grace
// period first, so no in-flight gated mutation still references them
// (each re-checks ownership before touching the log and bails with
// errMovedKey). Then each log closes under its shard's own token —
// anything that held the token before has finished its append; anything
// after re-checks and never appends — and its directory goes. A
// connection may still hold an ack gate on a retired shard (gates are
// waited outside the grace period): the Close answers its log wait, and
// its sync-ack wait returns at once, the hub's table no longer holding
// the shard's id. The shard's map is let go, but its engine and its
// log's final counter rows stay in STATS: no counter falls once retire
// returns.
func (s *Store) retire(ctx context.Context, old, next *routingTable) {
	s.grace.synchronize()
	r := *s.retired.Load()
	for _, sh := range old.shards {
		if next.posByID(sh.idx) >= 0 {
			continue
		}
		r.engines = append(slices.Clip(r.engines), sh.tm.Engine())
		if sh.wal == nil {
			continue
		}
		if err := barrier(ctx, "reshard-retire", []*shard{sh}, sh.wal.Close); err != nil {
			s.logf("polyserve: closing retired shard %d's log: %v", sh.idx, err)
		}
		if err := s.removeLogDir(sh.walName); err != nil {
			s.logf("polyserve: removing retired shard %d's log dir: %v", sh.idx, err)
		}
		for j, v := range walFigures(sh.wal) {
			if walStats[j].counter {
				r.wal[j] += v
			}
		}
	}
	s.retired.Store(&r)
}

// barrier runs fn holding the irrevocable tokens of shards, nested in
// table order — the order cross-shard commits take them — so nothing
// commits on any of them meanwhile.
func barrier(ctx context.Context, label string, shards []*shard, fn func() error) error {
	if len(shards) == 0 {
		return fn()
	}
	return shards[0].tm.AtomicCtx(ctx, func(*core.Tx) error {
		return barrier(ctx, label, shards[1:], fn)
	}, core.WithSemantics(core.Irrevocable), core.WithLabel(label))
}

// move is one reshard's copy of a hash slice from one shard to another.
type move struct {
	s        *Store
	ctx      context.Context
	host     *shard           // logs the journal: the split source, the merge survivor
	from, to *shard           // the moving shard and the receiver
	slice    hashSlice        // the keys that move
	ttl      map[string]int64 // their deadlines on from, armed on to at cutover
}

func (s *Store) newMove(ctx context.Context, host, from, to *shard, sl hashSlice) *move {
	// The cutover must finish even if the admin client hangs up.
	return &move{s: s, ctx: context.WithoutCancel(ctx), host: host, from: from, to: to, slice: sl, ttl: make(map[string]int64)}
}

// fence lists the shards BEGIN and the cutover hold, in table order:
// the host and, when it is another shard, the moving one.
func (m *move) fence() []*shard {
	if m.host == m.from {
		return []*shard{m.from}
	}
	return []*shard{m.host, m.from}
}

// begin flips the capture gate, waits out the grace period, and journals
// BEGIN under the fence. The fence is what serializes the walk after a
// mutation that was mid-commit at the flip: a cross-shard participant
// applies its share on from before the flip without marking rdirty, and
// holds from's token until it commits. ckptHold goes first so no
// rotation can run between BEGIN and the cutover's COMMIT.
func (m *move) begin(epoch uint64, rs *wal.Reshard) error {
	m.host.ckptHold.Store(true)
	m.from.ckptHold.Store(true)
	m.from.resharding.Store(true)
	m.s.grace.synchronize()
	return barrier(m.ctx, "reshard-begin", m.fence(), func() error {
		if !m.s.durable() {
			return nil
		}
		return m.host.wal.Append(wal.AppendReshardBegin(nil, epoch, rs))
	})
}

// end closes the capture gate, drops what from's delta still holds, and
// lets both logs checkpoint again. A written key in the delta views its
// node in from's map and would keep it alive once deleted; after one
// grace period nothing marks the delta until the next move, which
// starts from a full copy.
func (m *move) end() {
	m.from.resharding.Store(false)
	m.s.grace.synchronize()
	m.from.rdirty.take()
	m.host.ckptHold.Store(false)
	m.from.ckptHold.Store(false)
}

// copyPhase ships the whole slice, then rounds of deltas until one
// comes back small.
func (m *move) copyPhase() error {
	if err := m.ship(nil, true); err != nil {
		return err
	}
	for round := 0; round < deltaRounds; round++ {
		var keys []string
		var flushed bool
		if err := barrier(m.ctx, "reshard-delta", []*shard{m.from}, func() error {
			keys, flushed = m.take()
			return nil
		}); err != nil {
			return err
		}
		if err := m.ship(keys, flushed); err != nil {
			return err
		}
		if !flushed && len(keys) < deltaSmall {
			break
		}
	}
	return nil
}

// take drains from's delta down to the moving keys. The caller holds
// from's token, so no mutation is mid-commit, and after the Sync every
// earlier commit's TTL effect has been delivered — the deadlines ship
// reads are exact as of the fence.
func (m *move) take() (keys []string, flushed bool) {
	m.from.notif.Sync()
	taken, flushed := m.from.rdirty.take()
	for k := range taken {
		if m.slice.owns(k) {
			keys = append(keys, k)
		}
	}
	return keys, flushed
}

// ship copies keys from from to to. flushed means a FLUSH voided every
// copy so far, and a batch read before it may have landed after it: the
// deadlines are dropped, to loses every key of the slice, and the slice
// is walked again.
//
// That walk is chunked, so it copies no single state of from. It need
// not: rdirty has tracked every mutation on from since begin, before
// the first walk, so a key that changed while the walk passed it —
// missed, or copied early — is shipped again at its current value by a
// delta round or the cutover's barrier round.
func (m *move) ship(keys []string, flushed bool) error {
	// Copies are quiet mutations — the values are not new, they moved —
	// under to's token: a merge's survivor has other writers and 2PC
	// records in its log; a split's new shard has neither, and its token
	// costs nothing. An op's value may alias from's version record
	// (core.SetBytes); the pin is bounded — at most copyBatch records,
	// dropped as soon as applyOps, which copies every value into to's own
	// cells, returns — so values are not cloned a second time here.
	var ops []wal.Op
	sink := func() error {
		err := m.s.applyOps(m.ctx, m.to, ops, mutOpts{force: true, quiet: true, label: "reshard-copy"})
		ops = ops[:0]
		return err
	}
	copyOp := func(op wal.Op) error {
		if !m.slice.owns(op.Key) {
			return nil
		}
		if d, ok := m.from.ttl.deadline(op.Key); ok && op.Kind == wal.OpSet {
			m.ttl[op.Key] = d
		} else {
			delete(m.ttl, op.Key)
		}
		if ops = append(ops, op); len(ops) < copyBatch {
			return nil
		}
		return sink()
	}
	var err error
	if flushed {
		clear(m.ttl)
		if _, err = m.s.drop(m.ctx, m.to, m.slice.owns); err == nil {
			err = m.from.walk(m.ctx, copyOp)
		}
	} else {
		err = m.from.emitKeys(m.ctx, keys, copyOp)
	}
	if err != nil || len(ops) == 0 {
		return err
	}
	return sink()
}

// publish is the commit point, run inside the cutover barrier: the
// moved deadlines are armed on to, COMMIT goes to the host's log —
// after it a crash rolls FORWARD — the MANIFEST is rewritten and the
// table published.
func (m *move) publish(next *routingTable, nextID int) error {
	s := m.s
	for k, d := range m.ttl {
		// k is a key from's walk handed out, which views from's node: a
		// split drops that node and a merge retires from, and to's table
		// would keep either alive until the key expires.
		m.to.ttl.set(string(viewBytes(k)), d)
	}
	if s.durable() {
		if err := m.host.wal.Append(wal.AppendReshardCommit(nil, next.epoch)); err != nil {
			return err
		}
		if err := writeStoreManifest(s.walDir, s.manifestFor(next, nextID)); err != nil {
			// Not fatal: the journal's COMMIT already decides recovery;
			// the next manifest rewrite heals the file.
			s.logf("polyserve: reshard epoch=%d: manifest rewrite: %v (journal will roll forward)", next.epoch, err)
		}
	}
	s.table.Store(next)
	return nil
}

// published is the tail of a reshard that cut over: the gate closes,
// and STATS and the log learn the new epoch. A replication hub cuts
// every feed, so each follower learns the new topology through a fresh
// handshake, and its sync-ack table takes the new table's shard ids.
func (m *move) published(n *atomic.Uint64, epoch uint64, what string) {
	m.end()
	n.Add(1)
	m.s.logf("polyserve: %s, routing epoch %d", what, epoch)
	if h := m.s.hub.Load(); h != nil {
		h.CutAll(fmt.Sprintf("routing epoch %d", epoch))
	}
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

// drop deletes every key of sh that stale accepts — proposed by a
// chunked walk, and deleted as the walk goes, copyBatch keys per
// transaction, each asked again under sh's token, where a table-reading
// predicate sees sh's slice hold still (every cutover publishes under
// the tokens of the shards it reshapes). The walk cannot miss a stale
// key: only a move's copies put keys of a slice sh does not own on it,
// and a delete behind the walk's cursor does not move it. The deletes
// are mutations like any other, through the WAL, but quiet: the values
// live on, on the owning shard, or nowhere after a FLUSH. Returns how
// many were removed.
func (s *Store) drop(ctx context.Context, sh *shard, stale func(string) bool) (int, error) {
	removed := 0
	var keys []string
	del := func() error {
		err := s.mutate(ctx, sh, core.Irrevocable, mutOpts{force: true, quiet: true, label: "reshard-clean"}, func(tx *core.Tx, cp *walCapture) error {
			for _, k := range keys {
				if !stale(k) {
					continue
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
		keys = keys[:0]
		return err
	}
	err := sh.walk(ctx, func(op wal.Op) error {
		if !stale(op.Key) {
			return nil
		}
		if keys = append(keys, op.Key); len(keys) < copyBatch {
			return nil
		}
		return del()
	})
	if err == nil && len(keys) > 0 {
		err = del()
	}
	return removed, err
}

// cleanShard deletes every key sh holds but no longer owns under the
// current table — the moved half a split scrubs before it returns,
// or merge-copy pollution a recovery rolled back. Ownership is resolved
// again under the token: a concurrent MERGE may have folded the moved
// half back onto sh since the walk (or a SPLIT reshaped it again), and
// without the re-check a scrub racing a merge deletes keys the shard
// owns again, durably. Returns how many were removed.
func (s *Store) cleanShard(ctx context.Context, sh *shard) (int, error) {
	if s.tab().epoch == 0 {
		return 0, nil
	}
	return s.drop(ctx, sh, func(k string) bool {
		tab := s.tab()
		pos := tab.posByID(sh.idx) // -1: absorbed by a merge, nothing to scrub
		return pos >= 0 && !tab.slices[pos].owns(k)
	})
}

// AdoptRouting reshapes a FOLLOWER's table to the primary's published
// topology whenever its shape — stable ids and hash slices — or epoch
// differs from the store's, and reports whether it did. A topology that
// does not route every key to exactly one shard is refused. Shards are
// matched by stable id (build): survivors keep their engine and state,
// new ids get fresh shards, absent ids retire — their keys arrive through
// the full catch-up every reshaped shard gets. Durable followers mirror
// the layout on disk: a new shard gets a log, a dropped shard's
// directory is removed, and the MANIFEST rewritten.
func (s *Store) AdoptRouting(epoch uint64, topo []wire.ReplShardSlice) (bool, error) {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	tab := s.tab()
	man := &storeManifest{Epoch: epoch, NextID: s.nextID, Shards: make([]manifestShard, len(topo))}
	for i, e := range topo {
		man.Shards[i] = manifestShard{ID: int(e.ID), Mod: e.Mod, Res: e.Res}
		man.NextID = max(man.NextID, int(e.ID)+1)
	}
	if _, have := s.Routing(); epoch == tab.epoch && slices.Equal(have, topo) {
		return false, nil
	}
	if epoch < tab.epoch {
		return false, fmt.Errorf("server: routing epoch %d is older than adopted epoch %d", epoch, tab.epoch)
	}
	if err := man.check(); err != nil {
		return false, fmt.Errorf("server: routing topology for epoch %d: %w", epoch, err)
	}
	next, err := s.build(man, s.freshShard)
	if err != nil {
		return false, err
	}
	s.table.Store(next)
	s.retire(context.TODO(), tab, next)
	if s.durable() {
		return true, writeStoreManifest(s.walDir, s.manifestFor(next, s.nextID))
	}
	return true, nil
}
