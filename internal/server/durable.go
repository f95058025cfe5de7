package server

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"polytm/internal/core"
	"polytm/internal/wal"
)

// Durability configures a Store's write-ahead log. A sharded store
// owns one log per shard, laid out under Dir:
//
//	Dir/MANIFEST              pins the routing table the logs were written under
//	Dir/shard-0000/wal-*.log  shard 0's segments and checkpoints
//	Dir/shard-0001/...        ...
//
// A single-shard store keeps its files at Dir's root — the exact
// layout earlier releases wrote — so existing directories open
// unchanged and read back as one shard.
type Durability struct {
	// Dir is the log directory ("" disables durability).
	Dir string
	// Fsync is the acknowledgement policy (zero value: wal.ModeBatch).
	Fsync wal.Mode
	// BatchWindow is the background fsync cadence for wal.ModeBatch.
	// 0 picks a default that keeps the store's TOTAL fsync rate at the
	// wal base cadence regardless of shard count: each shard's window
	// is stretched to shards × the base, since every shard log syncs
	// its own file.
	BatchWindow time.Duration
	// CheckpointEvery is the background checkpoint cadence
	// (0 = 1 minute; negative disables background checkpoints).
	CheckpointEvery time.Duration
	// MaxChain bounds each shard's delta-checkpoint chain length: a
	// checkpoint that would become the MaxChain+1'th delta writes a full
	// base instead (compaction). 0 picks the default (8); negative
	// disables incremental checkpoints entirely — every checkpoint is a
	// full base, the pre-chain behaviour.
	MaxChain int

	// onDurableRecord is plumbed through to wal.Options.OnDurableRecord
	// on every shard's log. Crash tests inject kill points through it.
	onDurableRecord func(firstByte byte)
	// compactRatio bounds each chain's delta-bytes/base-bytes ratio:
	// once the chain's accumulated delta bytes reach compactRatio × the
	// base's bytes, the next checkpoint compacts into a full base.
	// 0 picks the default (0.5); tests move it to isolate one trigger.
	compactRatio float64
}

// RecoverSummary is what EnableDurability reconstructed: one
// wal.RecoverResult per shard, plus the outcome of the cross-shard
// resolution pass over in-doubt prepares.
type RecoverSummary struct {
	// Shards holds each shard's recovery result, indexed by shard.
	Shards []*wal.RecoverResult
	// Committed counts in-doubt prepares that were applied because
	// their epoch is in the coordinator shard's durable decision set.
	Committed int
	// RolledBack counts in-doubt prepares discarded because the
	// coordinator never durably decided — the crash hit inside the
	// prepare window, before any client was acknowledged.
	RolledBack int
}

// String summarizes the recovery for logs, shard by shard.
func (r *RecoverSummary) String() string {
	parts := make([]string, len(r.Shards))
	for i, res := range r.Shards {
		parts[i] = fmt.Sprintf("shard %d: %s", i, res)
	}
	s := strings.Join(parts, "; ")
	if r.Committed != 0 {
		s += fmt.Sprintf(", committed %d in-doubt prepares", r.Committed)
	}
	if r.RolledBack != 0 {
		s += fmt.Sprintf(", rolled back %d in-doubt prepares", r.RolledBack)
	}
	return s
}

const manifestName = "MANIFEST"

// EnableDurability attaches one write-ahead log per shard to the
// store: it recovers the directory's durable state INTO the store,
// then routes every subsequent mutation through its shard's log and
// starts the background checkpointer. It must be called before the
// store serves traffic, and pairs with CloseDurability.
//
// The directory's MANIFEST records the routing table its logs were
// written under, and the store adopts it whatever shard count it was
// built with: keys hash to shards, so the logs only make sense under
// that table. The constructor's count only sizes a fresh directory;
// SPLIT and MERGE change the count afterwards and rewrite the MANIFEST
// with it.
//
// On any error every log opened so far is closed and detached again.
func (s *Store) EnableDurability(d Durability) (sum *RecoverSummary, err error) {
	if s.durable() {
		return nil, fmt.Errorf("server: durability already enabled")
	}
	if d.Dir == "" {
		return nil, fmt.Errorf("server: durability needs a directory")
	}
	man, err := pinManifest(d.Dir, s.NumShards())
	if err != nil {
		return nil, err
	}
	s.walDir, s.walOpts = d.Dir, d.walOptions(len(man.Shards), s.diag)

	tab, results, err := s.openShards(man)
	defer func() {
		if err == nil {
			return
		}
		for _, sh := range tab.shards {
			if sh.wal != nil {
				sh.wal.Close()
				sh.wal = nil
			}
		}
	}()
	if err != nil {
		return nil, err
	}
	if tab, err = s.resolveReshard(tab, results); err != nil {
		return nil, err
	}
	if sum, err = s.resolveInDoubt(tab, results); err != nil {
		return nil, err
	}
	// New cross-shard epochs must clear everything still resolvable
	// from any surviving record.
	var maxEpoch uint64
	for _, res := range sum.Shards {
		maxEpoch = max(maxEpoch, res.MaxEpoch)
	}
	s.epoch.Store(maxEpoch)

	// Resolve the chain policy and stamp this process's incarnation: WAL
	// seqs are per-process, so a follower's applied position is only
	// comparable to a chain's cover points within one primary lifetime —
	// the incarnation is how both sides know they are talking about the
	// same seq space (see Store.CatchUp).
	s.ckptMaxChain = d.MaxChain
	if s.ckptMaxChain == 0 {
		s.ckptMaxChain = 8
	}
	s.ckptRatio = d.compactRatio
	if s.ckptRatio == 0 {
		s.ckptRatio = 0.5
	}
	s.incarnation = uint64(time.Now().UnixNano())
	// Publish the recovered table (its epoch exceeds the manifest's if a
	// journal rolled forward), then scrub reshard leftovers: a shard can
	// hold keys it no longer owns — a split source whose scrub a crash
	// cut short, or merge-copy pollution a rollback left in the
	// survivor's log. The scrub deletes them through the WAL like any
	// mutation, so the next recovery starts cleaner.
	s.table.Store(tab)
	for _, sh := range tab.shards {
		if _, err := s.cleanShard(context.Background(), sh); err != nil {
			return nil, fmt.Errorf("server: shard %d: reshard scrub: %w", sh.idx, err)
		}
	}
	every := d.CheckpointEvery
	if every == 0 {
		every = time.Minute
	}
	if every > 0 {
		// The checkpoint in flight runs under the loop's context, so
		// CloseDurability is never held hostage by a long walk over a big
		// keyspace — the partial .tmp file is abandoned and the log keeps
		// its segments.
		s.ckpt.start(every, func(ctx context.Context) {
			if err := s.Checkpoint(ctx); err != nil {
				s.logf("polyserve: checkpoint: %v", err)
			}
		})
	}
	return sum, nil
}

// pinManifest reads dir's MANIFEST. Without one, the directory is
// pinned to the v1 layout: one shard when its logs sit at the root (the
// layout earlier releases wrote), n shards when it is fresh. Shard
// directories without a MANIFEST are refused: the slices their logs
// were written under are unknown, and guessing scatters keys.
func pinManifest(dir string, n int) (*storeManifest, error) {
	man, err := openManifest(dir)
	if man != nil || err != nil {
		return man, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() && strings.HasPrefix(name, "shard-"):
			return nil, fmt.Errorf("server: %s holds %s but no %s — restore the %s or point at a fresh directory",
				dir, name, manifestName, manifestName)
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"),
			strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".ckpt"):
			n = 1
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man = legacyManifest(n)
	return man, writeStoreManifest(dir, man)
}

// walOptions renders d as the options every shard's log opens with.
// The batch-fsync window scales with the shard count: each shard's log
// has its own background syncer against its own file, so n shards at
// the base cadence would fsync the disk n times as often as one shard
// did — on a small machine that alone erases the sharding win.
// Stretching each window to n× the base keeps the store's TOTAL fsync
// rate constant; the machine-crash loss bound becomes at most one
// (stretched) window per shard. logf is the store's diagnostics sink.
func (d Durability) walOptions(n int, logf func(string, ...any)) wal.Options {
	window := d.BatchWindow
	if d.Fsync == wal.ModeBatch && window <= 0 {
		window = time.Duration(n) * 2 * time.Millisecond // the log's own default, n times over
	}
	return wal.Options{Mode: d.Fsync, BatchWindow: window, Logf: logf, OnDurableRecord: d.onDurableRecord}
}

// openShards adopts the manifest's table onto the store (see build)
// and recovers every shard's log into its shard, all shards in
// parallel. The store is empty before recovery, so a shard the manifest
// lacks is simply dropped. Results are keyed by stable shard id. The
// table comes back on error too: the caller's cleanup walks it.
func (s *Store) openShards(man *storeManifest) (*routingTable, map[int]*wal.RecoverResult, error) {
	tab, _ := s.build(man, func(id int) (*shard, error) { return s.newShard(id, s.mkTM()), nil }) // add never fails
	res := make([]*wal.RecoverResult, len(tab.shards))
	errs := make([]error, len(tab.shards))
	var wg sync.WaitGroup
	for i, sh := range tab.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = s.openShardLog(sh, man.Shards[i].Dir)
		}()
	}
	wg.Wait()
	results := make(map[int]*wal.RecoverResult, len(tab.shards))
	for i, sh := range tab.shards {
		results[sh.idx] = res[i]
	}
	return tab, results, errors.Join(errs...)
}

// build makes the table a checked shape describes out of the store's
// current one: a shard it holds under the same stable id keeps its
// engine and contents, and any other is made by add. Id 0 owns residue
// 0 in every table SPLIT and MERGE reach, so the engine a one-shard
// store was built with keeps serving it.
func (s *Store) build(man *storeManifest, add func(id int) (*shard, error)) (*routingTable, error) {
	tab := s.tab()
	shards := make([]*shard, len(man.Shards))
	slices := make([]hashSlice, len(shards))
	var err error
	for i, e := range man.Shards {
		slices[i] = hashSlice{mod: e.Mod, res: e.Res}
		if pos := tab.posByID(e.ID); pos >= 0 {
			shards[i] = tab.shards[pos]
		} else if shards[i], err = add(e.ID); err != nil {
			return nil, err
		}
	}
	s.nextID = man.NextID
	return newRoutingTable(man.Epoch, shards, slices), nil
}

// openShardLog recovers the log directory name (relative to the WAL
// root) into sh — its newest valid checkpoint chain plus the log tail,
// each record replayed as one quiet mutation — and attaches the log.
// Nothing is re-logged: the log attaches only once the replay is over.
// Replayed TAIL records seed the dirty set: those keys changed past the
// checkpoint chain's head, so the first delta cut after a restart must
// carry them (chain loads do not mark — the chain already covers them).
// A chain with no base makes the first cut a full base instead, so the
// dirty set records nothing until that cut (see dirtySet).
func (s *Store) openShardLog(sh *shard, name string) (*wal.RecoverResult, error) {
	opts := s.walOpts
	opts.OnReplayOps = func(ops []wal.Op) { sh.dirty.markOps(ops) }
	log, res, err := wal.Open(filepath.Join(s.walDir, name), opts, func(ops []wal.Op) error {
		return s.applyOps(context.Background(), sh, ops, mutOpts{quiet: true})
	})
	if err != nil {
		return nil, err
	}
	if log.Chain().BaseSeg == 0 {
		sh.dirty.markFull()
	}
	sh.wal, sh.walName = log, name
	return res, nil
}

// freshShard builds the shard a SPLIT or an adopted topology adds and,
// on a durable store, its log under a directory named by the stable
// id. Ids are never reused, so the name cannot collide with a live
// shard's; whatever already sits there is the leftover of a reshard
// that died before its BEGIN was journaled — nothing references it, and
// it is removed rather than replayed.
func (s *Store) freshShard(id int) (*shard, error) {
	sh := s.newShard(id, s.mkTM())
	if !s.durable() {
		return sh, nil
	}
	name := fmt.Sprintf("shard-%04d", id)
	if err := s.removeLogDir(name); err != nil {
		return nil, err
	}
	if _, err := s.openShardLog(sh, name); err != nil {
		s.removeLogDir(name)
		return nil, err
	}
	return sh, nil
}

// removeLogDir deletes a shard's log directory, unless the shard logs
// to the WAL root itself ("." — the single-shard layout, whose files
// sit beside the MANIFEST) or to nothing at all.
func (s *Store) removeLogDir(name string) error {
	if name == "" || name == "." {
		return nil
	}
	return os.RemoveAll(filepath.Join(s.walDir, name))
}

// resolveInDoubt settles every shard whose log ends in a PREPARE — the
// crash landed inside a cross-shard commit. A committed prepare replays
// as a mutation of its own: applied and re-logged as a plain record
// (the logs are attached by now), so the next recovery replays it
// without needing the decision to still exist.
func (s *Store) resolveInDoubt(tab *routingTable, results map[int]*wal.RecoverResult) (*RecoverSummary, error) {
	sum := &RecoverSummary{Shards: make([]*wal.RecoverResult, len(tab.shards))}
	streams := make([]wal.Stream, len(tab.shards))
	for i, sh := range tab.shards {
		sum.Shards[i] = results[sh.idx]
		streams[i] = wal.Stream{ID: sh.idx, Replay: &results[sh.idx].Replay}
	}
	var err error
	sum.Committed, sum.RolledBack, err = wal.ResolveInDoubt(streams, func(i int, pp *wal.PendingPrepare, commit bool) error {
		sh := tab.shards[i]
		s.logf("polyserve: shard %d: in-doubt prepare epoch=%d, coordinator shard %d decided: %v", sh.idx, pp.Epoch, pp.Coord, commit)
		if !commit {
			return nil
		}
		if err := s.applyOps(context.Background(), sh, pp.Ops, mutOpts{quiet: true}); err != nil {
			return fmt.Errorf("server: shard %d: replaying in-doubt prepare epoch=%d: %w", sh.idx, pp.Epoch, err)
		}
		return nil
	})
	return sum, err
}

// durable reports whether the store's shards carry write-ahead logs
// (all-or-nothing: EnableDurability attaches every shard's log in one
// step before traffic).
func (s *Store) durable() bool { return s.tab().shards[0].wal != nil }

// Durable reports whether the store is backed by a write-ahead log.
func (s *Store) Durable() bool { return s.durable() }

// WAL returns the first shard's log (nil when not durable) — stats,
// tests.
func (s *Store) WAL() *wal.Log { return s.tab().shards[0].wal }

// ShardWAL returns the log of the shard at table position i: nil when
// the store is not durable, and nil when a concurrent reshard shrank
// the table below i — callers (the repl hub) pin a topology before
// iterating and must tolerate the nil.
func (s *Store) ShardWAL(i int) *wal.Log {
	t := s.tab()
	if i < 0 || i >= len(t.shards) {
		return nil
	}
	return t.shards[i].wal
}

// CloseDurability stops the checkpointer, then flushes and closes
// every shard's log. The store must be drained first (polyserve calls
// this after Server.Shutdown); mutations after it fail.
func (s *Store) CloseDurability() error {
	if !s.durable() {
		return nil
	}
	s.ckpt.stop()
	var first error
	for _, sh := range s.tab().shards {
		if err := sh.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint snapshots every shard's keyspace into a compact file and
// truncates its log — shards in parallel, each one independent. The
// per-shard sequence is what makes it safe:
//
//  1. Rotate the shard's log inside an EMPTY irrevocable transaction.
//     Every durable mutation reserves its record while holding the
//     shard's irrevocable token, and its memory effect is visible
//     before the token is released — so once the rotator holds the
//     token, every record of the sealed segments is a visible
//     mutation. (The token also orders rotation against cross-shard
//     commits: the coordinator keeps its token until every COMMIT
//     mark is durable, so rotation can never split a DECISION from a
//     prepare that still needs it.)
//  2. Walk the shard's map in key order, one snapshot transaction per
//     chunk of keys (shard.walk), writing each chunk after its
//     transaction has ended. Started after step 1, every chunk sees
//     every record of the sealed segments. A chunk that misses a later
//     change or sees it early is fuzzy, not wrong: that change also
//     lives in segments at or after the new one, which replay after
//     the base, and replay is idempotent (records are absolute), so the
//     last writer wins.
//  3. Install the checkpoint atomically (tmp + rename) and delete the
//     sealed segments.
func (s *Store) Checkpoint(ctx context.Context) error {
	if !s.durable() {
		return fmt.Errorf("server: store is not durable")
	}
	tab := s.tab()
	errs := make([]error, len(tab.shards))
	var wg sync.WaitGroup
	for i, sh := range tab.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			errs[i] = s.checkpointShard(ctx, sh)
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkpointShard cuts one checkpoint for sh: a delta of the keys
// dirtied since the last cut when the chain policy allows, a full base
// otherwise (first checkpoint, flush pending, incremental disabled, or
// the chain hit its length/ratio compaction threshold). Compaction IS
// the full-base path — the chain merges into the fresh base through the
// same tmp+rename install as ever, so writers never block longer than
// the empty irrevocable rotation window either way.
func (s *Store) checkpointShard(ctx context.Context, sh *shard) error {
	// One cut at a time per shard: the policy decision, the dirty-set
	// take, and the file that records them must pair up.
	sh.ckptMu.Lock()
	defer sh.ckptMu.Unlock()

	if sh.ckptHold.Load() {
		// A reshard holds its BEGIN/COMMIT journal pair in this shard's
		// log; rotating between them would truncate the BEGIN a crash
		// needs. Skip the cut — the next tick catches up.
		return nil
	}

	chain := sh.wal.Chain()
	nDirty, flushPending := sh.dirty.peek()
	if chain.BaseSeg != 0 && nDirty == 0 && !flushPending && chain.Len() == 0 {
		// Idle with a lone base: rewriting the same state buys nothing.
		// (Idle with a chain falls through to the full path below — one
		// compaction folds the chain away, then this skip takes over.)
		return nil
	}
	full := chain.BaseSeg == 0 || flushPending || s.ckptMaxChain < 0 ||
		chain.Len() >= s.ckptMaxChain ||
		float64(chain.DeltaBytes()) >= s.ckptRatio*float64(chain.BaseBytes) ||
		(nDirty == 0 && chain.Len() > 0)

	var seg, cover uint64
	var taken map[string]struct{}
	var takenFlush bool
	err := sh.tm.AtomicCtx(ctx, func(tx *core.Tx) error {
		var rerr error
		seg, cover, rerr = sh.wal.Rotate()
		if rerr != nil {
			return rerr
		}
		// Cut the dirty set at the same commit-order boundary the
		// rotation seals: the irrevocable token blocks every durable
		// mutation here, so the taken set is exactly the keys changed
		// between the previous cut and this one. (Taken inside the
		// transaction — a take after token release would race mutations
		// that land in the sealed history but mark after the take.)
		taken, takenFlush = sh.dirty.take()
		if takenFlush {
			full = true
		}
		return nil
	}, core.WithSemantics(core.Irrevocable), core.WithLabel("wal-rotate"))
	if err != nil {
		return err
	}

	if !full {
		// Key order, sorted here on the checkpointer: every durable write
		// marks under dirtySet.mu, so nothing sorts under it.
		err = sh.wal.WriteDeltaCheckpoint(seg, cover, func(emit func(wal.Op) error) error {
			return sh.emitKeys(ctx, slices.Sorted(maps.Keys(taken)), emit)
		})
	} else {
		err = sh.wal.WriteCheckpoint(seg, cover, func(emit func(wal.Op) error) error {
			return sh.walk(ctx, emit)
		})
	}
	if err != nil {
		// The cut keys never made it into a chain element: put them back,
		// or every future delta would silently omit them.
		sh.dirty.restore(taken, takenFlush)
		return err
	}
	return nil
}

// walkChunk is the most keys one background read takes per snapshot
// transaction: a snapshot held across a whole shard, or across a slow
// disk or socket, would pin every version written behind it.
const walkChunk = 256

// chunk reads one chunk into buf inside one snapshot transaction and
// emits it after that transaction has ended, so a slow emit pins no
// history. An emitted value may alias a version record (core.SetBytes)
// until the walk moves on: at most walkChunk records.
func (sh *shard) chunk(ctx context.Context, buf []wal.Op, emit func(wal.Op) error, read func(tx *core.Tx, buf []wal.Op) ([]wal.Op, error)) ([]wal.Op, error) {
	err := sh.tm.AtomicAsCtx(ctx, core.Snapshot, func(tx *core.Tx) error {
		var err error
		buf, err = read(tx, buf[:0])
		return err
	})
	for i := 0; err == nil && i < len(buf); i++ {
		err = emit(buf[i])
	}
	return buf, err
}

// walk emits every pair of sh as a SET, in key order, one chunk at a
// time: each chunk resumes just after the last key the one before it
// read. A chunk sees the map as of its own start, so a key present for
// the whole walk is emitted exactly once; one inserted or deleted
// during the walk may or may not be. Each caller says why that is
// enough for it.
func (sh *shard) walk(ctx context.Context, emit func(wal.Op) error) error {
	var buf []wal.Op
	for from := ""; ; from = buf[len(buf)-1].Key + "\x00" {
		var err error
		buf, err = sh.chunk(ctx, buf, emit, func(tx *core.Tx, buf []wal.Op) ([]wal.Op, error) {
			err := sh.m.RangeTx(tx, from, "", walkChunk, func(k, v string) bool {
				buf = append(buf, wal.Op{Kind: wal.OpSet, Key: k, Val: v})
				return true
			})
			return buf, err
		})
		if err != nil || len(buf) < walkChunk {
			return err
		}
	}
}

// emitKeys emits the current committed value of every listed key as a
// SET, or a DEL for a key that is gone, walkChunk keys per snapshot.
// Chunks may observe different states; for a delta checkpoint that is
// sound because any post-cut change to an emitted key also lives in
// segments >= the delta's own, and tail replay applies AFTER the chain
// — last writer wins. Replication delta catch-up and a reshard's copy
// share it.
func (sh *shard) emitKeys(ctx context.Context, keys []string, emit func(wal.Op) error) error {
	var buf []wal.Op
	for start := 0; start < len(keys); start += walkChunk {
		var err error
		buf, err = sh.chunk(ctx, buf, emit, func(tx *core.Tx, buf []wal.Op) ([]wal.Op, error) {
			for _, k := range keys[start:min(start+walkChunk, len(keys))] {
				v, ok, err := sh.m.GetTx(tx, k)
				if err != nil {
					return buf, err
				}
				buf = append(buf, wal.Op{Kind: wal.OpSet, Key: k, Val: v})
				if !ok {
					buf[len(buf)-1].Kind = wal.OpDel
				}
			}
			return buf, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
