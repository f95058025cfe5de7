package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"polytm/internal/core"
	"polytm/internal/wal"
)

// Durability configures a Store's write-ahead log. A sharded store
// owns one log per shard, laid out under Dir:
//
//	Dir/MANIFEST              pins the shard count the logs were written with
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
	// CompactRatio bounds each chain's delta-bytes/base-bytes ratio:
	// once the chain's accumulated delta bytes reach CompactRatio × the
	// base's bytes, the next checkpoint compacts into a full base.
	// 0 picks the default (0.5).
	CompactRatio float64
	// Logf, when non-nil, receives recovery/checkpoint diagnostics.
	Logf func(format string, args ...any)

	// onDurableRecord is plumbed through to wal.Options.OnDurableRecord
	// on every shard's log. Crash tests inject kill points through it.
	onDurableRecord func(firstByte byte)
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

// String summarizes the recovery for logs.
func (r *RecoverSummary) String() string {
	if len(r.Shards) == 1 {
		return r.Shards[0].String()
	}
	var keys, records, segs int
	for _, res := range r.Shards {
		keys += res.CheckpointKeys
		records += res.Records
		segs += res.Segments
	}
	s := fmt.Sprintf("%d shards: checkpoint keys=%d, replayed %d records from %d segments",
		len(r.Shards), keys, records, segs)
	if r.Committed != 0 {
		s += fmt.Sprintf(", committed %d in-doubt prepares", r.Committed)
	}
	if r.RolledBack != 0 {
		s += fmt.Sprintf(", rolled back %d in-doubt prepares", r.RolledBack)
	}
	return s
}

const manifestName = "MANIFEST"

// shardWALDir maps a shard index to its log directory. Single-shard
// stores use the root itself for backward compatibility.
func shardWALDir(dir string, i, n int) string {
	if n == 1 {
		return dir
	}
	return filepath.Join(dir, fmt.Sprintf("shard-%04d", i))
}

// WALShardCount inspects a durable directory and reports the shard
// count its logs were written with: the MANIFEST's pinned count (v1 or
// the epoch-versioned v2 a reshard writes), the number of shard-*
// subdirectories when the manifest is missing, 1 for a pre-manifest
// layout (wal files at the root), or 0 for a fresh or absent
// directory. polyserve uses it to adopt an existing directory's
// sharding instead of refusing to start over a flag mismatch.
func WALShardCount(dir string) (int, error) {
	m, err := openManifest(dir)
	if err != nil {
		return 0, err
	}
	if m != nil {
		return len(m.Shards), nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	shardDirs := 0
	legacy := false
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() && strings.HasPrefix(name, "shard-"):
			shardDirs++
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"),
			strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".ckpt"):
			legacy = true
		}
	}
	switch {
	case shardDirs > 0:
		return shardDirs, nil
	case legacy:
		return 1, nil
	default:
		return 0, nil
	}
}

// syncDirBestEffort fsyncs a directory entry; some filesystems refuse.
func syncDirBestEffort(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// EnableDurability attaches one write-ahead log per shard to the
// store: it recovers the directory's durable state INTO the store —
// every shard in parallel, each replaying its newest valid checkpoint
// plus its log tail — resolves any in-doubt cross-shard prepares
// against the coordinator shard's decision set, then routes every
// subsequent mutation through its shard's log and starts the
// background checkpointer. It must be called before the store serves
// traffic, and pairs with CloseDurability.
//
// The directory's MANIFEST records the routing table its logs were
// written under — shard ids, hash slices, log directories — and the
// store adopts it: keys hash to shards, so the logs only make sense
// under that table. The store must be built with the manifest's shard
// count (a mismatch is an error naming it; WALShardCount lets callers
// adopt it up front); SPLIT and MERGE change the count afterwards and
// rewrite the MANIFEST with it.
func (s *Store) EnableDurability(d Durability) (*RecoverSummary, error) {
	if s.durable() {
		return nil, fmt.Errorf("server: durability already enabled")
	}
	if d.Dir == "" {
		return nil, fmt.Errorf("server: durability needs a directory")
	}
	tab0 := s.tab()
	n := len(tab0.shards)
	man, err := openManifest(d.Dir)
	if err != nil {
		return nil, err
	}
	if man != nil && len(man.Shards) != n {
		return nil, fmt.Errorf("server: %s holds a %d-shard log but the store has %d shards — restart with -store-shards=%d, or point at a fresh directory", d.Dir, len(man.Shards), n, len(man.Shards))
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, err
	}
	if man == nil {
		man = legacyManifest(n)
		if err := writeStoreManifest(d.Dir, man); err != nil {
			return nil, err
		}
	}

	// Adopt the manifest's table: stable ids, hash slices, next id. A
	// fresh or never-resharded directory matches the constructor's
	// defaults exactly; a resharded one (v2) reassigns them. Safe to
	// mutate the shard structs here — EnableDurability runs before the
	// store serves traffic.
	shards := append([]*shard(nil), tab0.shards...)
	slices := make([]hashSlice, n)
	for i, e := range man.Shards {
		shards[i].idx = e.ID
		shards[i].walName = e.Dir
		slices[i] = hashSlice{mod: e.Mod, res: e.Res}
	}
	s.nextID = man.NextID

	// Scale the batch-fsync window by the shard count: each shard's log
	// has its own background syncer against its own file, so N shards at
	// the base cadence would fsync the disk N times as often as one
	// shard did — on a small machine that alone erases the sharding win.
	// Stretching each window to N× the base keeps the store's TOTAL
	// fsync rate constant; the machine-crash loss bound becomes at most
	// one (stretched) window per shard.
	window := d.BatchWindow
	if d.Fsync == wal.ModeBatch && window <= 0 && n > 1 {
		window = time.Duration(n) * 2 * time.Millisecond
	}
	opts := wal.Options{Mode: d.Fsync, BatchWindow: window, Logf: d.Logf, OnDurableRecord: d.onDurableRecord}
	logs := make([]*wal.Log, n)
	results := make([]*wal.RecoverResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := shards[i]
			// Replayed tail records seed the dirty set: those keys changed
			// past the checkpoint chain's head, so the first delta cut
			// after a restart must carry them (chain loads do not mark —
			// the chain already covers them).
			shOpts := opts
			shOpts.OnReplayOps = func(ops []wal.Op) { sh.dirty.markOps(ops) }
			logs[i], results[i], errs[i] = wal.Open(filepath.Join(d.Dir, man.Shards[i].Dir), shOpts, s.recoverInto(sh))
		}(i)
	}
	wg.Wait()
	closeAll := func() {
		for _, l := range logs {
			if l != nil {
				l.Close()
			}
		}
		for _, sh := range shards {
			sh.wal = nil
		}
	}
	for _, err := range errs {
		if err != nil {
			closeAll()
			return nil, err
		}
	}

	// ---- reshard journal resolution ----
	//
	// A crash inside a SPLIT/MERGE left a RESHARD BEGIN with an epoch
	// past the manifest's. Its own log tells the outcome: a matching
	// COMMIT means the cutover reached its commit point — roll the
	// directory forward to the journaled table (the crash merely beat
	// the manifest rewrite); no COMMIT means the copy never finished —
	// roll it back. Either way the manifest is rewritten before traffic.
	// The committed arms below grow or shrink results (and its parallel
	// slices) while this loop walks it, so the bound is re-read every
	// iteration and each arm steps i past the shift it caused.
	sawReshard := false
	for i := 0; i < len(results); i++ {
		var begin *wal.ReshardEvent
		committed := false
		for k := range results[i].Reshards {
			ev := &results[i].Reshards[k]
			sawReshard = true
			switch ev.Kind {
			case wal.RecordReshardBegin:
				begin, committed = ev, false
			case wal.RecordReshardCommit:
				if begin != nil && ev.Epoch == begin.Epoch {
					committed = true
				}
			}
		}
		if begin == nil || begin.Epoch <= man.Epoch {
			continue // no journal, or one the manifest already reflects
		}
		r := begin.Reshard
		switch {
		case !committed && r.Op == wal.ReshardSplit:
			// Roll back: the new shard never went live; whatever partial
			// copy it holds was never acknowledged to anyone.
			if r.Dir != "" && r.Dir != "." {
				if err := os.RemoveAll(filepath.Join(d.Dir, r.Dir)); err != nil {
					closeAll()
					return nil, fmt.Errorf("server: rolling back split epoch=%d: %w", begin.Epoch, err)
				}
			}
			if d.Logf != nil {
				d.Logf("polyserve: rolled back uncommitted split epoch=%d (shard %d never went live)", begin.Epoch, r.Dst)
			}
		case !committed && r.Op == wal.ReshardMerge:
			// Roll back: nothing on disk to undo — the copy appended
			// ordinary records to the survivor's log, and the routing
			// filter below deletes those not-owned keys again.
			if d.Logf != nil {
				d.Logf("polyserve: rolled back uncommitted merge epoch=%d (shard %d stays)", begin.Epoch, r.Src)
			}
		case committed && r.Op == wal.ReshardSplit:
			srcPos := man.posByID(r.Src)
			if srcPos < 0 {
				closeAll()
				return nil, fmt.Errorf("server: split journal epoch=%d names unknown shard %d", begin.Epoch, r.Src)
			}
			dst := s.newShard(r.Dst, s.mkTM())
			dOpts := opts
			dOpts.OnReplayOps = func(ops []wal.Op) { dst.dirty.markOps(ops) }
			dlog, dres, derr := wal.Open(filepath.Join(d.Dir, r.Dir), dOpts, s.recoverInto(dst))
			if derr != nil {
				closeAll()
				return nil, fmt.Errorf("server: rolling forward split epoch=%d: %w", begin.Epoch, derr)
			}
			dst.wal = dlog
			dst.walName = r.Dir
			// Insert the new shard in residue order and shrink the source's
			// slice to its journaled half.
			slices[srcPos] = hashSlice{mod: r.Mod, res: r.Res}
			man.Shards[srcPos].Mod, man.Shards[srcPos].Res = r.Mod, r.Res
			at := len(shards)
			for k := range slices {
				if slices[k].res > r.Res2 {
					at = k
					break
				}
			}
			shards = insertAt(shards, at, dst)
			slices = insertAt(slices, at, hashSlice{mod: r.Mod2, res: r.Res2})
			logs = insertAt(logs, at, dlog)
			results = insertAt(results, at, dres)
			man.Shards = insertAt(man.Shards, at, manifestShard{ID: r.Dst, Mod: r.Mod2, Res: r.Res2, Dir: r.Dir})
			if at <= i {
				i++ // this shard's entry moved one to the right
			}
			if r.Dst+1 > man.NextID {
				man.NextID = r.Dst + 1
			}
			man.Epoch = begin.Epoch
			s.nextID = man.NextID
			if err := writeStoreManifest(d.Dir, man); err != nil {
				closeAll()
				return nil, fmt.Errorf("server: rolling forward split epoch=%d: %w", begin.Epoch, err)
			}
			if d.Logf != nil {
				d.Logf("polyserve: rolled forward committed split epoch=%d (shard %d adopted)", begin.Epoch, r.Dst)
			}
		case committed && r.Op == wal.ReshardMerge:
			// The absorbed shard's keys were durably copied into the
			// survivor's log before the COMMIT, so its replayed state is
			// already in the survivor; drop the shard and its directory.
			bPos := man.posByID(r.Src)
			aPos := man.posByID(r.Dst)
			if bPos < 0 || aPos < 0 {
				closeAll()
				return nil, fmt.Errorf("server: merge journal epoch=%d names unknown shards %d/%d", begin.Epoch, r.Src, r.Dst)
			}
			logs[bPos].Close()
			if bd := man.Shards[bPos].Dir; bd != "" && bd != "." {
				if err := os.RemoveAll(filepath.Join(d.Dir, bd)); err != nil {
					closeAll()
					return nil, fmt.Errorf("server: rolling forward merge epoch=%d: %w", begin.Epoch, err)
				}
			}
			shards = removeAt(shards, bPos)
			slices = removeAt(slices, bPos)
			logs = removeAt(logs, bPos)
			results = removeAt(results, bPos)
			man.Shards = removeAt(man.Shards, bPos)
			if bPos <= i {
				i-- // the entries after bPos moved one to the left
			}
			aPos = man.posByID(r.Dst)
			slices[aPos] = hashSlice{mod: r.Mod, res: r.Res}
			man.Shards[aPos].Mod, man.Shards[aPos].Res = r.Mod, r.Res
			man.Epoch = begin.Epoch
			if err := writeStoreManifest(d.Dir, man); err != nil {
				closeAll()
				return nil, fmt.Errorf("server: rolling forward merge epoch=%d: %w", begin.Epoch, err)
			}
			if d.Logf != nil {
				d.Logf("polyserve: rolled forward committed merge epoch=%d (shard %d absorbed into %d)", begin.Epoch, r.Src, r.Dst)
			}
		}
	}

	// Resolve in-doubt prepares: a shard whose log ends in a PREPARE
	// crashed inside a cross-shard commit. The coordinator's durable
	// DECISION set is the truth — present: the commit point was
	// reached, replay the operations as a mutation of its own — applied
	// and re-logged as a plain record, so the next recovery replays them
	// without needing the decision to still exist; absent: the
	// transaction never committed anywhere, and no client was
	// acknowledged — drop it. Coordinators are named by STABLE shard id,
	// which pre-resharding equals the position — legacy logs resolve
	// unchanged.
	//
	// The logs attach first: the capture pool (sh.caps, wired at store
	// construction) reads the log through the shard, so from here every
	// mutation's capture routes to the WAL — including captures pooled
	// earlier by session traffic on the then-non-durable store.
	for i, sh := range shards {
		sh.wal = logs[i]
	}
	sum := &RecoverSummary{Shards: results}
	var decisions map[int]map[uint64]bool
	for i, res := range results {
		pp := res.InDoubt
		if pp == nil {
			continue
		}
		committed := false
		if coordPos := posOfID(shards, pp.Coord); coordPos >= 0 {
			if decisions == nil {
				decisions = make(map[int]map[uint64]bool)
			}
			if decisions[pp.Coord] == nil {
				m := make(map[uint64]bool, len(results[coordPos].Decisions))
				for _, e := range results[coordPos].Decisions {
					m[e] = true
				}
				decisions[pp.Coord] = m
			}
			committed = decisions[pp.Coord][pp.Epoch]
		}
		if committed {
			if err := s.applyOps(context.Background(), shards[i], pp.Ops, mutOpts{quiet: true}); err != nil {
				closeAll()
				return nil, fmt.Errorf("server: shard %d: replaying in-doubt prepare epoch=%d: %w", shards[i].idx, pp.Epoch, err)
			}
			sum.Committed++
			if d.Logf != nil {
				d.Logf("polyserve: shard %d: in-doubt prepare epoch=%d committed (decision found on shard %d)", shards[i].idx, pp.Epoch, pp.Coord)
			}
		} else {
			sum.RolledBack++
			if d.Logf != nil {
				d.Logf("polyserve: shard %d: in-doubt prepare epoch=%d rolled back (no decision on shard %d)", shards[i].idx, pp.Epoch, pp.Coord)
			}
		}
	}

	// New cross-shard epochs must clear everything still resolvable
	// from any surviving record.
	var maxEpoch uint64
	for _, res := range results {
		if res.MaxEpoch > maxEpoch {
			maxEpoch = res.MaxEpoch
		}
	}
	s.epoch.Store(maxEpoch)

	s.logf = d.Logf
	// Resolve the chain policy and stamp this process's incarnation: WAL
	// seqs are per-process, so a follower's applied position is only
	// comparable to a chain's cover points within one primary lifetime —
	// the incarnation is how both sides know they are talking about the
	// same seq space (see Store.DeltaShard).
	s.ckptMaxChain = d.MaxChain
	if s.ckptMaxChain == 0 {
		s.ckptMaxChain = 8
	}
	s.ckptRatio = d.CompactRatio
	if s.ckptRatio == 0 {
		s.ckptRatio = 0.5
	}
	s.incarnation = uint64(time.Now().UnixNano())
	s.walDir = d.Dir
	s.walOpts = opts
	// Publish the recovered table (its epoch may exceed tab0's if a
	// journal rolled forward), then scrub reshard leftovers: a shard can
	// hold keys it no longer owns — a split source the lazy cleanup
	// never finished, or merge-copy pollution rolled back above. The
	// scrub deletes them through the WAL like any mutation, so the next
	// recovery starts cleaner.
	s.table.Store(newRoutingTable(man.Epoch, shards, slices))
	if man.Epoch > 0 || sawReshard {
		for _, sh := range shards {
			if _, err := s.cleanShard(context.Background(), sh); err != nil {
				closeAll()
				return nil, fmt.Errorf("server: shard %d: reshard scrub: %w", sh.idx, err)
			}
		}
	}
	every := d.CheckpointEvery
	if every == 0 {
		every = time.Minute
	}
	if every > 0 {
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointLoop(every, d.Logf)
	}
	return sum, nil
}

// insertAt returns sl with v inserted at position i.
func insertAt[T any](sl []T, i int, v T) []T {
	sl = append(sl, v)
	copy(sl[i+1:], sl[i:])
	sl[i] = v
	return sl
}

// removeAt returns sl with position i removed.
func removeAt[T any](sl []T, i int) []T {
	return append(sl[:i:i], sl[i+1:]...)
}

// posOfID returns the position of the shard with the given stable id.
func posOfID(shards []*shard, id int) int {
	for i, sh := range shards {
		if sh.idx == id {
			return i
		}
	}
	return -1
}

// recoverInto is sh's wal.Open apply callback: each recovered record
// replays as one quiet mutation. The log is not attached yet, so
// nothing is re-logged; per-shard recovery is single-threaded and
// in-process, so plain def semantics suffice.
func (s *Store) recoverInto(sh *shard) func(ops []wal.Op) error {
	return func(ops []wal.Op) error {
		return s.applyOps(context.Background(), sh, ops, mutOpts{quiet: true})
	}
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

// ShardWAL returns the log of the shard at table position i (nil when
// not durable) — tests.
// ShardWAL returns the log at table position i, or nil when a
// concurrent reshard shrank the table below i — callers (the repl hub)
// pin a topology before iterating and must tolerate the nil.
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
	if s.ckptStop != nil {
		close(s.ckptStop)
		<-s.ckptDone
		s.ckptStop, s.ckptDone = nil, nil
	}
	var first error
	for _, sh := range s.tab().shards {
		if err := sh.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// checkpointLoop writes a checkpoint every `every` until stopped. The
// in-flight checkpoint runs under a context cancelled by the stop
// signal, so CloseDurability is never held hostage by a long snapshot
// walk over a big keyspace — the partial .tmp file is abandoned and
// the log keeps its segments.
func (s *Store) checkpointLoop(every time.Duration, logf func(string, ...any)) {
	defer close(s.ckptDone)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-s.ckptStop
		cancel()
	}()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-t.C:
			if err := s.Checkpoint(ctx); err != nil && logf != nil {
				logf("polyserve: checkpoint: %v", err)
			}
		}
	}
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
//  2. Snapshot the shard's map through one snapshot-semantics Range
//     (TSkipMap.SnapshotAllCtx). Started after step 1, its consistent
//     view therefore covers everything in segments < the new one.
//     Mutations that race with the walk may land in both the snapshot
//     and the new segment; replay is idempotent (records are
//     absolute), so the overlap is harmless.
//  3. Install the checkpoint atomically (tmp + rename) and delete the
//     sealed segments.
func (s *Store) Checkpoint(ctx context.Context) error {
	if !s.durable() {
		return fmt.Errorf("server: store is not durable")
	}
	tab := s.tab()
	if len(tab.shards) == 1 {
		return s.checkpointShard(ctx, tab.shards[0])
	}
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
		err = sh.wal.WriteDeltaCheckpoint(seg, cover, func(emit func(k, v string, del bool) error) error {
			return s.emitDirty(ctx, sh, taken, emit)
		})
	} else {
		err = sh.wal.WriteCheckpoint(seg, cover, func(emit func(k, v string) error) error {
			return sh.m.SnapshotAllCtx(ctx, func(k, v string) error {
				// Per-pair cancellation point: a snapshot transaction's body
				// is not interrupted by its context mid-walk, so a multi-GB
				// checkpoint racing a shutdown checks here instead.
				if err := ctx.Err(); err != nil {
					return err
				}
				return emit(k, v)
			})
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

// emitDirty streams the current committed value — or a tombstone — of
// every taken dirty key, in snapshot-read batches (one transaction per
// batch: a single snapshot held across a large dirty set would pin the
// multi-version window for its whole walk). Batches may observe
// different states; that is sound because any post-cut change to an
// emitted key also lives in segments >= the delta's own, and tail
// replay applies AFTER the chain — last writer wins.
func (s *Store) emitDirty(ctx context.Context, sh *shard, taken map[string]struct{}, emit func(k, v string, del bool) error) error {
	keys := make([]string, 0, len(taken))
	for k := range taken {
		keys = append(keys, k)
	}
	return s.emitKeys(ctx, sh, keys, emit)
}

// emitKeys is emitDirty's body over an already-flattened key list —
// shared with replication delta catch-up (DeltaShard), which snapshots
// the dirty set without consuming it.
func (s *Store) emitKeys(ctx context.Context, sh *shard, keys []string, emit func(k, v string, del bool) error) error {
	const batch = 256
	for start := 0; start < len(keys); start += batch {
		end := start + batch
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[start:end]
		err := sh.tm.AtomicAsCtx(ctx, core.Snapshot, func(tx *core.Tx) error {
			for _, k := range chunk {
				v, ok, err := sh.m.GetTx(tx, k)
				if err != nil {
					return err
				}
				if err := emit(k, v, !ok); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
