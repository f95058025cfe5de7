package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// RecoverResult describes what Open reconstructed.
type RecoverResult struct {
	// CheckpointSeq is the loaded checkpoint's number (0 = none).
	CheckpointSeq uint64
	// CheckpointKeys is how many pairs the checkpoint restored.
	CheckpointKeys int
	// BadCheckpoints counts checkpoint files that failed validation and
	// were skipped in favour of an older one (or a bare replay).
	BadCheckpoints int
	// DeltasLoaded and DeltaKeys count the delta-checkpoint chain
	// applied on top of the base, in chain order.
	DeltasLoaded int
	DeltaKeys    int
	// BadDeltas counts delta files that failed validation. The chain is
	// truncated at the first bad link — everything chained past it is
	// unreachable — and replay resumes from the surviving head (refusing
	// loudly if the needed segments were already truncated away).
	BadDeltas int
	// StaleDeltas counts delta files that do not belong to the surviving
	// base's chain: their base was superseded by a newer full checkpoint,
	// or a crash mid-compaction orphaned them. They are skipped; the next
	// checkpoint's cleanup removes them.
	StaleDeltas int
	// TmpSwept counts stale checkpoint/delta tmp files — a crash landed
	// between create and rename — deleted on open.
	TmpSwept int
	// Segments and Records count what the log replay applied.
	Segments int
	Records  int
	// TruncatedSeg/TruncatedAt identify the torn or corrupt record that
	// ended the durable prefix: segment TruncatedSeg was cut back to
	// byte offset TruncatedAt (TruncatedSeg = 0: the log was clean).
	TruncatedSeg uint64
	TruncatedAt  int64
	// DroppedSegments counts segments beyond the truncation point that
	// were discarded entirely (they are past the durable prefix).
	DroppedSegments int
	// Replay is the tail's record-stream state as the replay left it:
	// the in-doubt PREPARE the log ends in, the decision set, the 2PC
	// epoch floor, the reshard journal and the aborted-prepare count.
	Replay
}

// String summarizes the recovery for logs.
func (r *RecoverResult) String() string {
	s := fmt.Sprintf("checkpoint base=%d keys=%d + %d deltas (%d keys), replayed %d records from %d segments",
		r.CheckpointSeq, r.CheckpointKeys, r.DeltasLoaded, r.DeltaKeys, r.Records, r.Segments)
	if r.TruncatedSeg != 0 {
		s += fmt.Sprintf(", truncated segment %d at byte %d", r.TruncatedSeg, r.TruncatedAt)
	}
	if r.DroppedSegments != 0 {
		s += fmt.Sprintf(", dropped %d segments past the truncation", r.DroppedSegments)
	}
	if r.BadCheckpoints != 0 {
		s += fmt.Sprintf(", skipped %d invalid checkpoints", r.BadCheckpoints)
	}
	if r.BadDeltas != 0 {
		s += fmt.Sprintf(", truncated chain at %d invalid deltas", r.BadDeltas)
	}
	if r.StaleDeltas != 0 {
		s += fmt.Sprintf(", skipped %d stale deltas", r.StaleDeltas)
	}
	if r.TmpSwept != 0 {
		s += fmt.Sprintf(", swept %d tmp files", r.TmpSwept)
	}
	if r.AbortedPrepares != 0 {
		s += fmt.Sprintf(", dropped %d aborted prepares", r.AbortedPrepares)
	}
	if r.InDoubt != nil {
		s += fmt.Sprintf(", in-doubt prepare epoch=%d coord=%d", r.InDoubt.Epoch, r.InDoubt.Coord)
	}
	return s
}

// parseName extracts the number from prefix<num>suffix names.
func parseName(name, prefix, suffix string, out *uint64) bool {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return false
	}
	*out = n
	return true
}

// Open recovers the durable state of dir and returns an appendable
// log, in three stages: scanDir classifies the directory's files;
// loadChain applies the newest full checkpoint that validates plus the
// delta chain hanging off it; replayTail replays every segment at or
// after the chain head in order — calling apply once per record with
// that record's atomic operation group — truncating the log at the
// first torn or corrupt record and discarding anything beyond it. New
// appends go to a fresh segment, so a recovered directory is always
// header-aligned.
//
// apply runs on the caller's goroutine before Open returns; an apply
// error aborts recovery (the store is assumed unusable half-loaded).
func Open(dir string, opts Options, apply func(ops []Op) error) (*Log, *RecoverResult, error) {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	scan, err := scanDir(dir, opts.Logf)
	if err != nil {
		return nil, nil, err
	}
	res := &RecoverResult{TmpSwept: scan.tmpSwept}
	chain, err := loadChain(dir, scan, apply, res, opts.Logf)
	if err != nil {
		return nil, nil, err
	}
	maxSeg, err := replayTail(dir, scan.segs, chain.Head(), opts, apply, res)
	if err != nil {
		return nil, nil, err
	}
	l, err := openLog(dir, opts, maxSeg+1, chain)
	if err != nil {
		return nil, nil, err
	}
	opts.Logf("wal: recovered %s: %s", dir, res)
	return l, res, nil
}

// dirScan is a log directory's files by kind.
type dirScan struct {
	segs     []uint64 // wal-N.log, ascending
	ckpts    []uint64 // checkpoint-N.ckpt, newest first
	deltas   []uint64 // delta-N.ckpt, ascending
	tmpSwept int      // stale *.ckpt.tmp files deleted
}

// scanDir classifies dir's entries by name and sweeps snapshot tmp
// files: a crash between InstallFile's create and its rename leaks the
// tmp, which is never valid state — the rename is the commit point — so
// it is deleted instead of leaking forever. Other names are ignored.
func scanDir(dir string, logf func(string, ...any)) (dirScan, error) {
	var sc dirScan
	entries, err := os.ReadDir(dir)
	if err != nil {
		return sc, err
	}
	for _, e := range entries {
		var n uint64
		switch {
		case parseName(e.Name(), "wal-", ".log", &n):
			sc.segs = append(sc.segs, n)
		case parseName(e.Name(), "checkpoint-", ".ckpt", &n):
			sc.ckpts = append(sc.ckpts, n)
		case parseName(e.Name(), "delta-", ".ckpt", &n):
			sc.deltas = append(sc.deltas, n)
		case strings.HasSuffix(e.Name(), ".ckpt.tmp"):
			if err := os.Remove(filepath.Join(dir, e.Name())); err == nil {
				sc.tmpSwept++
			} else {
				logf("wal: sweeping %s: %v", e.Name(), err)
			}
		}
	}
	slices.Sort(sc.segs)
	slices.Sort(sc.ckpts)
	slices.Reverse(sc.ckpts)
	slices.Sort(sc.deltas)
	return sc, nil
}

// skippable reports whether a snapshot load error left the store
// untouched: the file failed validation (or vanished), so nothing was
// applied and recovery can fall back. Any other error means apply
// itself — or the read under it — failed midway, and the store is
// half-loaded and unusable.
func skippable(err error) bool { return IsCorrupt(err) || os.IsNotExist(err) }

// loadChain applies the newest full checkpoint that validates, then the
// delta chain hanging off it, link by link in chainOrder until the
// first link that fails to validate, and returns the chain it applied.
func loadChain(dir string, scan dirScan, apply func(ops []Op) error, res *RecoverResult, logf func(string, ...any)) (Chain, error) {
	var chain Chain
	for _, c := range scan.ckpts {
		keys, size, err := loadSnapshot(filepath.Join(dir, ckptName(c)), false, apply)
		if err == nil {
			chain.BaseSeg, chain.BaseBytes = c, uint64(size)
			res.CheckpointSeq, res.CheckpointKeys = c, keys
			break
		}
		if !skippable(err) {
			return chain, fmt.Errorf("wal: applying checkpoint %d: %w", c, err)
		}
		res.BadCheckpoints++
		logf("wal: skipping invalid checkpoint %d: %v", c, err)
	}

	// A replay is only a durable PREFIX if the history is complete up to
	// wherever it stops. Installing checkpoint N deletes everything
	// older, so if no checkpoint validates now (bit rot after install),
	// replaying the surviving suffix onto an empty store would fabricate
	// a keyspace state that never existed — refuse loudly instead.
	if chain.BaseSeg == 0 {
		if res.BadCheckpoints > 0 {
			return chain, fmt.Errorf("wal: no checkpoint in %s validates and the pre-checkpoint log history was truncated at install time — refusing to reconstruct a partial keyspace (move the corrupt checkpoint-*.ckpt aside only if losing its state is acceptable)", dir)
		}
		if len(scan.segs) > 0 && scan.segs[0] != 1 {
			return chain, fmt.Errorf("wal: log history in %s starts at segment %d with no checkpoint — earlier segments are missing; refusing partial replay", dir, scan.segs[0])
		}
	}

	// Headers are validated first (cheap — no full-file scan per
	// candidate); each link is then fully validated before any of its
	// entries apply.
	var links []chainLink
	for _, d := range scan.deltas {
		hdr, err := readSnapHeader(filepath.Join(dir, deltaName(d)))
		if err != nil {
			res.BadDeltas++
			logf("wal: delta %d: %v — skipped", d, err)
			continue
		}
		links = append(links, chainLink{Seg: d, Hdr: hdr})
	}
	order, misnamed, stale := chainOrder(chain.BaseSeg, links)
	res.BadDeltas += len(misnamed)
	res.StaleDeltas += len(stale)
	for _, d := range misnamed {
		logf("wal: delta %d: header self does not match file name — skipped", d)
	}
	for i, d := range order {
		keys, size, err := loadSnapshot(filepath.Join(dir, deltaName(d)), true, apply)
		if err != nil {
			if !skippable(err) {
				return chain, fmt.Errorf("wal: applying delta %d: %w", d, err)
			}
			// The chain breaks here: everything linked past this delta is
			// unreachable. Replay resumes from the surviving head; if the
			// segments it needs were truncated away at install time,
			// replayTail's contiguity check refuses loudly rather than
			// fabricate a partial keyspace.
			res.BadDeltas++
			res.StaleDeltas += len(order) - i - 1
			logf("wal: delta %d: %v — chain truncated here", d, err)
			break
		}
		chain.Deltas = append(chain.Deltas, ChainDelta{Seg: d, Bytes: uint64(size)})
		res.DeltasLoaded++
		res.DeltaKeys += keys
	}
	return chain, nil
}

// chainLink is one delta file as chain assembly sees it: the segment
// number in its NAME and its validated header.
type chainLink struct {
	Seg uint64
	Hdr snapHeader
}

// chainOrder assembles the delta chain hanging off base from links
// (ascending by Seg) by walking parent links base → head. A crash
// mid-compaction can leave a freshly installed base alongside the old
// chain's files, or several deltas claiming the same parent: only links
// reachable from base count, the newest claimant wins a contested
// parent, and everything else — another base's deltas, the losing
// claimants, orphans past a missing link — is stale. A link whose
// header names a different segment than its file (renamed or
// cross-bred) is misnamed and never joins the chain.
func chainOrder(base uint64, links []chainLink) (order, misnamed, stale []uint64) {
	byParent := make(map[uint64][]uint64)
	for _, l := range links {
		switch {
		case l.Hdr.Self != l.Seg:
			misnamed = append(misnamed, l.Seg)
		case base == 0 || l.Hdr.Base != base:
			stale = append(stale, l.Seg)
		default:
			byParent[l.Hdr.Parent] = append(byParent[l.Hdr.Parent], l.Seg)
		}
	}
	for head := base; len(byParent[head]) > 0; {
		claimants := byParent[head]
		delete(byParent, head)
		head = claimants[len(claimants)-1]
		order = append(order, head)
		stale = append(stale, claimants[:len(claimants)-1]...)
	}
	for _, orphans := range byParent {
		stale = append(stale, orphans...)
	}
	slices.Sort(stale)
	return order, misnamed, stale
}

// replayTail replays the segments at or after from — the chain head's
// own segment, or the very first when there is no checkpoint — through
// res.Step, and returns the highest segment number seen. The replay
// must be contiguous (the head may cover only a prefix of its segment;
// re-applying the overlap is idempotent), and ends at the first torn or
// corrupt record: that segment is cut back to its durable prefix and
// every later one dropped, since anything there may depend on the
// records lost at the cut. A chain with no surviving segments is still
// consistent on its own.
func replayTail(dir string, segs []uint64, from uint64, opts Options, apply func(ops []Op) error, res *RecoverResult) (maxSeg uint64, err error) {
	// Tail records — unlike checkpoint/delta loads — additionally feed
	// the OnReplayOps hook: their keys changed since the chain head was
	// cut and belong in the next delta.
	if hook := opts.OnReplayOps; hook != nil {
		inner := apply
		apply = func(ops []Op) error {
			if err := inner(ops); err != nil {
				return err
			}
			hook(ops)
			return nil
		}
	}
	maxSeg = from
	expect := max(from, 1)
	for _, seg := range segs {
		maxSeg = max(maxSeg, seg)
		if seg < from {
			continue // superseded by the chain; cleanup missed it
		}
		path := filepath.Join(dir, segName(seg))
		if res.TruncatedSeg != 0 {
			res.DroppedSegments++
			if err := os.Remove(path); err != nil {
				opts.Logf("wal: dropping segment %d: %v", seg, err)
			}
			continue
		}
		if seg != expect {
			return 0, fmt.Errorf("wal: segment %d missing from %s (found segment %d instead) — the log is not a contiguous history; refusing partial replay", expect, dir, seg)
		}
		expect = seg + 1
		if err := replaySegment(path, seg, opts.Logf, apply, res); err != nil {
			return 0, err
		}
	}
	return maxSeg, nil
}

// replaySegment replays one segment's records. A record whose frame is
// torn, or whose checksum held but whose payload grammar is bad, ends
// the durable prefix: the file is truncated at that record's offset.
func replaySegment(path string, seg uint64, logf func(string, ...any), apply func(ops []Op) error, res *RecoverResult) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	res.Segments++
	var ops []Op
	for rest := buf; len(rest) > 0; {
		payload, next, ok := nextRecord(rest)
		var rec Record
		var bad error = &errCorrupt{"torn frame"}
		if ok {
			rec, bad = DecodeRecord(ops[:0], payload)
		}
		if bad != nil {
			off := int64(len(buf) - len(rest))
			if err := os.Truncate(path, off); err != nil {
				return fmt.Errorf("wal: truncating segment %d: %w", seg, err)
			}
			res.TruncatedSeg, res.TruncatedAt = seg, off
			logf("wal: segment %d: torn/corrupt record at byte %d (%v) — durable prefix ends here", seg, off, bad)
			return nil
		}
		aborted := res.AbortedPrepares
		group := res.Step(rec)
		if res.AbortedPrepares != aborted {
			logf("wal: segment %d: prepare superseded by %v — dropped as aborted", seg, rec.Kind)
		}
		if group != nil {
			if err := apply(group); err != nil {
				return fmt.Errorf("wal: applying segment %d: %w", seg, err)
			}
		}
		if rec.Ops != nil {
			ops = rec.Ops // keep the grown buffer for the next record
		}
		res.Records++
		rest = next
	}
	return nil
}
