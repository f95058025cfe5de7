package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
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
// log. It loads the newest checkpoint that validates, replays every
// segment at or after it in order — calling apply once per record with
// that record's atomic operation group — and truncates the log at the
// first torn or corrupt record, discarding anything beyond it. New
// appends go to a fresh segment, so a recovered directory is always
// header-aligned.
//
// apply runs on the caller's goroutine before Open returns; an apply
// error aborts recovery (the store is assumed unusable half-loaded).
func Open(dir string, opts Options, apply func(ops []Op) error) (*Log, *RecoverResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	res := &RecoverResult{}
	logf := opts.Logf
	var segs []uint64
	var ckpts []uint64
	var deltas []uint64
	for _, e := range entries {
		var n uint64
		switch {
		case parseName(e.Name(), "wal-", ".log", &n):
			segs = append(segs, n)
		case parseName(e.Name(), "checkpoint-", ".ckpt", &n):
			ckpts = append(ckpts, n)
		case parseName(e.Name(), "delta-", ".ckpt", &n):
			deltas = append(deltas, n)
		case strings.HasSuffix(e.Name(), ".ckpt.tmp"):
			// A crash between os.Create(tmp) and the install rename leaks
			// the tmp file. It is never valid state — the rename is the
			// commit point — so sweep it instead of leaking it forever.
			if err := os.Remove(filepath.Join(dir, e.Name())); err == nil {
				res.TmpSwept++
			} else if logf != nil {
				logf("wal: sweeping %s: %v", e.Name(), err)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] }) // newest first
	sort.Slice(deltas, func(i, j int) bool { return deltas[i] < deltas[j] })

	for _, c := range ckpts {
		keys, err := loadCheckpoint(filepath.Join(dir, ckptName(c)), apply)
		if err == nil {
			res.CheckpointSeq = c
			res.CheckpointKeys = keys
			break
		}
		if !IsCorrupt(err) && !os.IsNotExist(err) {
			// loadCheckpoint validates the whole file before applying
			// anything, so a non-corruption error means apply itself (or
			// the read) failed — the store is half-loaded and unusable.
			return nil, nil, fmt.Errorf("wal: applying checkpoint %d: %w", c, err)
		}
		res.BadCheckpoints++
		if logf != nil {
			logf("wal: skipping invalid checkpoint %d: %v", c, err)
		}
	}

	// A replay is only a durable PREFIX if the history is complete up to
	// wherever it stops. Installing checkpoint N deletes everything
	// older, so if no checkpoint validates now (bit rot after install),
	// replaying the surviving suffix onto an empty store would fabricate
	// a keyspace state that never existed — refuse loudly instead.
	if res.CheckpointSeq == 0 {
		if res.BadCheckpoints > 0 {
			return nil, nil, fmt.Errorf("wal: no checkpoint in %s validates and the pre-checkpoint log history was truncated at install time — refusing to reconstruct a partial keyspace (move the corrupt checkpoint-*.ckpt aside only if losing its state is acceptable)", dir)
		}
		if len(segs) > 0 && segs[0] != 1 {
			return nil, nil, fmt.Errorf("wal: log history in %s starts at segment %d with no checkpoint — earlier segments are missing; refusing partial replay", dir, segs[0])
		}
	}

	// Assemble and apply the delta chain hanging off the loaded base:
	// headers are validated first (cheap — no full-file scan per
	// candidate), the chain is walked base → head by parent links, and
	// each link is fully validated before any of its entries apply. A
	// crash mid-compaction can leave a freshly installed base alongside
	// the old chain's files, or several deltas claiming the same parent;
	// only links reachable from the surviving base count, the newest
	// valid candidate wins a contested parent, and the rest are stale.
	chain := Chain{BaseSeg: res.CheckpointSeq}
	if chain.BaseSeg != 0 {
		if fi, err := os.Stat(filepath.Join(dir, ckptName(chain.BaseSeg))); err == nil {
			chain.BaseBytes = uint64(fi.Size())
		}
	}
	byParent := make(map[uint64][]uint64)
	for _, d := range deltas {
		hdr, err := readDeltaHeader(filepath.Join(dir, deltaName(d)))
		if err == nil && hdr.Self != d {
			err = &errCorrupt{"delta: header self does not match file name"}
		}
		switch {
		case err != nil:
			res.BadDeltas++
			if logf != nil {
				logf("wal: delta %d: %v — skipped", d, err)
			}
		case chain.BaseSeg == 0 || hdr.Base != chain.BaseSeg:
			res.StaleDeltas++
		default:
			byParent[hdr.Parent] = append(byParent[hdr.Parent], d)
		}
	}
	for head := chain.BaseSeg; chain.BaseSeg != 0; {
		cands := byParent[head]
		delete(byParent, head)
		if len(cands) == 0 {
			break
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] > cands[j] })
		next := cands[0]
		res.StaleDeltas += len(cands) - 1
		path := filepath.Join(dir, deltaName(next))
		keys, _, err := loadDelta(path, apply)
		if err != nil {
			if !IsCorrupt(err) && !os.IsNotExist(err) {
				// loadDelta validates the whole file before applying, so a
				// non-corruption error means apply itself failed — the
				// store is half-loaded and unusable.
				return nil, nil, fmt.Errorf("wal: applying delta %d: %w", next, err)
			}
			// The chain breaks here: everything linked past this delta is
			// unreachable. Replay resumes from the surviving head; if the
			// segments it needs were truncated away at install time, the
			// contiguity check below refuses loudly rather than fabricate
			// a partial keyspace.
			res.BadDeltas++
			if logf != nil {
				logf("wal: delta %d: %v — chain truncated here", next, err)
			}
			break
		}
		var size uint64
		if fi, serr := os.Stat(path); serr == nil {
			size = uint64(fi.Size())
		}
		chain.Deltas = append(chain.Deltas, ChainDelta{Seg: next, Bytes: size})
		res.DeltasLoaded++
		res.DeltaKeys += keys
		head = next
	}
	// Whatever byParent still holds never linked into the surviving
	// chain: orphans of a crashed compaction or of a truncation above.
	for _, cands := range byParent {
		res.StaleDeltas += len(cands)
	}

	// Replayed segment records — the tail past the chain head, unlike
	// checkpoint/delta loads — additionally feed the OnReplayOps hook:
	// their keys changed since the chain head was cut and belong in the
	// next delta.
	applyTail := apply
	if opts.OnReplayOps != nil {
		applyTail = func(ops []Op) error {
			if err := apply(ops); err != nil {
				return err
			}
			opts.OnReplayOps(ops)
			return nil
		}
	}

	replayFrom := chain.Head()
	maxSeg := replayFrom
	truncated := false
	// The replay must be contiguous: from the chain head's own segment
	// (the head may cover only a prefix of it; re-applying the overlap
	// is idempotent), or from segment 1 when there is no checkpoint. A
	// chain with no surviving segments is still consistent on its own.
	expect := replayFrom
	if expect == 0 {
		expect = 1
	}
	var ops []Op
	for _, seg := range segs {
		if seg > maxSeg {
			maxSeg = seg
		}
		if seg < replayFrom {
			continue // superseded by the chain; cleanup missed it
		}
		if seg != expect && !truncated {
			return nil, nil, fmt.Errorf("wal: segment %d missing from %s (found segment %d instead) — the log is not a contiguous history; refusing partial replay", expect, dir, seg)
		}
		expect = seg + 1
		if truncated {
			// Past the durable prefix: anything here may depend on the
			// records lost at the truncation point. Drop it.
			res.DroppedSegments++
			if err := os.Remove(filepath.Join(dir, segName(seg))); err != nil && logf != nil {
				logf("wal: dropping segment %d: %v", seg, err)
			}
			continue
		}
		path := filepath.Join(dir, segName(seg))
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		res.Segments++
		rest := buf
		for len(rest) > 0 {
			payload, next, ok := nextRecord(rest)
			if !ok {
				off := int64(len(buf) - len(rest))
				if err := os.Truncate(path, off); err != nil {
					return nil, nil, fmt.Errorf("wal: truncating torn segment %d: %w", seg, err)
				}
				res.TruncatedSeg = seg
				res.TruncatedAt = off
				truncated = true
				if logf != nil {
					logf("wal: segment %d: torn/corrupt record at byte %d — durable prefix ends here", seg, off)
				}
				break
			}
			rec, err := DecodeRecord(ops[:0], payload)
			if err != nil {
				// The frame checksum held but the payload grammar is bad:
				// same handling as a torn record.
				off := int64(len(buf) - len(rest))
				if terr := os.Truncate(path, off); terr != nil {
					return nil, nil, fmt.Errorf("wal: truncating corrupt segment %d: %w", seg, terr)
				}
				res.TruncatedSeg = seg
				res.TruncatedAt = off
				truncated = true
				if logf != nil {
					logf("wal: segment %d: corrupt payload at byte %d (%v) — durable prefix ends here", seg, off, err)
				}
				break
			}
			aborted := res.AbortedPrepares
			group := res.Step(rec)
			if res.AbortedPrepares != aborted && logf != nil {
				logf("wal: segment %d: prepare superseded by %v — dropped as aborted", seg, rec.Kind)
			}
			if group != nil {
				if err := applyTail(group); err != nil {
					return nil, nil, fmt.Errorf("wal: applying segment %d: %w", seg, err)
				}
			}
			if rec.Ops != nil {
				ops = rec.Ops // keep the grown buffer for the next record
			}
			res.Records++
			rest = next
		}
	}

	l, err := openLog(dir, opts, maxSeg+1, chain)
	if err != nil {
		return nil, nil, err
	}
	if logf != nil {
		logf("wal: recovered %s: %s", dir, res)
	}
	return l, res, nil
}
