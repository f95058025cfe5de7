package wal

import (
	"fmt"
	"os"
	"path/filepath"
)

// This file is the Log's checkpoint surface: the live chain (one full
// checkpoint plus the deltas hanging off it), the two installs, and the
// cleanup each install triggers. The files themselves — both kinds — are
// written and read by the one codec in snapfile.go.

// ckptName formats a checkpoint file name. checkpoint-N holds every
// mutation of segments < N (and possibly a prefix of N): recovery loads
// it and replays segments >= N.
func ckptName(seq uint64) string { return fmt.Sprintf("checkpoint-%08d.ckpt", seq) }

// deltaName formats a delta checkpoint file name. delta-N covers every
// mutation of segments < N back to its parent's cover point: recovery
// loads base + chain and replays segments >= the chain head.
func deltaName(seq uint64) string { return fmt.Sprintf("delta-%08d.ckpt", seq) }

// CkptKind identifies a checkpoint's kind (the STATS ckpt_last_kind
// vocabulary: 0 none, 1 full, 2 delta).
type CkptKind uint8

const (
	CkptNone CkptKind = iota
	CkptFull
	CkptDelta
)

// String names the kind.
func (k CkptKind) String() string {
	switch k {
	case CkptNone:
		return "none"
	case CkptFull:
		return "full"
	case CkptDelta:
		return "delta"
	default:
		return fmt.Sprintf("CkptKind(%d)", int(k))
	}
}

// ChainDelta is one delta checkpoint of a live chain.
type ChainDelta struct {
	// Seg is the delta's segment number (file delta-<Seg>.ckpt).
	Seg uint64
	// Cover is the WAL seq sealed by the rotation that cut this delta —
	// 0 when the delta was recovered from disk (seqs are per-process).
	Cover uint64
	// Bytes is the installed file's size.
	Bytes uint64
}

// Chain is a snapshot of a log's checkpoint chain: at most one base
// plus its deltas in chain (= apply) order. The zero Chain means no
// checkpoint exists yet.
type Chain struct {
	// BaseSeg is the full checkpoint's segment number (0 = none).
	BaseSeg uint64
	// BaseCover is the WAL seq the base's rotation sealed (0 when the
	// base was recovered from disk).
	BaseCover uint64
	// BaseBytes is the base file's size.
	BaseBytes uint64
	// Deltas chains off the base, oldest first.
	Deltas []ChainDelta
}

// Len is the chain length (delta count).
func (c *Chain) Len() int { return len(c.Deltas) }

// DeltaBytes sums the chain's delta file sizes.
func (c *Chain) DeltaBytes() uint64 {
	var n uint64
	for _, d := range c.Deltas {
		n += d.Bytes
	}
	return n
}

// Head is the newest chain element's segment (the base when the chain
// is empty, 0 when there is no checkpoint at all): recovery replays
// segments >= Head.
func (c *Chain) Head() uint64 {
	if n := len(c.Deltas); n > 0 {
		return c.Deltas[n-1].Seg
	}
	return c.BaseSeg
}

// clone deep-copies the chain.
func (c *Chain) clone() Chain {
	out := *c
	out.Deltas = append([]ChainDelta(nil), c.Deltas...)
	return out
}

// Chain returns a snapshot of the log's live checkpoint chain.
func (l *Log) Chain() Chain {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.chain.clone()
}

// LastCheckpointKind reports the kind of the most recent checkpoint
// install (or recovery-time chain head).
func (l *Log) LastCheckpointKind() CkptKind {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastKind
}

// WriteCheckpoint atomically installs checkpoint-<seg>: walk is called
// once with an emit function and must stream, as SETs, every pair of a
// state that includes all mutations of segments < seg (the server
// guarantees this by calling Rotate first and walking after); any other
// op fails the install. cover is the seq boundary the walk includes
// (Rotate's second return); it seeds the new chain base so delta
// catch-up can compare follower positions against it. On success,
// segments, checkpoints, and deltas older than seg are removed — the
// log's truncation, and the start of a fresh chain.
func (l *Log) WriteCheckpoint(seg, cover uint64, walk func(emit func(Op) error) error) error {
	size, err := writeSnapshot(filepath.Join(l.dir, ckptName(seg)), nil, walk)
	if err != nil {
		return fmt.Errorf("wal: checkpoint %d: %w", seg, err)
	}
	l.statCheckpoints.Add(1)
	l.mu.Lock()
	l.chain = Chain{BaseSeg: seg, BaseCover: cover, BaseBytes: uint64(size)}
	l.lastKind = CkptFull
	l.mu.Unlock()
	l.cleanup(seg, seg)
	return nil
}

// WriteDeltaCheckpoint atomically installs delta-<seg>, chained to the
// current chain head: walk is called once with an emit function and
// must stream every key that changed since the chain head was cut — a
// SET of the current value for live keys, a DEL for keys that no longer
// exist. cover is the WAL seq Rotate sealed. On success, segments older
// than seg and checkpoint files older than the chain's base are
// removed; the base and the chain stay, recovery needs them.
func (l *Log) WriteDeltaCheckpoint(seg, cover uint64, walk func(emit func(Op) error) error) error {
	l.mu.Lock()
	hdr := &snapHeader{Self: seg, Base: l.chain.BaseSeg, Parent: l.chain.Head(), Cover: cover}
	l.mu.Unlock()
	if hdr.Base == 0 {
		return fmt.Errorf("wal: delta checkpoint needs a base checkpoint")
	}
	size, err := writeSnapshot(filepath.Join(l.dir, deltaName(seg)), hdr, walk)
	if err != nil {
		return fmt.Errorf("wal: delta %d: %w", seg, err)
	}
	l.statCheckpoints.Add(1)
	l.mu.Lock()
	l.chain.Deltas = append(l.chain.Deltas, ChainDelta{Seg: seg, Cover: cover, Bytes: uint64(size)})
	l.lastKind = CkptDelta
	l.mu.Unlock()
	l.cleanup(seg, hdr.Base)
	return nil
}

// cleanup removes segments older than keepSeg and checkpoint/delta
// files older than keepCkpt. A full checkpoint passes keepCkpt = its
// own seg (the old chain is superseded whole); a delta passes the
// chain's base seg (everything at or after the base is still live).
func (l *Log) cleanup(keepSeg, keepCkpt uint64) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		var n uint64
		switch {
		case parseName(e.Name(), "wal-", ".log", &n) && n < keepSeg,
			parseName(e.Name(), "checkpoint-", ".ckpt", &n) && n < keepCkpt,
			parseName(e.Name(), "delta-", ".ckpt", &n) && n < keepCkpt:
			if err := os.Remove(filepath.Join(l.dir, e.Name())); err != nil {
				l.logf("wal: cleanup %s: %v", e.Name(), err)
			}
		}
	}
}

// ReadDelta validates the chain delta with segment seg end to end and
// streams its entries to emit: SETs, and a DEL for each tombstone.
// Replication delta catch-up ships chain deltas through it to a
// follower whose applied position covers the chain's base.
func (l *Log) ReadDelta(seg uint64, emit func(Op) error) error {
	_, _, err := readSnapshot(filepath.Join(l.dir, deltaName(seg)), true, emit)
	return err
}
