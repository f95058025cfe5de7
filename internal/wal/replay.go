package wal

import "slices"

// Replay is the state machine over one shard's record stream: what a
// sequence of OPS / PREPARE / DECISION / COMMIT / RESHARD records
// means. Every consumer of a stream steps the same machine — Open over
// the segments it replays, a follower over the records the primary
// ships — so recovery and replication cannot disagree about it. The
// zero value is the empty stream.
type Replay struct {
	// InDoubt is the PREPARE the stream ends in (nil when it ends
	// resolved): the stream stopped inside a cross-shard commit, after
	// this shard prepared but before its outcome record. Its operations
	// were NOT applied; ResolveInDoubt settles it against the
	// coordinator shard's stream.
	InDoubt *PendingPrepare
	// Decisions lists, in stream order, the epochs whose DECISION record
	// this stream holds — the commit points this shard coordinated.
	// Only the newest maxDecisions are kept: an in-doubt prepare's
	// decision is logged inside the same commit window, so an old epoch
	// can never be asked for, and a follower stepping an endless stream
	// must not grow without bound.
	Decisions []uint64
	// MaxEpoch is the largest cross-shard epoch seen in any 2PC control
	// record. The store resumes its epoch counter above the maximum
	// across all shards, so a new epoch can never collide with one
	// still resolvable from a surviving record. (Reshard records carry
	// routing epochs — a separate counter — and do not feed this.)
	MaxEpoch uint64
	// Reshards lists the RESHARD-BEGIN/COMMIT records of the stream in
	// order. The store resolves the last BEGIN against a matching later
	// COMMIT and the MANIFEST's epoch: committed but not yet in the
	// MANIFEST rolls forward, uncommitted rolls back.
	Reshards []ReshardEvent
	// AbortedPrepares counts PREPARE records that were superseded by a
	// non-matching next record — transactions aborted live after
	// preparing. Their operations were dropped.
	AbortedPrepares int
}

// maxDecisions bounds Replay.Decisions; the older half is dropped when
// it is exceeded.
const maxDecisions = 4096

// PendingPrepare is an unresolved PREPARE at the end of a stream:
// epoch, coordinator shard id, and the operations that commit iff the
// coordinator decided.
type PendingPrepare struct {
	Epoch uint64
	Coord int
	Ops   []Op
}

// ReshardEvent is one RESHARD-BEGIN or RESHARD-COMMIT record of a
// stream: Kind is RecordReshardBegin or RecordReshardCommit, Epoch the
// routing epoch the reshard publishes, and Reshard the journaled
// description (BEGIN only).
type ReshardEvent struct {
	Kind    RecordKind
	Epoch   uint64
	Reshard Reshard
}

// Step feeds the stream's next record and returns the operation group
// that record makes applicable — nil when it applies nothing. A plain
// record applies itself (the returned slice is rec.Ops). A PREPARE is
// held back and resolved by the record that follows it (the shard's
// token is held across a cross-shard commit, so nothing can
// legitimately intervene): its matching outcome — COMMIT on a
// participant, DECISION on the coordinator — applies it; any other
// record means the transaction aborted after preparing, and the
// prepare is dropped. rec.Ops may be a reused decode buffer: a PREPARE
// copies it.
func (r *Replay) Step(rec Record) (apply []Op) {
	if pp := r.InDoubt; pp != nil {
		r.InDoubt = nil
		if (rec.Kind == RecordCommit || rec.Kind == RecordDecision) && rec.Epoch == pp.Epoch {
			apply = pp.Ops
		} else {
			r.AbortedPrepares++
		}
	}
	switch rec.Kind {
	case RecordOps:
		return rec.Ops
	case RecordReshardBegin, RecordReshardCommit:
		r.Reshards = append(r.Reshards, ReshardEvent{Kind: rec.Kind, Epoch: rec.Epoch, Reshard: rec.Reshard})
		return nil
	case RecordPrepare:
		r.InDoubt = &PendingPrepare{Epoch: rec.Epoch, Coord: rec.Coord, Ops: slices.Clone(rec.Ops)}
	case RecordDecision:
		r.Decisions = append(r.Decisions, rec.Epoch)
		if len(r.Decisions) > maxDecisions {
			r.Decisions = append(r.Decisions[:0], r.Decisions[maxDecisions/2:]...)
		}
	}
	if rec.Epoch > r.MaxEpoch {
		r.MaxEpoch = rec.Epoch
	}
	return apply
}

// Stream is one shard's replayed record stream, named by the shard's
// STABLE id — the id PREPARE records name their coordinator by, which
// is the shard's table position only until the first reshard.
type Stream struct {
	ID int
	*Replay
}

// ResolveInDoubt is the in-doubt rule: a stream's pending prepare
// commits iff the stream of the shard it names as coordinator holds a
// DECISION for its epoch — the commit point was reached; otherwise the
// transaction committed nowhere and no client was acknowledged.
// resolve is called once per pending prepare, in streams order, with
// the stream's index and the verdict; a committing caller applies
// pp.Ops. The counts are the prepares resolved each way.
func ResolveInDoubt(streams []Stream, resolve func(i int, pp *PendingPrepare, commit bool) error) (committed, rolledBack int, err error) {
	for i, st := range streams {
		pp := st.InDoubt
		if pp == nil {
			continue
		}
		coord := slices.IndexFunc(streams, func(s Stream) bool { return s.ID == pp.Coord })
		commit := coord >= 0 && slices.Contains(streams[coord].Decisions, pp.Epoch)
		if err := resolve(i, pp, commit); err != nil {
			return committed, rolledBack, err
		}
		if commit {
			committed++
		} else {
			rolledBack++
		}
	}
	return committed, rolledBack, nil
}
