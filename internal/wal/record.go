// Package wal is polyserve's durability subsystem: an append-only,
// checksummed, length-prefixed write-ahead log of committed mutations
// (wal.go, record.go), periodic snapshot files — full checkpoints of
// the whole keyspace and delta checkpoints of what changed since the
// previous one, one file grammar under two magics (snapfile.go,
// checkpoint.go) — and startup recovery in three stages (recover.go):
// scan the directory, load the newest valid checkpoint and the delta
// chain hanging off it, replay the log tail, truncating at the first
// torn or corrupt record.
//
// Durable files reach the disk through two choke points: segment
// append (openSegment + the flusher's write) and InstallFile, which
// every snapshot file and the server's MANIFEST are installed by.
//
// The log records logical mutations, not physical state: each record is
// one atomic group of operations (a single SET/DEL, a whole TXN batch,
// a FLUSH) that either replays entirely or — when the record is the
// torn tail of a crash — not at all. Records are absolute (SET carries
// the full value, never a delta), which makes replay idempotent: a
// checkpoint may overlap the head of the segment that follows it, and
// re-applying the overlap yields the same state.
//
// Durability rides the engine's irrevocable semantics: the server runs
// every durable mutation as an irrevocable transaction, reserves the
// record inside the transaction body — under the irrevocable token, so
// reservation order is commit order — and confirms it from the
// transaction's Observer, so a logged record is never an aborted
// transaction.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"polytm/internal/codec"
)

// OpKind tags one logical operation inside a record.
type OpKind byte

const (
	// OpSet stores key=val. Body: key, val (uvarint-length-prefixed).
	OpSet OpKind = 1
	// OpDel removes key. Body: key.
	OpDel OpKind = 2
	// OpFlush clears the whole keyspace. Body: empty.
	OpFlush OpKind = 3
	// Kind 4 was REBUILD (re-level the index, no content change). It is
	// retired: never written again, and the number is never reused. An
	// old log may still hold it, so DecodeRecord skips it: it replays as
	// nothing instead of ending the durable prefix there.
	opRetired OpKind = 4
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpSet:
		return "SET"
	case OpDel:
		return "DEL"
	case OpFlush:
		return "FLUSH"
	default:
		return fmt.Sprintf("OpKind(%d)", byte(k))
	}
}

// Op is one decoded logical operation.
type Op struct {
	Kind     OpKind
	Key, Val string
}

// MaxRecord caps one record payload. A stored length beyond it is
// treated as corruption (the tail is truncated there), so a flipped
// length byte can never demand a multi-gigabyte allocation.
const MaxRecord = 64 << 20

// crcTable is the Castagnoli table; CRC-32C has hardware support on
// every platform this runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ---- payload codec ----
//
// A record payload is a non-empty sequence of operations,
//
//	kind(1) | body, repeated
//
// parsed to the end of the payload (the on-disk frame supplies the
// length, so no operation count is stored). The sequence is one atomic
// group: replay applies all of it in one transaction.

// AppendSet appends one SET operation to a payload under construction.
func AppendSet(dst []byte, key, val []byte) []byte {
	dst = append(dst, byte(OpSet))
	dst = codec.AppendBytes(dst, key)
	return codec.AppendBytes(dst, val)
}

// AppendDel appends one DEL operation.
func AppendDel(dst []byte, key []byte) []byte {
	dst = append(dst, byte(OpDel))
	return codec.AppendBytes(dst, key)
}

// AppendFlush appends one FLUSH operation.
func AppendFlush(dst []byte) []byte { return append(dst, byte(OpFlush)) }

// OpHead bounds what an operation's encoding adds to its key and value:
// its kind and two length prefixes.
const OpHead = 1 + 2*binary.MaxVarintLen64

// ---- cross-shard control records ----
//
// A sharded store runs one write-ahead log per shard, and a mutation
// spanning several shards commits through a 2PC-style protocol riding
// the per-shard irrevocable tokens. Its on-log footprint is three
// control payloads, distinguished from operation payloads by a first
// byte outside the OpKind range:
//
//	PREPARE  = 0x10 | uvarint(epoch) | uvarint(coord) | ops...
//	DECISION = 0x11 | uvarint(epoch)
//	COMMIT   = 0x12 | uvarint(epoch)
//
// Every participating shard appends PREPARE (its slice of the
// mutation, tagged with the transaction's epoch and the coordinator
// shard's index) while holding its irrevocable token. Once every
// prepare is durable, the coordinator appends DECISION to its own log
// — the transaction's commit point — and each other participant then
// appends COMMIT. Tokens are held throughout, so within one shard's
// log nothing intervenes between its PREPARE and the record that
// resolves it.
//
// Replay applies a prepare's operations when the next record resolves
// it: COMMIT(epoch) on a participant, DECISION(epoch) on the
// coordinator (whose decision doubles as its own commit mark). A
// prepare followed by anything else was aborted live and is dropped. A
// prepare still pending at the end of the log is in-doubt: recovery
// reports it and the store resolves it against the coordinator shard's
// decision set — present means commit, absent means the crash beat the
// decision and the prepare rolls back.

const (
	ctlPrepare  byte = 0x10
	ctlDecision byte = 0x11
	ctlCommit   byte = 0x12

	// Online-resharding journal records (see the Reshard type):
	//
	//	RESHARD-BEGIN  = 0x13 | uvarint(epoch) | op(1) | uvarint(src) |
	//	                 uvarint(dst) | uvarint(mod) | uvarint(res) |
	//	                 uvarint(mod2) | uvarint(res2) | dir
	//	RESHARD-COMMIT = 0x14 | uvarint(epoch)
	//
	// BEGIN is journaled to the surviving shard's log before any key
	// moves; COMMIT — appended at the end of the cutover barrier, while
	// the frozen shard's token is held — is the reshard's commit point.
	// Recovery finding a BEGIN whose epoch has no later COMMIT (and is
	// newer than the MANIFEST's epoch) rolls the reshard back; a BEGIN
	// with a COMMIT rolls it forward, rewriting the MANIFEST the crash
	// preempted.
	ctlReshardBegin  byte = 0x13
	ctlReshardCommit byte = 0x14
)

// RecordKind classifies a decoded record payload.
type RecordKind byte

const (
	// RecordOps is a plain operation group (the only kind a
	// single-shard log ever holds).
	RecordOps RecordKind = iota
	// RecordPrepare is one shard's slice of a cross-shard mutation.
	RecordPrepare
	// RecordDecision is the coordinator's commit point for an epoch.
	RecordDecision
	// RecordCommit is a participant's commit mark for an epoch.
	RecordCommit
	// RecordReshardBegin journals the intent to split or merge a shard
	// (its Reshard payload names both sides and the new hash slices).
	RecordReshardBegin
	// RecordReshardCommit is a reshard's commit point.
	RecordReshardCommit
)

// String names the kind.
func (k RecordKind) String() string {
	switch k {
	case RecordOps:
		return "OPS"
	case RecordPrepare:
		return "PREPARE"
	case RecordDecision:
		return "DECISION"
	case RecordCommit:
		return "COMMIT"
	case RecordReshardBegin:
		return "RESHARD-BEGIN"
	case RecordReshardCommit:
		return "RESHARD-COMMIT"
	default:
		return fmt.Sprintf("RecordKind(%d)", byte(k))
	}
}

// ReshardOp distinguishes the two reshard directions.
type ReshardOp byte

const (
	// ReshardSplit halves a shard's hash slice onto a new shard.
	ReshardSplit ReshardOp = 0
	// ReshardMerge folds an absorbed shard back into its buddy.
	ReshardMerge ReshardOp = 1
)

// String names the direction.
func (o ReshardOp) String() string {
	if o == ReshardMerge {
		return "MERGE"
	}
	return "SPLIT"
}

// Reshard is the journaled description of one split or merge, carried
// by a RESHARD-BEGIN record. Src is the shard whose keys move (the
// split source / the merge's absorbed shard), Dst the shard that
// receives them (the split's new shard / the merge's survivor); both
// are stable shard ids. Mod/Res is the surviving source-side slice
// after the reshard (the split source's halved slice, or the merge
// survivor's widened one); Mod2/Res2 is the split's new-shard slice
// (zero for a merge). Dir is the WAL directory (base name, relative to
// the store's WAL root) that roll-forward must adopt or roll-back /
// merge-roll-forward must delete: the split's new shard dir, or the
// merge's absorbed shard dir.
type Reshard struct {
	Op         ReshardOp
	Src, Dst   int
	Mod, Res   uint64
	Mod2, Res2 uint64
	Dir        string
}

// Record is one decoded record payload. Epoch and Coord are meaningful
// for control kinds only; Ops for RecordOps and RecordPrepare; Reshard
// for RecordReshardBegin.
type Record struct {
	Kind    RecordKind
	Epoch   uint64
	Coord   int
	Ops     []Op
	Reshard Reshard
}

// PrepareHead bounds what AppendPrepare adds to the operations it
// frames: its control byte, epoch and coordinator.
const PrepareHead = 1 + 2*binary.MaxVarintLen64

// AppendPrepare frames ops (an already-encoded operation sequence) as
// one shard's PREPARE payload for the given epoch and coordinator.
func AppendPrepare(dst []byte, epoch uint64, coord int, ops []byte) []byte {
	dst = append(dst, ctlPrepare)
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(coord))
	return append(dst, ops...)
}

// AppendDecision builds the coordinator's DECISION payload.
func AppendDecision(dst []byte, epoch uint64) []byte {
	dst = append(dst, ctlDecision)
	return binary.AppendUvarint(dst, epoch)
}

// AppendCommitMark builds a participant's COMMIT payload.
func AppendCommitMark(dst []byte, epoch uint64) []byte {
	dst = append(dst, ctlCommit)
	return binary.AppendUvarint(dst, epoch)
}

// AppendReshardBegin builds a RESHARD-BEGIN payload journaling r under
// the given routing epoch (the epoch the reshard will publish).
func AppendReshardBegin(dst []byte, epoch uint64, r *Reshard) []byte {
	dst = append(dst, ctlReshardBegin)
	dst = binary.AppendUvarint(dst, epoch)
	dst = append(dst, byte(r.Op))
	dst = binary.AppendUvarint(dst, uint64(r.Src))
	dst = binary.AppendUvarint(dst, uint64(r.Dst))
	dst = binary.AppendUvarint(dst, r.Mod)
	dst = binary.AppendUvarint(dst, r.Res)
	dst = binary.AppendUvarint(dst, r.Mod2)
	dst = binary.AppendUvarint(dst, r.Res2)
	return codec.AppendBytes(dst, []byte(r.Dir))
}

// AppendReshardCommit builds a reshard's RESHARD-COMMIT payload — its
// commit point.
func AppendReshardCommit(dst []byte, epoch uint64) []byte {
	dst = append(dst, ctlReshardCommit)
	return binary.AppendUvarint(dst, epoch)
}

// AppendOps re-encodes a decoded operation sequence — recovery uses it
// to persist a commit-resolved in-doubt prepare as a plain record in
// the shard's fresh segment.
func AppendOps(dst []byte, ops []Op) []byte {
	for _, op := range ops {
		switch op.Kind {
		case OpSet:
			dst = AppendSet(dst, []byte(op.Key), []byte(op.Val))
		case OpDel:
			dst = AppendDel(dst, []byte(op.Key))
		case OpFlush:
			dst = AppendFlush(dst)
		}
	}
	return dst
}

// DecodeRecord parses one record payload, classifying it and — for
// kinds that carry them — decoding its operations (appended to ops,
// which may be nil or reused).
func DecodeRecord(ops []Op, payload []byte) (Record, error) {
	c := codec.New(payload, errTruncated)
	var rec Record
	switch ctl := c.U8(); ctl {
	case ctlReshardBegin:
		rec.Kind = RecordReshardBegin
		rec.Epoch = c.Uvarint()
		if rec.Reshard.Op = ReshardOp(c.U8()); rec.Reshard.Op != ReshardSplit && rec.Reshard.Op != ReshardMerge {
			c.Fail(&errCorrupt{"bad reshard op"})
		}
		rec.Reshard.Src = int(c.Uvarint())
		rec.Reshard.Dst = int(c.Uvarint())
		rec.Reshard.Mod = c.Uvarint()
		rec.Reshard.Res = c.Uvarint()
		rec.Reshard.Mod2 = c.Uvarint()
		rec.Reshard.Res2 = c.Uvarint()
		rec.Reshard.Dir = string(c.Bytes())
	case ctlReshardCommit:
		rec.Kind = RecordReshardCommit
		rec.Epoch = c.Uvarint()
	case ctlDecision:
		rec.Kind = RecordDecision
		rec.Epoch = c.Uvarint()
	case ctlCommit:
		rec.Kind = RecordCommit
		rec.Epoch = c.Uvarint()
	case ctlPrepare:
		rec.Kind = RecordPrepare
		rec.Epoch = c.Uvarint()
		rec.Coord = int(c.Uvarint())
		rec.Ops = decodeOps(c, ops)
	default:
		// Not a control byte: the first operation's kind.
		c = codec.New(payload, errTruncated)
		rec.Kind = RecordOps
		rec.Ops = decodeOps(c, ops)
	}
	if err := corrupt(c.End()); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// errCorrupt marks a payload that parsed wrong — distinct from a torn
// frame only in diagnostics; both truncate the replay at the record.
type errCorrupt struct{ why string }

func (e *errCorrupt) Error() string { return "wal: corrupt record: " + e.why }

// errTruncated is a record payload's read past its end.
var errTruncated = &errCorrupt{"field overruns payload"}

// IsCorrupt reports whether err marks on-disk corruption (as opposed
// to an I/O or apply failure).
func IsCorrupt(err error) bool {
	var c *errCorrupt
	return errors.As(err, &c)
}

// corrupt is how a record layout's read ends: whatever stopped it —
// bytes left after the last field included — is corruption.
func corrupt(err error) error {
	if err == nil || IsCorrupt(err) {
		return err
	}
	return &errCorrupt{err.Error()}
}

// decodeOps reads operations to the end of c's payload, which must
// hold at least one.
func decodeOps(c *codec.Cursor, ops []Op) []Op {
	if c.Left() == 0 {
		c.Fail(&errCorrupt{"empty payload"})
	}
	for c.Left() > 0 {
		op := Op{Kind: OpKind(c.U8())}
		switch op.Kind {
		case OpSet:
			op.Key = string(c.Bytes())
			op.Val = string(c.Bytes())
		case OpDel:
			op.Key = string(c.Bytes())
		case OpFlush:
			// empty body
		case opRetired:
			continue // empty body, and nothing to apply
		default:
			c.Fail(&errCorrupt{fmt.Sprintf("unknown op kind %d", byte(op.Kind))})
		}
		ops = append(ops, op)
	}
	return ops
}

// ---- on-disk record framing ----
//
// Each record is stored as
//
//	length(4, BE) | crc32c(payload)(4, BE) | payload
//
// A partial header, a partial payload, a length beyond MaxRecord, or a
// checksum mismatch all mark the durable prefix's end: recovery
// truncates the segment there.

const recHeader = 8

// appendRecord frames payload into dst.
func appendRecord(dst, payload []byte) []byte {
	var hdr [recHeader]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// nextRecord parses the first framed record of buf, returning its
// payload and the remainder. ok=false means buf holds no complete,
// well-checksummed record at its head — the torn/corrupt tail.
func nextRecord(buf []byte) (payload, rest []byte, ok bool) {
	if len(buf) < recHeader {
		return nil, nil, false
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n == 0 || n > MaxRecord {
		return nil, nil, false
	}
	want := binary.BigEndian.Uint32(buf[4:8])
	body := buf[recHeader:]
	if uint64(n) > uint64(len(body)) {
		return nil, nil, false
	}
	payload = body[:n]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, nil, false
	}
	return payload, body[n:], true
}
