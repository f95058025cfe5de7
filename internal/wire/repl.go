// Replication streaming frames.
//
// After a SUBSCRIBE-WAL request is answered OK the connection leaves the
// request/response protocol: the primary pushes frames to the follower
// and the follower pushes ACK frames back, full duplex, both using the
// same 4-byte length framing as the rest of the protocol. Each push
// payload is
//
//	kind(1) | body
//
// with the per-kind layouts documented on the ReplKind constants. There
// is no version negotiation: primary and follower must run the same
// build. This file is the vocabulary only. What a taken-over connection
// needs besides — deadlines, heartbeat cadence, the cut, redial — lives
// in repl.Link, which the watch-session family (sess.go) rides as well.
package wire

import (
	"encoding/binary"
	"errors"
	"strings"

	"polytm/internal/codec"
)

// ReplKind is the first payload byte of a replication push frame.
type ReplKind byte

const (
	// ReplWALBatch carries WAL records for one shard, in log order
	// (primary → follower); it is the only frame a follower applies.
	// Body: uvarint shard | uvarint n | n × (uvarint seq, bytes payload).
	// Payloads are WAL record payloads (see internal/wal). A live record
	// carries its shard's WAL sequence number, and live seqs strictly
	// increase within and across batches. Seq 0 marks a catch-up record:
	// state the primary packed into SET/DEL/FLUSH payloads before the
	// shard's ReplSnapDone, at no position of its log.
	ReplWALBatch ReplKind = 1
	// ReplAck reports the follower's applied positions (follower →
	// primary). Body: uvarint n | n × (uvarint shard, uvarint seq,
	// uvarint bytes): for each shard the highest contiguously applied
	// WAL seq (0 from a shard's first catch-up record to its
	// ReplSnapDone) and the cumulative applied payload bytes of live
	// records. Also sent in answer to ReplPing, so the primary's
	// idle-detection and acked-offset tracking share one frame.
	ReplAck ReplKind = 2
	// Kind 3 was SNAP-BATCH (catch-up pairs). It is retired: catch-up
	// ships as seq-0 ReplWALBatch records, DecodeReplFrame rejects the
	// kind, and it is never reused.

	// ReplSnapDone ends one shard's catch-up — full or delta. Body:
	// uvarint shard | uvarint coverSeq | mode(1) | uvarint incarnation:
	// every WAL record with seq <= coverSeq is already reflected in the
	// shipped state, and every record with a larger seq will arrive in
	// ReplWALBatch frames. mode is ReplCatchupSnap (the catch-up records
	// opened with a FLUSH: the shard was replaced whole) or
	// ReplCatchupDelta (they were SETs and DELs layered onto the
	// follower's state). The follower applies both alike; the byte stays
	// so SNAP-DONE keeps its layout and a captured feed still shows which
	// catch-up ran. incarnation identifies the primary process whose WAL
	// seq space coverSeq lives in; the follower echoes it in its next
	// ReplHello so the primary can tell whether the follower's applied
	// positions are comparable to its own chain (seqs restart at 1 per
	// process).
	ReplSnapDone ReplKind = 4
	// ReplPing is the link heartbeat (primary → follower, sent every
	// Idle). Body: empty. The follower answers with a ReplAck.
	ReplPing ReplKind = 5
	// ReplHello introduces a (re)connecting follower (follower →
	// primary, sent once right after the SUBSCRIBE-WAL response). Body:
	// uvarint incarnation | uvarint n | n × (uvarint shard, uvarint
	// seq) | uvarint epoch: the primary incarnation the follower last
	// caught up from (0 = never), its applied position per shard within
	// it, and the routing epoch of the topology those positions are
	// indexed by. The primary uses the triple to choose delta catch-up
	// over a full one: positions under a different routing epoch are
	// incomparable (shards may have split or merged), so an epoch
	// mismatch forces full catch-up for every shard.
	ReplHello ReplKind = 6
	// Kind 7 was DELTA-BATCH (catch-up values and tombstones), retired
	// with kind 3 on the same terms.

	// ReplTopology announces the primary's routing table (primary →
	// follower, sent once right after reading the follower's HELLO and
	// again never — a topology change cuts every feed, so a follower
	// always learns the new table through a reconnect). Body: uvarint
	// epoch | uvarint n | n × (uvarint id, uvarint mod, uvarint res):
	// the routing epoch and, per table position, the shard's stable id
	// and hash slice (a key routes to the shard where hash % mod ==
	// res). All shard indices in subsequent frames of this feed are
	// positions in this table.
	ReplTopology ReplKind = 8
)

// ReplSnapDone catch-up modes.
const (
	ReplCatchupSnap  byte = 0
	ReplCatchupDelta byte = 1
)

// String names the frame kind.
func (k ReplKind) String() string {
	switch k {
	case ReplWALBatch:
		return "WAL-BATCH"
	case ReplAck:
		return "ACK"
	case ReplSnapDone:
		return "SNAP-DONE"
	case ReplPing:
		return "PING"
	case ReplHello:
		return "HELLO"
	case ReplTopology:
		return "TOPOLOGY"
	default:
		return "ReplKind(?)"
	}
}

// ErrBadReplFrame reports an unknown replication frame kind.
var ErrBadReplFrame = errors.New("wire: unknown replication frame kind")

// ReplRec is one WAL record of a ReplWALBatch frame.
type ReplRec struct {
	Seq     uint64
	Payload []byte
}

// MaxReplBatch is the room a WAL-BATCH frame has for its records under
// MaxFrame, after its kind, shard and record count.
const MaxReplBatch = MaxFrame - 1 - 2*binary.MaxVarintLen64

// ReplRecSize bounds what a record with an n-byte payload takes of a
// WAL-BATCH frame: its seq, its length prefix and the payload. A WAL
// record that cannot ship alone, ReplRecSize(n) > MaxReplBatch, cannot
// reach a follower at all.
func ReplRecSize(n int) int { return 2*binary.MaxVarintLen64 + n }

// ReplAckEntry is one shard's applied position in a ReplAck frame.
// ReplHello reuses it for the follower's per-shard positions (Bytes
// stays 0 there).
type ReplAckEntry struct {
	Shard uint64
	Seq   uint64 // highest contiguously applied WAL seq
	Bytes uint64 // cumulative applied payload bytes
}

// ReplShardSlice is one table position of a ReplTopology frame: a
// shard's stable id and its hash slice. A key with FNV-1a hash h
// routes to the shard where h % Mod == Res.
type ReplShardSlice struct {
	ID, Mod, Res uint64
}

// ReplFrame is the decoded form of one replication push frame. Fields
// are kind-dependent; unused fields are zero.
type ReplFrame struct {
	Kind ReplKind

	Shard uint64 // WAL-BATCH, SNAP-DONE

	Recs        []ReplRec        // WAL-BATCH
	CoverSeq    uint64           // SNAP-DONE
	Mode        byte             // SNAP-DONE: ReplCatchupSnap/ReplCatchupDelta
	Incarnation uint64           // SNAP-DONE, HELLO
	Acks        []ReplAckEntry   // ACK, HELLO
	Epoch       uint64           // HELLO, TOPOLOGY: routing epoch
	Topo        []ReplShardSlice // TOPOLOGY: table positions in order
}

// AppendReplFrame appends f's complete frame — 4-byte length prefix plus
// kind | body — to dst. On error dst is returned unchanged.
func AppendReplFrame(dst []byte, f *ReplFrame) ([]byte, error) {
	out := append(dst, 0, 0, 0, 0, byte(f.Kind))
	var err error
	switch f.Kind {
	case ReplWALBatch:
		out = binary.AppendUvarint(out, f.Shard)
		out = binary.AppendUvarint(out, uint64(len(f.Recs)))
		for i := range f.Recs {
			out = binary.AppendUvarint(out, f.Recs[i].Seq)
			out = codec.AppendBytes(out, f.Recs[i].Payload)
		}
	case ReplAck:
		out = binary.AppendUvarint(out, uint64(len(f.Acks)))
		for i := range f.Acks {
			out = binary.AppendUvarint(out, f.Acks[i].Shard)
			out = binary.AppendUvarint(out, f.Acks[i].Seq)
			out = binary.AppendUvarint(out, f.Acks[i].Bytes)
		}
	case ReplSnapDone:
		out = binary.AppendUvarint(out, f.Shard)
		out = binary.AppendUvarint(out, f.CoverSeq)
		out = append(out, f.Mode)
		out = binary.AppendUvarint(out, f.Incarnation)
	case ReplPing:
		// empty body
	case ReplHello:
		out = binary.AppendUvarint(out, f.Incarnation)
		out = binary.AppendUvarint(out, uint64(len(f.Acks)))
		for i := range f.Acks {
			out = binary.AppendUvarint(out, f.Acks[i].Shard)
			out = binary.AppendUvarint(out, f.Acks[i].Seq)
		}
		out = binary.AppendUvarint(out, f.Epoch)
	case ReplTopology:
		out = binary.AppendUvarint(out, f.Epoch)
		out = binary.AppendUvarint(out, uint64(len(f.Topo)))
		for i := range f.Topo {
			out = binary.AppendUvarint(out, f.Topo[i].ID)
			out = binary.AppendUvarint(out, f.Topo[i].Mod)
			out = binary.AppendUvarint(out, f.Topo[i].Res)
		}
	default:
		err = ErrBadReplFrame
	}
	return closeFrame(dst, out, err)
}

// DecodeReplFrame parses one replication push payload into f, reusing
// f's slice storage across calls (the feed loops keep one ReplFrame per
// connection). The decoded byte fields alias payload. On error f holds
// partially decoded state and must not be applied.
func DecodeReplFrame(f *ReplFrame, payload []byte) error {
	f.Shard, f.CoverSeq = 0, 0
	f.Mode, f.Incarnation = 0, 0
	f.Epoch = 0
	f.Recs = f.Recs[:0]
	f.Acks = f.Acks[:0]
	f.Topo = f.Topo[:0]
	c := codec.New(payload, ErrTruncated)
	f.Kind = ReplKind(c.U8())
	switch f.Kind {
	case ReplWALBatch:
		f.Shard = c.Uvarint()
		for n := c.Count(); n > 0 && c.Err() == nil; n-- {
			var rec ReplRec
			rec.Seq = c.Uvarint()
			rec.Payload = c.Bytes()
			f.Recs = append(f.Recs, rec)
		}
	case ReplAck:
		for n := c.Count(); n > 0 && c.Err() == nil; n-- {
			var e ReplAckEntry
			e.Shard = c.Uvarint()
			e.Seq = c.Uvarint()
			e.Bytes = c.Uvarint()
			f.Acks = append(f.Acks, e)
		}
	case ReplSnapDone:
		f.Shard = c.Uvarint()
		f.CoverSeq = c.Uvarint()
		if f.Mode = c.U8(); f.Mode != ReplCatchupSnap && f.Mode != ReplCatchupDelta {
			c.Fail(ErrBadReplFrame)
		}
		f.Incarnation = c.Uvarint()
	case ReplPing:
		// empty body
	case ReplHello:
		f.Incarnation = c.Uvarint()
		for n := c.Count(); n > 0 && c.Err() == nil; n-- {
			var e ReplAckEntry
			e.Shard = c.Uvarint()
			e.Seq = c.Uvarint()
			f.Acks = append(f.Acks, e)
		}
		f.Epoch = c.Uvarint()
	case ReplTopology:
		f.Epoch = c.Uvarint()
		for n := c.Count(); n > 0 && c.Err() == nil; n-- {
			var e ReplShardSlice
			e.ID = c.Uvarint()
			e.Mod = c.Uvarint()
			e.Res = c.Uvarint()
			f.Topo = append(f.Topo, e)
		}
	default:
		c.Fail(ErrBadReplFrame)
	}
	return c.End()
}

// ---- not-primary redirect ----

// ErrNotPrimary is matched (via errors.Is) by the typed
// *NotPrimaryError a follower raises for a mutating opcode.
var ErrNotPrimary = errors.New("wire: not primary")

const notPrimaryMsg = "wire: not primary"

// NotPrimaryError is the typed redirect error a follower returns for
// any mutating opcode: the rejection happens at the protocol layer,
// before any transaction starts, and carries the primary's address so
// the client can re-aim the write without an extra discovery round
// trip. It crosses the wire as a StatusErr message in a fixed format
// that ParseNotPrimary recovers on the client side.
type NotPrimaryError struct {
	// Primary is the address writes should go to ("" when the follower
	// does not know, e.g. mid-failover).
	Primary string
}

// Error implements error in the wire format ParseNotPrimary parses.
func (e *NotPrimaryError) Error() string {
	if e.Primary == "" {
		return notPrimaryMsg
	}
	return notPrimaryMsg + "; primary=" + e.Primary
}

// Is makes errors.Is(err, ErrNotPrimary) report true.
func (e *NotPrimaryError) Is(target error) bool { return target == ErrNotPrimary }

// ParseNotPrimary recovers a NotPrimaryError from a StatusErr message,
// reporting ok=false for any other message.
func ParseNotPrimary(msg string) (*NotPrimaryError, bool) {
	if msg == notPrimaryMsg {
		return &NotPrimaryError{}, true
	}
	rest, found := strings.CutPrefix(msg, notPrimaryMsg+"; primary=")
	if !found || rest == "" {
		return nil, false
	}
	return &NotPrimaryError{Primary: rest}, true
}
