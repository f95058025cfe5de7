// Package wire defines polyserve's length-prefixed binary protocol.
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload. A request payload is
//
//	op(1) | sem(1) | body
//
// and a response payload is
//
//	status(1) | body
//
// where sem is the transaction-semantics byte: one of the four
// stm.Semantics values, or SemDefault (0xFF) to accept the server's
// per-opcode mapping (GET/MGET → snapshot, SCAN → weak/elastic,
// SET/CAS/DEL/TXN → def, FLUSH → irrevocable). The byte is the
// wire rendition of the paper's start(p): each request class picks the
// semantics that fits it, and a client may override the class default
// per request.
//
// Bodies are built from uvarint-length-prefixed byte strings and bare
// uvarints; see the per-opcode layout comments on the Op constants.
// Responses carry no opcode — the protocol is strictly in-order
// (pipelined requests are answered in arrival order, like Redis), so the
// client decodes each response against the opcode it sent.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"polytm/internal/stm"
)

// Op is a request opcode.
type Op byte

const (
	// OpGet reads one key. Body: key. OK response body: val.
	OpGet Op = 1
	// OpSet writes one key. Body: key, val. OK response body: empty.
	OpSet Op = 2
	// OpCAS compares-and-swaps one key. Body: key, old, new. OK response
	// body: empty; a CASMismatch response carries the current value.
	OpCAS Op = 3
	// OpDel removes one key. Body: key. OK / NotFound, body empty.
	OpDel Op = 4
	// OpScan walks keys in [from, to) in order. Body: from, to,
	// uvarint limit (empty `to` = to the end, limit 0 = unbounded).
	// OK response body: uvarint n, then n × (key, val).
	OpScan Op = 5
	// OpMGet reads many keys in one transaction. Body: uvarint n, then
	// n × key. OK response body: uvarint n, then n × sub-response
	// (status(1) | val-if-OK).
	OpMGet Op = 6
	// OpTxn runs a batch of sub-operations (OpGet/OpSet/OpCAS/OpDel
	// bodies) in ONE transaction. Body: uvarint n, then n × (op(1) |
	// body). OK response body: uvarint n, then n × sub-response
	// (status(1) | body as for the sub-op). Sub-operations share the
	// batch's semantics.
	OpTxn Op = 7
	// OpStats reports engine counters. Body: empty. OK response body:
	// uvarint n, then n × (name, uvarint value). Beyond the aggregate
	// engine counters (starts, commits, aborts, ... and the sem.<class>.*
	// per-semantics rows) a sharded store reports store_shards,
	// xshard_txns/xshard_aborts (cross-shard 2PC traffic), and per-shard
	// shard<i>.ops plus — when durable — shard<i>.wal_bytes/records/fsyncs
	// rows exposing routing balance and per-shard log pressure. A durable
	// store also reports its checkpoint-chain gauges — ckpt_chain_len
	// (deltas on the current base), ckpt_delta_bytes, ckpt_base_bytes,
	// and ckpt_last_kind (0 none / 1 full / 2 delta) — aggregated and,
	// when sharded, per shard as shard<i>.ckpt_*, making the
	// churn-bounded checkpoint claim observable from the wire. A
	// replicating node adds repl_role (0 primary / 1 follower) and
	// repl_failovers (promotions performed); a primary additionally
	// reports repl_followers, repl_sync, repl_shipped_records/bytes
	// (live-tail records only), repl_delta_catchups (shard catch-ups
	// served as a churn-bounded delta instead of a full one) and
	// per-follower follower<i>.acked_records / follower<i>.lag_bytes
	// (live-tail bytes shipped but not yet acked); a follower reports
	// repl_applied_records/bytes (every WAL-BATCH record it applied,
	// catch-up records included), repl_reconnects and repl_state (its
	// link state-machine position). The session layer
	// adds watch_sessions (live watch sessions), events_pushed /
	// events_lost (push-buffer delivery vs overflow-cut drops),
	// keys_expired (TTL deadlines the reaper turned into durable
	// deletes), ttl_armed (deadlines currently pending), and incr_ops
	// (server-side INCR/DECR commits).
	OpStats Op = 8
	// OpFlush removes every key (admin). Body: empty. OK response body:
	// uvarint removed-count.
	OpFlush Op = 9
	// Opcode 10 was REBUILD (re-level the skip-list index). It is
	// retired: Valid rejects it, and it is never reused.

	// OpPing is a liveness probe: it touches no store state and starts no
	// transaction. Body: empty. OK response body: empty. The client's Ping
	// sends it; the replication link uses the push-frame equivalent
	// (ReplPing).
	OpPing Op = 11
	// OpSubscribeWAL converts the connection into a replication feed.
	// Body: empty. OK response body: uvarint store-shard count. After the
	// OK response the request/response protocol ends and the server
	// pushes replication frames (see the Repl* frame kinds) on the same
	// connection; the subscriber sends ReplAck frames back. Only a
	// durable primary accepts it.
	OpSubscribeWAL Op = 12
	// OpWatch converts the connection into a watch session. Body:
	// mode(1) | key-or-prefix, with mode 0 = exact key and 1 = prefix.
	// OK response body: uvarint watch-id. After the OK response the
	// request/response protocol ends and both ends push session frames
	// (see the Sess* frame kinds): the server delivers EVENT frames for
	// commits matching the session's watches, the client may register
	// further watches with SessWatch frames. Followers accept it too —
	// a watch on a follower observes replicated applies.
	OpWatch Op = 13
	// OpIncr atomically adds a delta to a key's integer value under def
	// semantics (server-side counter: one round trip, contention handled
	// by the engine's contention manager instead of client CAS loops).
	// Body: key | uvarint delta. A missing — or expired — key counts
	// from 0; a non-integer value is a StatusErr. OK response body:
	// zigzag-varint new value.
	OpIncr Op = 14
	// OpDecr is OpIncr with the delta subtracted. Body and response as
	// OpIncr.
	OpDecr Op = 15
	// OpSetEx is SET with a time-to-live: the entry expires TTL
	// milliseconds after the write commits. Reads under ANY semantics
	// treat an expired entry as absent (lazy expiry, no write); a
	// background reaper deletes expired entries in small def-class
	// batches, logged through the WAL as ordinary deletes so replicas
	// and recovery converge. Body: key | val | uvarint ttl-ms (0 is
	// rejected — plain SET already means "no expiry"). OK response
	// body: empty.
	OpSetEx Op = 16
	// OpSplit splits one keyspace shard in two (admin): the shard's
	// hash slice (mod, res) halves into (2·mod, res) on the source and
	// (2·mod, res+mod) on a freshly created shard, online — the bulk of
	// the key range copies under a snapshot read plus dirty-delta
	// rounds, and only the final cutover runs inside a short
	// irrevocable barrier. Body: uvarint epoch | uvarint shard-id,
	// where epoch is the routing epoch the caller observed (STATS
	// routing_epoch): a stale epoch is rejected with the typed
	// *WrongEpochError so concurrent admin ops cannot split against a
	// topology they never saw. OK response body: uvarint new epoch.
	OpSplit Op = 17
	// OpMerge merges two buddy shards (admin): valid only for slices
	// (mod, r) and (mod, r+mod/2), which fold back into (mod/2, r) on
	// the shard that held (mod, r) — the lower-residue one survives,
	// whichever argument names it. Body: uvarint epoch | uvarint shard-a
	// | uvarint shard-b (stable shard ids). Epoch contract and response
	// as OpSplit.
	OpMerge Op = 18
)

// String names the opcode.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpCAS:
		return "CAS"
	case OpDel:
		return "DEL"
	case OpScan:
		return "SCAN"
	case OpMGet:
		return "MGET"
	case OpTxn:
		return "TXN"
	case OpStats:
		return "STATS"
	case OpFlush:
		return "FLUSH"
	case OpPing:
		return "PING"
	case OpSubscribeWAL:
		return "SUBSCRIBE-WAL"
	case OpWatch:
		return "WATCH"
	case OpIncr:
		return "INCR"
	case OpDecr:
		return "DECR"
	case OpSetEx:
		return "SETEX"
	case OpSplit:
		return "SPLIT"
	case OpMerge:
		return "MERGE"
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

// Valid reports whether o is a defined opcode; 10, REBUILD's, is retired.
func (o Op) Valid() bool { return o >= OpGet && o <= OpMerge && o != 10 }

// Mutates reports whether the opcode can change store state. A TXN
// batch counts as mutating regardless of its sub-operations (a batch
// of pure GETs should be an MGET); so do the whole-store admin ops,
// including the resharding ops (a follower must redirect them to the
// primary — topology changes flow through the replication feed).
func (o Op) Mutates() bool {
	switch o {
	case OpSet, OpCAS, OpDel, OpTxn, OpFlush, OpIncr, OpDecr, OpSetEx,
		OpSplit, OpMerge:
		return true
	default:
		return false
	}
}

// Status is a response status byte.
type Status byte

const (
	// StatusOK: the operation succeeded.
	StatusOK Status = 0
	// StatusNotFound: the key does not exist.
	StatusNotFound Status = 1
	// StatusCASMismatch: the key's current value differs from `old`; the
	// response body carries the current value.
	StatusCASMismatch Status = 2
	// StatusErr: the operation failed; the response body is a message.
	StatusErr Status = 3
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusCASMismatch:
		return "CAS_MISMATCH"
	case StatusErr:
		return "ERR"
	default:
		return fmt.Sprintf("Status(%d)", byte(s))
	}
}

// SemDefault in the sem byte selects the server's per-opcode semantics
// mapping. Any other value must be a valid stm.Semantics.
const SemDefault byte = 0xFF

// SemanticsError is the typed protocol error for an out-of-range
// semantics byte. It matches ErrBadSemantics via errors.Is and carries
// the offending byte for diagnostics.
type SemanticsError struct{ Byte byte }

// Error implements error.
func (e *SemanticsError) Error() string {
	return fmt.Sprintf("wire: invalid semantics byte 0x%02X", e.Byte)
}

// Is makes errors.Is(err, ErrBadSemantics) report true.
func (e *SemanticsError) Is(target error) bool { return target == ErrBadSemantics }

// SnapshotWriteError is the typed protocol error for a frame that
// overrides a write opcode to snapshot (read-only) semantics — a
// combination the engine could only reject after starting a
// transaction, so the protocol layer rejects it before one starts. It
// matches ErrSnapshotWriteOp via errors.Is and carries the opcode.
type SnapshotWriteError struct{ Op Op }

// Error implements error.
func (e *SnapshotWriteError) Error() string {
	return fmt.Sprintf("wire: %s cannot run under snapshot (read-only) semantics", e.Op)
}

// Is makes errors.Is(err, ErrSnapshotWriteOp) report true.
func (e *SnapshotWriteError) Is(target error) bool { return target == ErrSnapshotWriteOp }

// Semantics validates a frame's semantics byte in ONE place — the
// encoder, the decoder and the server's request executor all call it,
// so no handler re-implements the range check. SemDefault resolves to
// def (the caller's per-opcode mapping); any other byte must name a
// defined stm.Semantics or a *SemanticsError is returned.
func Semantics(b byte, def stm.Semantics) (stm.Semantics, error) {
	if b == SemDefault {
		return def, nil
	}
	if s := stm.Semantics(b); s.Valid() {
		return s, nil
	}
	return 0, &SemanticsError{Byte: b}
}

// MaxFrame is the default cap on a frame payload; a peer announcing a
// larger frame is protocol-broken (or hostile) and the connection is
// dropped rather than the length trusted.
const MaxFrame = 16 << 20

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrTruncated     = errors.New("wire: truncated payload")
	ErrBadOp         = errors.New("wire: unknown opcode")
	ErrBadSemantics  = errors.New("wire: invalid semantics byte")
	ErrBadSubOp      = errors.New("wire: opcode not allowed in TXN batch")
	// ErrBadWatchMode rejects a WATCH frame whose mode byte is neither 0
	// (exact) nor 1 (prefix).
	ErrBadWatchMode = errors.New("wire: invalid WATCH mode byte")
	// ErrZeroTTL rejects a SETEX frame with a zero TTL — plain SET
	// already means "no expiry", so a zero here is a client bug, not a
	// request.
	ErrZeroTTL = errors.New("wire: SETEX with zero TTL")
	// ErrSnapshotWriteOp is matched (via errors.Is) by the typed
	// *SnapshotWriteError a server raises for snapshot-semantics
	// override on a write opcode.
	ErrSnapshotWriteOp = errors.New("wire: write opcode under snapshot semantics")
)

// KV is one key/value pair of a SCAN response.
type KV struct {
	Key, Val []byte
}

// Counter is one named engine counter of a STATS response.
type Counter struct {
	Name  string
	Value uint64
}

// Request is the decoded form of one request frame. Fields are
// opcode-dependent; unused fields are zero.
type Request struct {
	Op  Op
	Sem byte // SemDefault or a stm.Semantics value

	Key []byte // GET, SET, CAS, DEL
	Val []byte // SET; CAS new
	Old []byte // CAS expected

	Keys [][]byte // MGET

	From, To []byte // SCAN
	Limit    uint64 // SCAN

	Batch []Request // TXN sub-operations (Sem ignored on sub-ops)

	Delta     uint64 // INCR / DECR magnitude
	TTLMillis uint64 // SETEX time-to-live in milliseconds
	Prefix    bool   // WATCH: Key is a prefix, not an exact key

	// Resharding admin fields (SPLIT / MERGE). Epoch is the routing
	// epoch the caller last observed; the server rejects the request
	// with *WrongEpochError when it no longer matches, so an admin op
	// can never act on a topology its issuer never saw. Shard (and
	// Shard2 for MERGE) are stable shard ids, not table positions.
	Epoch  uint64
	Shard  uint64 // SPLIT target; MERGE first (surviving) shard
	Shard2 uint64 // MERGE second (absorbed) shard
}

// Response is the decoded form of one response frame, against the
// request opcode it answers.
type Response struct {
	Status Status

	Val      []byte     // GET value; CAS current value on mismatch
	Pairs    []KV       // SCAN
	Batch    []Response // MGET / TXN sub-responses
	Counters []Counter  // STATS
	N        uint64     // FLUSH count; SUBSCRIBE-WAL shards; WATCH id; SPLIT/MERGE epoch
	Int      int64      // INCR / DECR new value
	Msg      string     // StatusErr message

	// SubOp is the opcode this TXN sub-response answers. It is consulted
	// only when encoding the Batch of an OpTxn response (the decoder
	// takes the sub-opcodes from the request instead); it never crosses
	// the wire itself.
	SubOp Op
}

// Err folds a StatusErr response into a Go error (nil otherwise).
// Typed server errors that survive the wire as messages are recovered
// here, so clients can match them with errors.Is/As: a follower's
// write rejection comes back as *NotPrimaryError (carrying the
// primary's address), not an opaque string.
func (r *Response) Err() error {
	if r.Status == StatusErr {
		if np, ok := ParseNotPrimary(r.Msg); ok {
			return np
		}
		if we, ok := ParseWrongEpoch(r.Msg); ok {
			return we
		}
		if pe, ok := ParseProtocolError(r.Msg); ok {
			return pe
		}
		return fmt.Errorf("wire: server error: %s", r.Msg)
	}
	return nil
}

// ErrWrongEpoch is matched (via errors.Is) by the typed
// *WrongEpochError a server raises for a resharding admin op carrying
// a stale routing epoch.
var ErrWrongEpoch = errors.New("wire: wrong routing epoch")

// WrongEpochError is the typed rejection for a SPLIT/MERGE whose
// Epoch field does not match the server's current routing epoch. It
// carries both sides so the client can refresh and retry: Have is the
// epoch the request carried, Want the server's current one. Its
// Error() string is the exact wire format ParseWrongEpoch recovers on
// the client side.
type WrongEpochError struct {
	Have, Want uint64
}

// Error implements error in the wire format ParseWrongEpoch parses.
func (e *WrongEpochError) Error() string {
	return fmt.Sprintf("wire: wrong routing epoch; have=%d want=%d", e.Have, e.Want)
}

// Is matches ErrWrongEpoch so callers can errors.Is without the
// concrete type.
func (e *WrongEpochError) Is(target error) bool { return target == ErrWrongEpoch }

// ParseWrongEpoch recovers a WrongEpochError from a StatusErr message,
// reporting whether the message was one.
func ParseWrongEpoch(msg string) (*WrongEpochError, bool) {
	const prefix = "wire: wrong routing epoch; have="
	rest, ok := strings.CutPrefix(msg, prefix)
	if !ok {
		return nil, false
	}
	havePart, wantPart, ok := strings.Cut(rest, " want=")
	if !ok {
		return nil, false
	}
	have, err1 := strconv.ParseUint(havePart, 10, 64)
	want, err2 := strconv.ParseUint(wantPart, 10, 64)
	if err1 != nil || err2 != nil {
		return nil, false
	}
	return &WrongEpochError{Have: have, Want: want}, true
}

// ---- primitive encoding ----

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.pos += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.pos += n
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)-r.pos) {
		return nil, ErrTruncated
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

func (r *reader) byte1() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrTruncated
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) done() error {
	if r.pos != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes in payload", len(r.buf)-r.pos)
	}
	return nil
}

// count reads a collection count and sanity-bounds it against the bytes
// actually remaining (each element costs at least one byte), so a
// hostile count cannot demand more elements than the frame can encode.
func (r *reader) count() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.buf)-r.pos) {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// prealloc caps speculative slice allocation for a declared element
// count: decoders start at most this big and grow with append, so a
// count near the frame limit cannot allocate element-struct memory far
// exceeding the frame itself.
func prealloc(n int) int {
	const cap = 1024
	if n > cap {
		return cap
	}
	return n
}

// batchRoom returns an empty slice with room for a reply's n declared
// sub-responses: lent, cleared to its capacity, when they fit there —
// a count from the wire never indexes storage it was not checked
// against — and fresh storage, capped by prealloc, otherwise.
func batchRoom(lent []Response, n int) []Response {
	if lent == nil || n > cap(lent) {
		return make([]Response, 0, prealloc(n))
	}
	clear(lent[:cap(lent)])
	return lent
}

// ---- framing ----

// ReadFrameBuf reads one frame payload from br into caller-owned
// storage, refusing frames larger than maxFrame (<= 0 means MaxFrame):
// the frame is read into buf (grown only when the payload exceeds its
// capacity; nil allocates one) and the filled slice, which aliases
// buf's storage, is returned. The caller passes the returned slice back
// on the next call and must be done with a payload before reading the
// next frame into it. The frame length is validated against maxFrame
// BEFORE any buffer is grown, so a hostile length cannot force an
// allocation; a clean end between frames is io.EOF, and a stream cut
// inside a frame io.ErrUnexpectedEOF.
func ReadFrameBuf(br *bufio.Reader, buf []byte, maxFrame int) ([]byte, error) {
	n, err := readFrameLen(br, maxFrame)
	if err != nil {
		return nil, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	return readFrameBody(br, buf[:n])
}

// ReadFrameBump reads one frame (at most MaxFrame) for a caller that
// keeps every payload of a batch: the payload is carved off the head of
// *free, which is advanced past it, and is capped at its own length so
// an append through it cannot reach the next frame. A frame that does
// not fit starts a new *free sized for itself and the more-1 frames still
// to come, taken to be like it, up to maxChunk; one over a quarter of
// maxChunk is allocated on its own and leaves *free alone. Storage is
// never reused: whatever aliases a payload keeps its chunk alive.
func ReadFrameBump(br *bufio.Reader, free *[]byte, more, maxChunk int) ([]byte, error) {
	n, err := readFrameLen(br, 0)
	if err != nil {
		return nil, err
	}
	if n > len(*free) {
		if n > maxChunk/4 || more <= 1 {
			return readFrameBody(br, make([]byte, n))
		}
		*free = make([]byte, min(n*more, maxChunk))
	}
	payload := (*free)[:n:n]
	*free = (*free)[n:]
	return readFrameBody(br, payload)
}

// readFrameLen consumes a frame's length prefix, refusing one above
// maxFrame (<= 0 means MaxFrame) before anything is allocated for it.
func readFrameLen(br *bufio.Reader, maxFrame int) (int, error) {
	if maxFrame <= 0 {
		maxFrame = MaxFrame
	}
	// The header is read in place from br's own buffer: a local
	// [4]byte handed to io.ReadFull escapes through the io.Reader
	// interface and costs a heap allocation per frame.
	hdr, err := br.Peek(4)
	if err != nil {
		// io.ReadFull's contract: a clean end between frames is
		// io.EOF, one inside the header io.ErrUnexpectedEOF.
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	br.Discard(4) // cannot fail: Peek just buffered these bytes
	// Compare in uint64: a maxFrame above 4GiB must not wrap to a tiny
	// (or zero) cap and start rejecting everything.
	if uint64(n) > uint64(maxFrame) {
		return 0, ErrFrameTooLarge
	}
	return int(n), nil
}

// readFrameBody fills payload with the frame body that follows a length
// prefix; a stream that ends inside it is io.ErrUnexpectedEOF.
func readFrameBody(br *bufio.Reader, payload []byte) ([]byte, error) {
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// putFrameLen back-fills the 4-byte length prefix of a frame whose
// reserved header starts at `start` in dst.
func putFrameLen(dst []byte, start int) {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
}

// ---- request codec ----

// appendRequestBody encodes the opcode-dependent body (no op/sem bytes).
func appendRequestBody(dst []byte, r *Request) ([]byte, error) {
	switch r.Op {
	case OpGet, OpDel:
		dst = appendBytes(dst, r.Key)
	case OpSet:
		dst = appendBytes(dst, r.Key)
		dst = appendBytes(dst, r.Val)
	case OpCAS:
		dst = appendBytes(dst, r.Key)
		dst = appendBytes(dst, r.Old)
		dst = appendBytes(dst, r.Val)
	case OpScan:
		dst = appendBytes(dst, r.From)
		dst = appendBytes(dst, r.To)
		dst = appendUvarint(dst, r.Limit)
	case OpMGet:
		dst = appendUvarint(dst, uint64(len(r.Keys)))
		for _, k := range r.Keys {
			dst = appendBytes(dst, k)
		}
	case OpTxn:
		dst = appendUvarint(dst, uint64(len(r.Batch)))
		for i := range r.Batch {
			sub := &r.Batch[i]
			switch sub.Op {
			case OpGet, OpSet, OpCAS, OpDel:
			default:
				return nil, ErrBadSubOp
			}
			dst = append(dst, byte(sub.Op))
			var err error
			if dst, err = appendRequestBody(dst, sub); err != nil {
				return nil, err
			}
		}
	case OpWatch:
		if r.Prefix {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendBytes(dst, r.Key)
	case OpIncr, OpDecr:
		dst = appendBytes(dst, r.Key)
		dst = appendUvarint(dst, r.Delta)
	case OpSetEx:
		dst = appendBytes(dst, r.Key)
		dst = appendBytes(dst, r.Val)
		dst = appendUvarint(dst, r.TTLMillis)
	case OpSplit:
		dst = appendUvarint(dst, r.Epoch)
		dst = appendUvarint(dst, r.Shard)
	case OpMerge:
		dst = appendUvarint(dst, r.Epoch)
		dst = appendUvarint(dst, r.Shard)
		dst = appendUvarint(dst, r.Shard2)
	case OpStats, OpFlush, OpPing, OpSubscribeWAL:
		// empty body
	default:
		return nil, ErrBadOp
	}
	return dst, nil
}

// AppendRequestFrame appends r's complete frame — 4-byte length prefix
// plus op | sem | body — to dst, so a pipelined batch can be encoded
// into one reusable buffer and written with a single Write. On error dst
// is returned unchanged.
func AppendRequestFrame(dst []byte, r *Request) ([]byte, error) {
	if _, err := Semantics(r.Sem, 0); err != nil {
		return dst, err
	}
	// appendRequestBody's default arm rejects every opcode Valid rejects.
	out, err := appendRequestBody(append(dst, 0, 0, 0, 0, byte(r.Op), r.Sem), r)
	if err != nil {
		return dst, err
	}
	putFrameLen(out, len(dst))
	return out, nil
}

func decodeRequestBody(rd *reader, r *Request) error {
	var err error
	switch r.Op {
	case OpGet, OpDel:
		r.Key, err = rd.bytes()
	case OpSet:
		if r.Key, err = rd.bytes(); err != nil {
			return err
		}
		r.Val, err = rd.bytes()
	case OpCAS:
		if r.Key, err = rd.bytes(); err != nil {
			return err
		}
		if r.Old, err = rd.bytes(); err != nil {
			return err
		}
		r.Val, err = rd.bytes()
	case OpScan:
		if r.From, err = rd.bytes(); err != nil {
			return err
		}
		if r.To, err = rd.bytes(); err != nil {
			return err
		}
		r.Limit, err = rd.uvarint()
	case OpMGet:
		n, err := rd.count()
		if err != nil {
			return err
		}
		// Grown by append from the (possibly reused) slice, never
		// preallocated from the declared count: a hostile count cannot
		// reserve memory beyond what its elements actually decode to.
		for i := 0; i < n; i++ {
			k, err := rd.bytes()
			if err != nil {
				return err
			}
			r.Keys = append(r.Keys, k)
		}
	case OpTxn:
		n, err := rd.count()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			op, err := rd.byte1()
			if err != nil {
				return err
			}
			switch Op(op) {
			case OpGet, OpSet, OpCAS, OpDel:
			default:
				return ErrBadSubOp
			}
			// Reuse a retained sub-entry when the batch slice has the
			// capacity (sub-ops never nest, so only the flat fields
			// need scrubbing).
			var sub *Request
			if m := len(r.Batch); m < cap(r.Batch) {
				r.Batch = r.Batch[:m+1]
				sub = &r.Batch[m]
				sub.Op, sub.Sem = Op(op), SemDefault
				sub.Key, sub.Val, sub.Old = nil, nil, nil
			} else {
				r.Batch = append(r.Batch, Request{Op: Op(op), Sem: SemDefault})
				sub = &r.Batch[m]
			}
			if err := decodeRequestBody(rd, sub); err != nil {
				return err
			}
		}
	case OpWatch:
		mode, err := rd.byte1()
		if err != nil {
			return err
		}
		switch mode {
		case 0:
			r.Prefix = false
		case 1:
			r.Prefix = true
		default:
			return ErrBadWatchMode
		}
		r.Key, err = rd.bytes()
		return err
	case OpIncr, OpDecr:
		if r.Key, err = rd.bytes(); err != nil {
			return err
		}
		r.Delta, err = rd.uvarint()
	case OpSetEx:
		if r.Key, err = rd.bytes(); err != nil {
			return err
		}
		if r.Val, err = rd.bytes(); err != nil {
			return err
		}
		if r.TTLMillis, err = rd.uvarint(); err != nil {
			return err
		}
		if r.TTLMillis == 0 {
			return ErrZeroTTL
		}
	case OpSplit:
		if r.Epoch, err = rd.uvarint(); err != nil {
			return err
		}
		r.Shard, err = rd.uvarint()
	case OpMerge:
		if r.Epoch, err = rd.uvarint(); err != nil {
			return err
		}
		if r.Shard, err = rd.uvarint(); err != nil {
			return err
		}
		r.Shard2, err = rd.uvarint()
	case OpStats, OpFlush, OpPing, OpSubscribeWAL:
		// empty body
	default:
		return ErrBadOp
	}
	return err
}

// DecodeRequestInto parses one request payload into r, reusing r's
// slice storage (MGET key lists, TXN sub-request entries) across calls
// — the decode path of a connection loop that keeps one Request per
// connection. All of r's request fields are reset first; on error r
// holds partially decoded state and must not be executed. The decoded
// fields alias payload, so r is only valid while the payload buffer is.
func DecodeRequestInto(r *Request, payload []byte) error {
	r.Key, r.Val, r.Old = nil, nil, nil
	r.From, r.To = nil, nil
	r.Limit = 0
	r.Keys = r.Keys[:0]
	r.Batch = r.Batch[:0]
	r.Delta, r.TTLMillis, r.Prefix = 0, 0, false
	r.Epoch, r.Shard, r.Shard2 = 0, 0, 0
	rd := &reader{buf: payload}
	op, err := rd.byte1()
	if err != nil {
		return err
	}
	sem, err := rd.byte1()
	if err != nil {
		return err
	}
	r.Op, r.Sem = Op(op), sem
	if !r.Op.Valid() {
		return ErrBadOp
	}
	if _, err := Semantics(sem, 0); err != nil {
		return err
	}
	if err := decodeRequestBody(rd, r); err != nil {
		return err
	}
	return rd.done()
}

// ---- response codec ----

// appendResponseBody encodes the body of a sub- or top-level response
// answering opcode op.
func appendResponseBody(dst []byte, op Op, r *Response) ([]byte, error) {
	if r.Status == StatusErr {
		return appendBytes(dst, []byte(r.Msg)), nil
	}
	switch op {
	case OpGet:
		if r.Status == StatusOK {
			dst = appendBytes(dst, r.Val)
		}
	case OpCAS:
		if r.Status == StatusCASMismatch {
			dst = appendBytes(dst, r.Val)
		}
	case OpSet, OpDel:
		// empty body
	case OpScan:
		dst = appendUvarint(dst, uint64(len(r.Pairs)))
		for _, kv := range r.Pairs {
			dst = appendBytes(dst, kv.Key)
			dst = appendBytes(dst, kv.Val)
		}
	case OpMGet:
		dst = appendUvarint(dst, uint64(len(r.Batch)))
		for i := range r.Batch {
			sub := &r.Batch[i]
			dst = append(dst, byte(sub.Status))
			var err error
			if dst, err = appendResponseBody(dst, OpGet, sub); err != nil {
				return nil, err
			}
		}
	case OpTxn:
		dst = appendUvarint(dst, uint64(len(r.Batch)))
		for i := range r.Batch {
			sub := &r.Batch[i]
			dst = append(dst, byte(sub.Status))
			var err error
			if dst, err = appendResponseBody(dst, sub.SubOp, sub); err != nil {
				return nil, err
			}
		}
	case OpStats:
		dst = appendUvarint(dst, uint64(len(r.Counters)))
		for _, c := range r.Counters {
			dst = appendBytes(dst, []byte(c.Name))
			dst = appendUvarint(dst, c.Value)
		}
	case OpFlush, OpSubscribeWAL, OpWatch, OpSplit, OpMerge:
		dst = appendUvarint(dst, r.N)
	case OpIncr, OpDecr:
		dst = binary.AppendVarint(dst, r.Int)
	case OpPing, OpSetEx:
		// empty body
	default:
		return nil, ErrBadOp
	}
	return dst, nil
}

// AppendResponseFrame appends the complete response frame — 4-byte
// length prefix plus status | body — answering opcode op to dst. On
// error dst is returned unchanged.
func AppendResponseFrame(dst []byte, op Op, r *Response) ([]byte, error) {
	out, err := appendResponseBody(append(dst, 0, 0, 0, 0, byte(r.Status)), op, r)
	if err != nil {
		return dst, err
	}
	putFrameLen(out, len(dst))
	return out, nil
}

// decodeResponseBody decodes the body of a response to op into r, whose
// Status is already set. lent is storage the caller offers for r.Batch;
// only the MGET and TXN arms take it.
func decodeResponseBody(rd *reader, op Op, r *Response, subOps []Op, lent []Response) error {
	if r.Status == StatusErr {
		msg, err := rd.bytes()
		if err != nil {
			return err
		}
		r.Msg = string(msg)
		return nil
	}
	var err error
	switch op {
	case OpGet:
		if r.Status == StatusOK {
			r.Val, err = rd.bytes()
		}
	case OpCAS:
		if r.Status == StatusCASMismatch {
			r.Val, err = rd.bytes()
		}
	case OpSet, OpDel:
		// empty body
	case OpScan:
		n, err := rd.count()
		if err != nil {
			return err
		}
		r.Pairs = make([]KV, 0, prealloc(n))
		for i := 0; i < n; i++ {
			var kv KV
			if kv.Key, err = rd.bytes(); err != nil {
				return err
			}
			if kv.Val, err = rd.bytes(); err != nil {
				return err
			}
			r.Pairs = append(r.Pairs, kv)
		}
	case OpMGet, OpTxn:
		n, err := rd.count()
		if err != nil {
			return err
		}
		if op == OpTxn && n != len(subOps) {
			return fmt.Errorf("wire: TXN response has %d sub-responses, expected %d", n, len(subOps))
		}
		r.Batch = batchRoom(lent, n)
		for i := 0; i < n; i++ {
			st, err := rd.byte1()
			if err != nil {
				return err
			}
			sub := OpGet
			if op == OpTxn {
				sub = subOps[i]
			}
			// Decode in place: a local sub-response would escape through
			// the recursive call and cost an allocation per key.
			r.Batch = append(r.Batch, Response{Status: Status(st)})
			if err := decodeResponseBody(rd, sub, &r.Batch[i], nil, nil); err != nil {
				return err
			}
		}
	case OpStats:
		n, err := rd.count()
		if err != nil {
			return err
		}
		r.Counters = make([]Counter, 0, prealloc(n))
		for i := 0; i < n; i++ {
			name, err := rd.bytes()
			if err != nil {
				return err
			}
			v, err := rd.uvarint()
			if err != nil {
				return err
			}
			r.Counters = append(r.Counters, Counter{Name: string(name), Value: v})
		}
	case OpFlush, OpSubscribeWAL, OpWatch, OpSplit, OpMerge:
		r.N, err = rd.uvarint()
	case OpIncr, OpDecr:
		r.Int, err = rd.varint()
	case OpPing, OpSetEx:
		// empty body
	default:
		return ErrBadOp
	}
	return err
}

// DecodeResponse is DecodeResponseInto into a fresh Response, kept for
// its one remaining caller, the benchmark module's bench/trace.go.
func DecodeResponse(payload []byte, op Op, subOps []Op) (*Response, error) {
	r := new(Response)
	if err := DecodeResponseInto(r, payload, op, subOps); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeResponseInto parses one response payload answering opcode op
// into r. For OpTxn, subOps must list the batch's sub-opcodes in order
// (the client knows them from the request it sent); it is only read,
// not retained. A caller that already has somewhere to put the Response
// (the client carves a batch's responses out of one allocation) pays
// for none. The capacity r.Batch arrives with is storage the caller
// lends: an MGET or TXN reply whose sub-responses fit decodes them there
// (the capacity is cleared first), any other reply leaves it untouched
// and decodes to Batch == nil. Everything else r held is discarded, and
// every other decoded slice either aliases payload or is freshly
// allocated, so a Response handed out earlier is written through only if
// the caller passes its Batch back in. On error r holds partially
// decoded state.
func DecodeResponseInto(r *Response, payload []byte, op Op, subOps []Op) error {
	lent := r.Batch[:0]
	*r = Response{}
	rd := reader{buf: payload}
	st, err := rd.byte1()
	if err != nil {
		return err
	}
	r.Status = Status(st)
	if err := decodeResponseBody(&rd, op, r, subOps, lent); err != nil {
		return err
	}
	return rd.done()
}
