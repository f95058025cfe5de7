// Session streaming frames and typed protocol errors.
//
// After a WATCH request is answered OK the connection leaves the
// request/response protocol the same way a SUBSCRIBE-WAL feed does:
// both ends push frames with the 4-byte length framing, each payload
//
//	kind(1) | body
//
// with the per-kind layouts documented on the SessKind constants. The
// server pushes EVENT frames for commits matching the session's
// watches and a PING frame every Idle; the client may
// register further watches, drop them, and must answer PING with PONG
// so the server can cut dead sessions instead of buffering for them.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"polytm/internal/codec"
)

// SessKind is the first payload byte of a session push frame.
type SessKind byte

const (
	// SessEvent delivers one committed mutation matching a watch
	// (server → client). Body: uvarint watch-id | uvarint seq | op(1) |
	// key. seq is a server-global event sequence number, strictly
	// increasing per key and per watch (delivery order is commit order);
	// op is an EventOp. EventFlush frames carry an empty key: the whole
	// keyspace was cleared, including every key the watch matched.
	SessEvent SessKind = 1
	// SessEventLost reports that the session's buffer overflowed and the
	// server is cutting the session rather than blocking commits (server
	// → client, terminal: the connection closes after it). Body: uvarint
	// dropped — events discarded beyond the buffer. The client must
	// reconnect and re-register; it cannot assume it saw every event.
	SessEventLost SessKind = 2
	// SessPing is the link heartbeat (server → client, sent every Idle
	// however busy the push half is — PONG is all a quiet watcher ever
	// sends). Body: empty. The client answers with SessPong within the
	// reply budget or the server cuts the session.
	SessPing SessKind = 3
	// SessPong answers SessPing (client → server). Body: empty.
	SessPong SessKind = 4
	// SessWatch registers one more watch on the live session (client →
	// server). Body: mode(1) | key-or-prefix, mode as in the OpWatch
	// request (0 exact, 1 prefix). The server answers with SessWatchOK.
	SessWatch SessKind = 5
	// SessWatchOK acknowledges a SessWatch (server → client). Body:
	// uvarint watch-id. Acks arrive in registration order; events for
	// the new watch begin with commits that observe the registration.
	SessWatchOK SessKind = 6
	// SessUnwatch drops a watch by id (client → server). Body: uvarint
	// watch-id. Not acknowledged; events already buffered for the watch
	// may still arrive.
	SessUnwatch SessKind = 7
	// SessErr reports a session-protocol violation (server → client,
	// terminal: the connection closes after it). Body: code(1) | detail,
	// code being a ProtoCode and detail a human-readable byte string.
	SessErr SessKind = 8
)

// String names the frame kind.
func (k SessKind) String() string {
	switch k {
	case SessEvent:
		return "EVENT"
	case SessEventLost:
		return "EVENT-LOST"
	case SessPing:
		return "PING"
	case SessPong:
		return "PONG"
	case SessWatch:
		return "WATCH"
	case SessWatchOK:
		return "WATCH-OK"
	case SessUnwatch:
		return "UNWATCH"
	case SessErr:
		return "ERR"
	default:
		return "SessKind(?)"
	}
}

// ErrBadSessFrame reports an unknown or malformed session frame kind.
var ErrBadSessFrame = errors.New("wire: unknown session frame kind")

// EventOp says what happened to the key a SessEvent names.
type EventOp byte

const (
	// EventSet: the key was written (SET, CAS, SETEX, INCR/DECR, TXN
	// sub-write).
	EventSet EventOp = 0
	// EventDel: the key was deleted (DEL or a TXN sub-delete).
	EventDel EventOp = 1
	// EventExpire: the key's TTL lapsed and the reaper deleted it. On a
	// follower an expiry arrives as EventDel — the follower applies the
	// primary's WAL delete and cannot tell why the primary issued it.
	EventExpire EventOp = 2
	// EventFlush: the whole store was cleared by FLUSH, one event per
	// watch regardless of shard count; the event's key is empty, and
	// every TTL was cleared with the keys.
	EventFlush EventOp = 3
)

// String names the event op.
func (o EventOp) String() string {
	switch o {
	case EventSet:
		return "SET"
	case EventDel:
		return "DEL"
	case EventExpire:
		return "EXPIRE"
	case EventFlush:
		return "FLUSH"
	default:
		return "EventOp(?)"
	}
}

// SessFrame is the decoded form of one session push frame. Fields are
// kind-dependent; unused fields are zero.
type SessFrame struct {
	Kind SessKind

	WatchID uint64  // EVENT, WATCH-OK, UNWATCH
	Seq     uint64  // EVENT
	Op      EventOp // EVENT
	Key     []byte  // EVENT, WATCH
	Prefix  bool    // WATCH: Key is a prefix

	Dropped uint64 // EVENT-LOST

	Code   ProtoCode // ERR
	Detail []byte    // ERR
}

// AppendSessFrame appends f's complete frame — 4-byte length prefix
// plus kind | body — to dst. On error dst is returned unchanged.
func AppendSessFrame(dst []byte, f *SessFrame) ([]byte, error) {
	out := append(dst, 0, 0, 0, 0, byte(f.Kind))
	var err error
	switch f.Kind {
	case SessEvent:
		out = binary.AppendUvarint(out, f.WatchID)
		out = binary.AppendUvarint(out, f.Seq)
		out = append(out, byte(f.Op))
		out = codec.AppendBytes(out, f.Key)
	case SessEventLost:
		out = binary.AppendUvarint(out, f.Dropped)
	case SessPing, SessPong:
		// empty body
	case SessWatch:
		out = appendWatchMode(out, f.Prefix)
		out = codec.AppendBytes(out, f.Key)
	case SessWatchOK, SessUnwatch:
		out = binary.AppendUvarint(out, f.WatchID)
	case SessErr:
		out = append(out, byte(f.Code))
		out = codec.AppendBytes(out, f.Detail)
	default:
		err = ErrBadSessFrame
	}
	return closeFrame(dst, out, err)
}

// DecodeSessFrame parses one session push payload into f, reusing f
// across calls (the session loops keep one SessFrame per connection).
// The decoded byte fields alias payload. On error f holds partially
// decoded state and must not be acted on.
func DecodeSessFrame(f *SessFrame, payload []byte) error {
	f.WatchID, f.Seq, f.Dropped = 0, 0, 0
	f.Op, f.Code = 0, 0
	f.Key, f.Detail = nil, nil
	f.Prefix = false
	c := codec.New(payload, ErrTruncated)
	f.Kind = SessKind(c.U8())
	switch f.Kind {
	case SessEvent:
		f.WatchID = c.Uvarint()
		f.Seq = c.Uvarint()
		if f.Op = EventOp(c.U8()); f.Op > EventFlush {
			c.Fail(ErrBadSessFrame)
		}
		f.Key = c.Bytes()
	case SessEventLost:
		f.Dropped = c.Uvarint()
	case SessPing, SessPong:
		// empty body
	case SessWatch:
		f.Prefix = watchMode(c)
		f.Key = c.Bytes()
	case SessWatchOK, SessUnwatch:
		f.WatchID = c.Uvarint()
	case SessErr:
		f.Code = ProtoCode(c.U8())
		f.Detail = c.Bytes()
	default:
		c.Fail(ErrBadSessFrame)
	}
	return c.End()
}

// ---- typed protocol errors ----

// ProtoCode classifies a protocol violation the way HSMS S9 messages
// do: the peer is told WHAT rule it broke in a machine-readable reply
// instead of having its connection silently dropped.
type ProtoCode byte

const (
	// ProtoUnknownOp: the request opcode is not defined.
	ProtoUnknownOp ProtoCode = 1
	// ProtoMalformed: the frame decoded to garbage (truncated body,
	// trailing bytes, invalid mode byte, ...).
	ProtoMalformed ProtoCode = 2
	// ProtoOversize: the announced frame length exceeds the limit.
	ProtoOversize ProtoCode = 3
	// ProtoBadSession: a session frame arrived in a state that cannot
	// accept it (e.g. a request opcode on a converted session
	// connection, or a session kind the client may not send).
	ProtoBadSession ProtoCode = 4
)

// String names the code in the fixed wire spelling ParseProtocolError
// recognises.
func (c ProtoCode) String() string {
	switch c {
	case ProtoUnknownOp:
		return "unknown-op"
	case ProtoMalformed:
		return "malformed"
	case ProtoOversize:
		return "oversize"
	case ProtoBadSession:
		return "bad-session"
	default:
		return fmt.Sprintf("ProtoCode(%d)", byte(c))
	}
}

func protoCodeFromString(s string) (ProtoCode, bool) {
	switch s {
	case "unknown-op":
		return ProtoUnknownOp, true
	case "malformed":
		return ProtoMalformed, true
	case "oversize":
		return ProtoOversize, true
	case "bad-session":
		return ProtoBadSession, true
	default:
		return 0, false
	}
}

// ErrProtocol is matched (via errors.Is) by the typed *ProtocolError a
// server raises for a protocol violation.
var ErrProtocol = errors.New("wire: protocol error")

const protocolMsg = "wire: protocol error"

// ProtocolError is the S9-style typed reply to a protocol violation: a
// classified code plus a human-readable detail, sent as a clean
// StatusErr (or a SessErr frame on a converted session) so the peer
// learns what it did wrong and the connection survives where it safely
// can. It crosses the wire as a StatusErr message in a fixed format
// that ParseProtocolError recovers on the client side.
type ProtocolError struct {
	Code   ProtoCode
	Detail string
}

// Error implements error in the wire format ParseProtocolError parses.
func (e *ProtocolError) Error() string {
	s := protocolMsg + "; code=" + e.Code.String()
	if e.Detail != "" {
		s += "; detail=" + e.Detail
	}
	return s
}

// Is makes errors.Is(err, ErrProtocol) report true.
func (e *ProtocolError) Is(target error) bool { return target == ErrProtocol }

// ParseProtocolError recovers a ProtocolError from a StatusErr message,
// reporting ok=false for any other message.
func ParseProtocolError(msg string) (*ProtocolError, bool) {
	rest, found := strings.CutPrefix(msg, protocolMsg+"; code=")
	if !found {
		return nil, false
	}
	name, detail, _ := strings.Cut(rest, "; detail=")
	code, ok := protoCodeFromString(name)
	if !ok {
		return nil, false
	}
	return &ProtocolError{Code: code, Detail: detail}, true
}
