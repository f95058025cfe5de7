package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestSessFrameRoundTrip(t *testing.T) {
	frames := []SessFrame{
		{Kind: SessEvent, WatchID: 1, Seq: 99, Op: EventSet, Key: []byte("k")},
		{Kind: SessEvent, WatchID: 7, Seq: 100, Op: EventDel, Key: []byte("gone")},
		{Kind: SessEvent, WatchID: 7, Seq: 101, Op: EventExpire, Key: []byte("ttl")},
		{Kind: SessEvent, WatchID: 7, Seq: 102, Op: EventFlush, Key: []byte{}},
		{Kind: SessEventLost, Dropped: 1234},
		{Kind: SessPing},
		{Kind: SessPong},
		{Kind: SessWatch, Key: []byte("exact")},
		{Kind: SessWatch, Key: []byte("pre:"), Prefix: true},
		{Kind: SessWatchOK, WatchID: 8},
		{Kind: SessUnwatch, WatchID: 8},
		{Kind: SessErr, Code: ProtoBadSession, Detail: []byte("nope")},
	}
	var got SessFrame // one reused frame, like the session loops
	for i := range frames {
		f := &frames[i]
		enc, err := AppendSessFrame(nil, f)
		if err != nil {
			t.Fatalf("%v: encode: %v", f.Kind, err)
		}
		if err := DecodeSessFrame(&got, enc[4:]); err != nil {
			t.Fatalf("%v: decode: %v", f.Kind, err)
		}
		if got.Kind != f.Kind || got.WatchID != f.WatchID || got.Seq != f.Seq ||
			got.Op != f.Op || got.Prefix != f.Prefix || got.Dropped != f.Dropped ||
			got.Code != f.Code ||
			!bytes.Equal(got.Key, f.Key) || !bytes.Equal(got.Detail, f.Detail) {
			t.Fatalf("%v: round trip mismatch:\nsent %+v\ngot  %+v", f.Kind, f, got)
		}
	}
}

func TestSessFrameRejectsGarbage(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", []byte{}},
		{"unknown kind", []byte{0xEE}},
		{"event truncated", []byte{byte(SessEvent), 1, 1}},
		{"event bad op", []byte{byte(SessEvent), 1, 1, 99, 1, 'k'}},
		{"watch bad mode", []byte{byte(SessWatch), 7, 1, 'k'}},
		{"ping trailing", []byte{byte(SessPing), 0}},
		{"err truncated", []byte{byte(SessErr), byte(ProtoMalformed)}},
	}
	var f SessFrame
	for _, c := range cases {
		if err := DecodeSessFrame(&f, c.payload); err == nil {
			t.Errorf("%s: decoder accepted %x", c.name, c.payload)
		}
	}
}

func TestProtocolErrorWireFormat(t *testing.T) {
	for _, e := range []*ProtocolError{
		{Code: ProtoUnknownOp},
		{Code: ProtoMalformed, Detail: "5 trailing bytes in payload"},
		{Code: ProtoOversize, Detail: "frame exceeds size limit"},
		{Code: ProtoBadSession, Detail: "WATCH on a session connection"},
	} {
		if !errors.Is(e, ErrProtocol) {
			t.Fatalf("%v does not match ErrProtocol", e)
		}
		got, ok := ParseProtocolError(e.Error())
		if !ok {
			t.Fatalf("ParseProtocolError rejected %q", e.Error())
		}
		if got.Code != e.Code || got.Detail != e.Detail {
			t.Fatalf("parse mismatch: sent %+v got %+v", e, got)
		}
	}
	for _, msg := range []string{
		"", "boom", "wire: not primary",
		"wire: protocol error",                // no code
		"wire: protocol error; code=espresso", // unknown code
	} {
		if pe, ok := ParseProtocolError(msg); ok {
			t.Fatalf("ParseProtocolError accepted %q as %+v", msg, pe)
		}
	}
	// A StatusErr response carrying the format folds back into the typed
	// error on the client side.
	r := &Response{Status: StatusErr, Msg: (&ProtocolError{Code: ProtoUnknownOp, Detail: "Op(200)"}).Error()}
	err := r.Err()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("Response.Err() = %v, want ErrProtocol match", err)
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Code != ProtoUnknownOp {
		t.Fatalf("Response.Err() = %#v, want *ProtocolError{ProtoUnknownOp}", err)
	}
}

func TestSessionOpcodeCodec(t *testing.T) {
	reqs := []Request{
		{Op: OpWatch, Sem: SemDefault, Key: []byte("k")},
		{Op: OpWatch, Sem: SemDefault, Key: []byte("user:"), Prefix: true},
		{Op: OpIncr, Sem: SemDefault, Key: []byte("ctr"), Delta: 3},
		{Op: OpDecr, Sem: SemDefault, Key: []byte("ctr"), Delta: 10},
		{Op: OpSetEx, Sem: SemDefault, Key: []byte("k"), Val: []byte("v"), TTLMillis: 250},
	}
	var got Request
	for i := range reqs {
		r := &reqs[i]
		frame, err := AppendRequestFrame(nil, r)
		if err != nil {
			t.Fatalf("%v: encode: %v", r.Op, err)
		}
		if err := DecodeRequestInto(&got, frame[4:]); err != nil {
			t.Fatalf("%v: decode: %v", r.Op, err)
		}
		if got.Op != r.Op || !bytes.Equal(got.Key, r.Key) || !bytes.Equal(got.Val, r.Val) ||
			got.Delta != r.Delta || got.TTLMillis != r.TTLMillis || got.Prefix != r.Prefix {
			t.Fatalf("%v: round trip mismatch:\nsent %+v\ngot  %+v", r.Op, r, got)
		}
	}
	// Field hygiene: a SETEX decoded into a reused Request must not leak
	// into a following WATCH decode, and vice versa.
	frame, _ := AppendRequestFrame(nil, &reqs[0]) // exact-key WATCH
	if err := DecodeRequestInto(&got, frame[4:]); err != nil {
		t.Fatal(err)
	}
	if got.Delta != 0 || got.TTLMillis != 0 || got.Prefix {
		t.Fatalf("stale session fields after reuse: %+v", got)
	}

	if _, err := AppendRequestFrame(nil, &Request{Op: OpSetEx, Sem: SemDefault, Key: []byte("k"), Val: []byte("v"), TTLMillis: 1}); err != nil {
		t.Fatal(err)
	}
	if err := DecodeRequestInto(&got, []byte{byte(OpSetEx), SemDefault, 1, 'k', 1, 'v', 0}); !errors.Is(err, ErrZeroTTL) {
		t.Fatalf("zero TTL decode: err=%v, want ErrZeroTTL", err)
	}
	if err := DecodeRequestInto(&got, []byte{byte(OpWatch), SemDefault, 9, 1, 'k'}); !errors.Is(err, ErrBadWatchMode) {
		t.Fatalf("bad WATCH mode decode: err=%v, want ErrBadWatchMode", err)
	}

	// Responses.
	for _, c := range []struct {
		op   Op
		resp Response
	}{
		{OpWatch, Response{Status: StatusOK, N: 5}},
		{OpIncr, Response{Status: StatusOK, Int: 41}},
		{OpDecr, Response{Status: StatusOK, Int: -41}},
		{OpSetEx, Response{Status: StatusOK}},
	} {
		frame, err := AppendResponseFrame(nil, c.op, &c.resp)
		if err != nil {
			t.Fatalf("%v: encode: %v", c.op, err)
		}
		dec := new(Response)
		if err := DecodeResponseInto(dec, frame[4:], c.op, nil); err != nil {
			t.Fatalf("%v: decode: %v", c.op, err)
		}
		if dec.Status != c.resp.Status || dec.N != c.resp.N || dec.Int != c.resp.Int {
			t.Fatalf("%v: round trip mismatch: sent %+v got %+v", c.op, c.resp, dec)
		}
	}
}
