package wire

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func roundTripReplFrame(t *testing.T, f *ReplFrame) *ReplFrame {
	t.Helper()
	frame, err := AppendReplFrame(nil, f)
	if err != nil {
		t.Fatalf("AppendReplFrame(%v): %v", f.Kind, err)
	}
	payload, err := ReadFrameBuf(bufio.NewReader(bytes.NewReader(frame)), nil, 0)
	if err != nil {
		t.Fatalf("ReadFrameBuf: %v", err)
	}
	dec := new(ReplFrame)
	if err := DecodeReplFrame(dec, payload); err != nil {
		t.Fatalf("DecodeReplFrame(%v): %v", f.Kind, err)
	}
	return dec
}

func TestReplFrameRoundTrip(t *testing.T) {
	frames := []*ReplFrame{
		{Kind: ReplWALBatch, Shard: 3, Recs: []ReplRec{
			{Seq: 1, Payload: []byte("rec-one")},
			{Seq: 2, Payload: []byte("")},
			{Seq: 9000, Payload: []byte("rec-three")},
		}},
		{Kind: ReplWALBatch, Shard: 0},
		{Kind: ReplWALBatch, Shard: 1, Recs: []ReplRec{{Seq: 0, Payload: []byte("catch-up")}}},
		{Kind: ReplAck, Acks: []ReplAckEntry{
			{Shard: 0, Seq: 17, Bytes: 4096},
			{Shard: 1, Seq: 0, Bytes: 0},
		}},
		{Kind: ReplAck},
		{Kind: ReplSnapDone, Shard: 5, CoverSeq: 123456},
		{Kind: ReplSnapDone, Shard: 1, CoverSeq: 77, Mode: ReplCatchupDelta, Incarnation: 1723400000000000000},
		{Kind: ReplPing},
		{Kind: ReplHello, Incarnation: 42, Acks: []ReplAckEntry{
			{Shard: 0, Seq: 9},
			{Shard: 3, Seq: 0},
		}},
		{Kind: ReplHello},
	}
	for _, f := range frames {
		dec := roundTripReplFrame(t, f)
		norm := func(f *ReplFrame) ReplFrame {
			c := *f
			if len(c.Recs) == 0 {
				c.Recs = nil
			}
			if len(c.Acks) == 0 {
				c.Acks = nil
			}
			return c
		}
		if got, want := norm(dec), norm(f); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: round trip mismatch:\n got  %+v\n want %+v", f.Kind, got, want)
		}
	}
}

func TestReplFrameDecodeReuse(t *testing.T) {
	// One decode target across frames of different kinds must not leak
	// state from the previous frame.
	var f ReplFrame
	big, err := AppendReplFrame(nil, &ReplFrame{Kind: ReplWALBatch, Shard: 7, Recs: []ReplRec{{Seq: 4, Payload: []byte("p")}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeReplFrame(&f, big[4:]); err != nil {
		t.Fatal(err)
	}
	ping, err := AppendReplFrame(nil, &ReplFrame{Kind: ReplPing})
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeReplFrame(&f, ping[4:]); err != nil {
		t.Fatal(err)
	}
	if f.Kind != ReplPing || f.Shard != 0 || len(f.Recs) != 0 {
		t.Fatalf("stale state after reuse: %+v", f)
	}
}

func TestReplFrameHostileInput(t *testing.T) {
	cases := [][]byte{
		{},                            // no kind byte
		{99},                          // unknown kind
		{byte(ReplWALBatch)},          // missing shard
		{byte(ReplWALBatch), 0},       // missing count
		{byte(ReplWALBatch), 0, 2},    // count > remaining bytes
		{byte(ReplSnapDone), 1},       // missing coverSeq
		{byte(ReplSnapDone), 1, 7},    // missing mode byte
		{byte(ReplSnapDone), 1, 7, 9}, // unknown catch-up mode
		{byte(ReplSnapDone), 1, 7, 1}, // missing incarnation
		{byte(ReplPing), 0},           // trailing byte
		{byte(ReplAck), 0xFF, 0xFF},   // unterminated uvarint count
		{byte(ReplHello)},             // missing incarnation
		{byte(ReplHello), 5},          // missing count
		{byte(ReplHello), 5, 2, 0, 1}, // count > remaining entries
		// Kinds 3 (SNAP-BATCH) and 7 (DELTA-BATCH) are retired: a frame
		// that was well formed in their old layouts is rejected.
		{3, 2, 1, 1, 'a', 1, '1'},           // SNAP-BATCH: shard 2, one pair
		{7, 2, 1, 0, 2, 'k', '1', 0},        // DELTA-BATCH: shard 2, one set
		{7, 0, 1, 1, 4, 'g', 'o', 'n', 'e'}, // DELTA-BATCH: one tombstone
	}
	var f ReplFrame
	for _, payload := range cases {
		if err := DecodeReplFrame(&f, payload); err == nil {
			t.Errorf("DecodeReplFrame(%v): expected error", payload)
		}
	}
}

func TestNewOpcodesRoundTrip(t *testing.T) {
	for _, op := range []Op{OpPing, OpSubscribeWAL} {
		dec := roundTripRequest(t, &Request{Op: op, Sem: SemDefault})
		if dec.Op != op {
			t.Fatalf("op %v decoded as %v", op, dec.Op)
		}
		if op.Mutates() {
			t.Fatalf("%v must not count as mutating", op)
		}
	}
	// SUBSCRIBE-WAL's OK response carries the store-shard count.
	frame, err := AppendResponseFrame(nil, OpSubscribeWAL, &Response{Status: StatusOK, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := DecodeResponseInto(&resp, frame[4:], OpSubscribeWAL, nil); err != nil {
		t.Fatal(err)
	}
	if resp.N != 8 {
		t.Fatalf("shard count = %d, want 8", resp.N)
	}
	// PING's OK response is empty.
	frame, err = AppendResponseFrame(nil, OpPing, &Response{Status: StatusOK})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != 5 {
		t.Fatalf("PING response frame = %v, want a bare status", frame)
	}
	if err := DecodeResponseInto(&resp, frame[4:], OpPing, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNotPrimaryError(t *testing.T) {
	e := &NotPrimaryError{Primary: "10.0.0.7:7700"}
	if !errors.Is(e, ErrNotPrimary) {
		t.Fatal("NotPrimaryError must match ErrNotPrimary")
	}
	got, ok := ParseNotPrimary(e.Error())
	if !ok || got.Primary != e.Primary {
		t.Fatalf("ParseNotPrimary(%q) = %+v, %v", e.Error(), got, ok)
	}
	// Unknown-primary form round trips too.
	bare := &NotPrimaryError{}
	got, ok = ParseNotPrimary(bare.Error())
	if !ok || got.Primary != "" {
		t.Fatalf("ParseNotPrimary(%q) = %+v, %v", bare.Error(), got, ok)
	}
	for _, msg := range []string{"", "wire: server error", "wire: not primary; primary="} {
		if _, ok := ParseNotPrimary(msg); ok {
			t.Errorf("ParseNotPrimary(%q) unexpectedly ok", msg)
		}
	}
}
