package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"polytm/internal/stm"
)

// roundTripRequest sends r the way a client does and reads it back the
// way the server does: AppendRequestFrame, ReadFrameBuf, DecodeRequestInto.
func roundTripRequest(t *testing.T, r *Request) *Request {
	t.Helper()
	frame, err := AppendRequestFrame(nil, r)
	if err != nil {
		t.Fatalf("AppendRequestFrame(%v): %v", r.Op, err)
	}
	payload, err := ReadFrameBuf(bufio.NewReader(bytes.NewReader(frame)), nil, 0)
	if err != nil {
		t.Fatalf("ReadFrameBuf: %v", err)
	}
	dec := new(Request)
	if err := DecodeRequestInto(dec, payload); err != nil {
		t.Fatalf("DecodeRequestInto(%v): %v", r.Op, err)
	}
	return dec
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpGet, Sem: SemDefault, Key: []byte("k")},
		{Op: OpGet, Sem: byte(stm.SemanticsDef), Key: []byte("k")},
		{Op: OpSet, Sem: SemDefault, Key: []byte("key"), Val: []byte("value")},
		{Op: OpSet, Sem: SemDefault, Key: []byte(""), Val: []byte("")},
		{Op: OpCAS, Sem: byte(stm.SemanticsIrrevocable), Key: []byte("k"), Old: []byte("a"), Val: []byte("b")},
		{Op: OpDel, Sem: SemDefault, Key: []byte("gone")},
		{Op: OpScan, Sem: byte(stm.SemanticsWeak), From: []byte("a"), To: []byte("z"), Limit: 42},
		{Op: OpScan, Sem: SemDefault, From: []byte(""), To: []byte(""), Limit: 0},
		{Op: OpMGet, Sem: byte(stm.SemanticsSnapshot), Keys: [][]byte{[]byte("a"), []byte("b"), []byte("c")}},
		{Op: OpTxn, Sem: SemDefault, Batch: []Request{
			{Op: OpGet, Sem: SemDefault, Key: []byte("x")},
			{Op: OpSet, Sem: SemDefault, Key: []byte("y"), Val: []byte("1")},
			{Op: OpCAS, Sem: SemDefault, Key: []byte("z"), Old: []byte("0"), Val: []byte("1")},
			{Op: OpDel, Sem: SemDefault, Key: []byte("w")},
		}},
		{Op: OpStats, Sem: SemDefault},
		{Op: OpFlush, Sem: SemDefault},
	}
	for _, r := range reqs {
		dec := roundTripRequest(t, r)
		norm := func(r *Request) *Request {
			c := *r
			if len(c.Key) == 0 {
				c.Key = nil
			}
			if len(c.Val) == 0 {
				c.Val = nil
			}
			if len(c.Old) == 0 {
				c.Old = nil
			}
			if len(c.From) == 0 {
				c.From = nil
			}
			if len(c.To) == 0 {
				c.To = nil
			}
			return &c
		}
		want := norm(r)
		got := norm(dec)
		if len(want.Batch) == 0 {
			want.Batch, got.Batch = nil, nil
		} else {
			for i := range want.Batch {
				want.Batch[i] = *norm(&want.Batch[i])
				got.Batch[i] = *norm(&got.Batch[i])
			}
		}
		if len(want.Keys) == 0 {
			want.Keys, got.Keys = nil, nil
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%v round trip:\n got %+v\nwant %+v", r.Op, got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		op     Op
		subOps []Op
		resp   *Response
	}{
		{OpGet, nil, &Response{Status: StatusOK, Val: []byte("v")}},
		{OpGet, nil, &Response{Status: StatusNotFound}},
		{OpSet, nil, &Response{Status: StatusOK}},
		{OpCAS, nil, &Response{Status: StatusOK}},
		{OpCAS, nil, &Response{Status: StatusCASMismatch, Val: []byte("current")}},
		{OpCAS, nil, &Response{Status: StatusNotFound}},
		{OpDel, nil, &Response{Status: StatusNotFound}},
		{OpScan, nil, &Response{Status: StatusOK, Pairs: []KV{
			{Key: []byte("a"), Val: []byte("1")},
			{Key: []byte("b"), Val: []byte("2")},
		}}},
		{OpScan, nil, &Response{Status: StatusOK}},
		{OpMGet, nil, &Response{Status: StatusOK, Batch: []Response{
			{Status: StatusOK, Val: []byte("x")},
			{Status: StatusNotFound},
		}}},
		{OpTxn, []Op{OpGet, OpSet}, &Response{Status: StatusOK, Batch: []Response{
			{Status: StatusOK, Val: []byte("got"), SubOp: OpGet},
			{Status: StatusOK, SubOp: OpSet},
		}}},
		{OpStats, nil, &Response{Status: StatusOK, Counters: []Counter{
			{Name: "commits", Value: 17},
			{Name: "aborts.def", Value: 3},
		}}},
		{OpFlush, nil, &Response{Status: StatusOK, N: 123}},
		{OpGet, nil, &Response{Status: StatusErr, Msg: "boom"}},
		{OpTxn, []Op{OpGet}, &Response{Status: StatusErr, Msg: "snapshot write"}},
	}
	// The server's frames back to back, read and decoded the way the
	// client reads a pipelined batch.
	var stream []byte
	for _, c := range cases {
		var err error
		if stream, err = AppendResponseFrame(stream, c.op, c.resp); err != nil {
			t.Fatalf("AppendResponseFrame(%v): %v", c.op, err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var free []byte
	for i, c := range cases {
		payload, err := ReadFrameBump(br, &free, len(cases)-i, 4<<10)
		if err != nil {
			t.Fatalf("ReadFrameBump(%v): %v", c.op, err)
		}
		dec := new(Response)
		if err := DecodeResponseInto(dec, payload, c.op, c.subOps); err != nil {
			t.Fatalf("DecodeResponseInto(%v): %v", c.op, err)
		}
		// SubOp is encode-side only.
		want := *c.resp
		want.SubOp = 0
		for i := range want.Batch {
			want.Batch[i].SubOp = 0
		}
		if len(want.Val) == 0 {
			want.Val = nil
		}
		if dec.Status != want.Status || !bytes.Equal(dec.Val, want.Val) || dec.Msg != want.Msg || dec.N != want.N {
			t.Errorf("%v round trip: got %+v want %+v", c.op, dec, want)
		}
		if !reflect.DeepEqual(dec.Counters, want.Counters) && (len(dec.Counters) != 0 || len(want.Counters) != 0) {
			t.Errorf("%v counters: got %+v want %+v", c.op, dec.Counters, want.Counters)
		}
		if len(dec.Pairs) != len(want.Pairs) {
			t.Errorf("%v pairs: got %d want %d", c.op, len(dec.Pairs), len(want.Pairs))
		} else {
			for i := range want.Pairs {
				if !bytes.Equal(dec.Pairs[i].Key, want.Pairs[i].Key) || !bytes.Equal(dec.Pairs[i].Val, want.Pairs[i].Val) {
					t.Errorf("%v pair %d: got %+v want %+v", c.op, i, dec.Pairs[i], want.Pairs[i])
				}
			}
		}
		if len(dec.Batch) != len(want.Batch) {
			t.Errorf("%v batch: got %d want %d", c.op, len(dec.Batch), len(want.Batch))
		} else {
			for i := range want.Batch {
				if dec.Batch[i].Status != want.Batch[i].Status || !bytes.Equal(dec.Batch[i].Val, want.Batch[i].Val) {
					t.Errorf("%v batch %d: got %+v want %+v", c.op, i, dec.Batch[i], want.Batch[i])
				}
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		wantErr error
	}{
		{"empty", nil, ErrTruncated},
		{"op only", []byte{byte(OpGet)}, ErrTruncated},
		{"bad op", []byte{99, SemDefault}, ErrBadOp},
		{"retired op", []byte{10, SemDefault}, ErrBadOp}, // REBUILD, never reused
		{"bad sem", []byte{byte(OpGet), 7}, ErrBadSemantics},
		{"truncated key", []byte{byte(OpGet), SemDefault, 5, 'a'}, ErrTruncated},
		{"txn bad subop", []byte{byte(OpTxn), SemDefault, 1, byte(OpFlush)}, ErrBadSubOp},
		{"mget absurd count", append([]byte{byte(OpMGet), SemDefault}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), ErrTruncated},
	}
	for _, c := range cases {
		if err := DecodeRequestInto(new(Request), c.payload); !errors.Is(err, c.wantErr) {
			t.Errorf("%s: DecodeRequestInto error = %v, want %v", c.name, err, c.wantErr)
		}
	}
	// Trailing bytes are an error too.
	frame, err := AppendRequestFrame(nil, &Request{Op: OpGet, Sem: SemDefault, Key: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeRequestInto(new(Request), append(frame[4:], 0)); err == nil {
		t.Error("DecodeRequestInto accepted trailing bytes")
	}
}

// TestAppendFrameErrors pins the frame encoders' contract: a frame's
// length prefix counts the bytes after it, and an encode that fails —
// however far into the body it got — hands dst back as it came, so the
// frames already in a pipelined batch's buffer survive byte for byte.
func TestAppendFrameErrors(t *testing.T) {
	first, err := AppendRequestFrame(nil, &Request{Op: OpSet, Sem: SemDefault, Key: []byte("k"), Val: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	both, err := AppendResponseFrame(append([]byte(nil), first...), OpGet, &Response{Status: StatusOK, Val: []byte("val")})
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{first, both[len(first):]} {
		if n := binary.BigEndian.Uint32(frame); int(n) != len(frame)-4 {
			t.Errorf("length prefix %d on a %d-byte frame, want %d", n, len(frame), len(frame)-4)
		}
	}

	txn := []Request{{Op: OpSet, Key: []byte("a"), Val: []byte("1")}, {Op: OpFlush}}
	for _, c := range []struct {
		name string
		enc  func(dst []byte) ([]byte, error)
		want error
	}{
		{"TXN with a FLUSH sub-op", func(dst []byte) ([]byte, error) {
			return AppendRequestFrame(dst, &Request{Op: OpTxn, Sem: SemDefault, Batch: txn})
		}, ErrBadSubOp},
		{"invalid opcode", func(dst []byte) ([]byte, error) {
			return AppendRequestFrame(dst, &Request{Op: 99, Sem: SemDefault, Key: []byte("k")})
		}, ErrBadOp},
		{"invalid semantics byte", func(dst []byte) ([]byte, error) {
			return AppendRequestFrame(dst, &Request{Op: OpGet, Sem: 7, Key: []byte("k")})
		}, ErrBadSemantics},
		{"response under an invalid op", func(dst []byte) ([]byte, error) {
			return AppendResponseFrame(dst, 99, &Response{Status: StatusOK})
		}, ErrBadOp},
	} {
		// Spare capacity lets a failing encode write past len(dst) in place.
		dst := append(make([]byte, 0, 256), first...)
		out, err := c.enc(dst)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if !bytes.Equal(out, first) {
			t.Errorf("%s: dst came back as %x, want the first frame %x", c.name, out, first)
		}
	}
}

// TestPipelinedFrames writes several frames back-to-back and reads them
// in order — the wire-level property request pipelining rests on.
func TestPipelinedFrames(t *testing.T) {
	var batch []byte
	var ends []int
	for i := 0; i < 5; i++ {
		var err error
		batch, err = AppendRequestFrame(batch, &Request{Op: OpSet, Sem: SemDefault,
			Key: []byte{byte('a' + i)}, Val: bytes.Repeat([]byte{byte(i)}, i*7)})
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(batch))
	}
	br := bufio.NewReader(bytes.NewReader(batch))
	var buf []byte
	start := 0
	for i, end := range ends {
		var err error
		if buf, err = ReadFrameBuf(br, buf, 0); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(buf, batch[start+4:end]) {
			t.Fatalf("frame %d mismatch", i)
		}
		start = end
	}
	if _, err := ReadFrameBuf(br, buf, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}
