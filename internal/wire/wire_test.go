package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"polytm/internal/stm"
)

func roundTripRequest(t *testing.T, r *Request) *Request {
	t.Helper()
	payload, err := AppendRequest(nil, r)
	if err != nil {
		t.Fatalf("AppendRequest(%v): %v", r.Op, err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadFrame(bufio.NewReader(&buf), 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	dec, err := DecodeRequest(got)
	if err != nil {
		t.Fatalf("DecodeRequest(%v): %v", r.Op, err)
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
	for _, c := range cases {
		payload, err := AppendResponse(nil, c.op, c.resp)
		if err != nil {
			t.Fatalf("AppendResponse(%v): %v", c.op, err)
		}
		dec, err := DecodeResponse(payload, c.op, c.subOps)
		if err != nil {
			t.Fatalf("DecodeResponse(%v): %v", c.op, err)
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
		if _, err := DecodeRequest(c.payload); !errors.Is(err, c.wantErr) {
			t.Errorf("%s: DecodeRequest error = %v, want %v", c.name, err, c.wantErr)
		}
	}
	// Trailing bytes are an error too.
	payload, err := AppendRequest(nil, &Request{Op: OpGet, Sem: SemDefault, Key: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest(append(payload, 0)); err == nil {
		t.Error("DecodeRequest accepted trailing bytes")
	}
}

func TestReadFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(buf.Bytes())), 50); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize frame error = %v, want ErrFrameTooLarge", err)
	}
	// Truncated frame body.
	raw := buf.Bytes()[:20]
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw)), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame error = %v, want ErrUnexpectedEOF", err)
	}
	// Clean EOF at a frame boundary.
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(nil)), 0); !errors.Is(err, io.EOF) {
		t.Errorf("empty stream error = %v, want EOF", err)
	}
}

// TestPipelinedFrames writes several frames back-to-back and reads them
// in order — the wire-level property request pipelining rests on.
func TestPipelinedFrames(t *testing.T) {
	var buf bytes.Buffer
	var want [][]byte
	for i := 0; i < 5; i++ {
		payload, err := AppendRequest(nil, &Request{Op: OpSet, Sem: SemDefault,
			Key: []byte{byte('a' + i)}, Val: bytes.Repeat([]byte{byte(i)}, i*7)})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, payload)
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for i := range want {
		got, err := ReadFrame(br, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := ReadFrame(br, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}
