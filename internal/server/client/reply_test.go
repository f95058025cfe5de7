package client

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"polytm/internal/wire"
)

// TestReplyFillsItsClass pins the arithmetic next to the reply tiers:
// each, inline frame included, is exactly a malloc class — 176, 320, 896
// and 2304 bytes, the last two with the allocator's 8-byte header (every
// object with pointers over 512 bytes has one). A field added to
// wire.Response or wire.KV (or to replyTier) spills every tier into the
// next class — shrink its frame by as much. The sizes are also measured,
// so an allocator that changes its classes or its header fails here too.
func TestReplyFillsItsClass(t *testing.T) {
	if got := unsafe.Sizeof(wire.Response{}); got != 144 {
		t.Fatalf("wire.Response is %d bytes, want 144: the reply tiers are sized from it", got)
	}
	if got := unsafe.Sizeof(wire.KV{}); got != 48 {
		t.Fatalf("wire.KV is %d bytes, want 48: scanReply is sized from it", got)
	}
	for _, tier := range []struct {
		name  string
		size  uintptr
		class uint64
		alloc func() any
	}{
		{"ackReply", unsafe.Sizeof(ackReply{}), 176, func() any { return new(ackReply) }},
		{"reply", unsafe.Sizeof(reply{}), 320, func() any { return new(reply) }},
		{"batchReply", unsafe.Sizeof(batchReply{}), 896, func() any { return new(batchReply) }},
		{"scanReply", unsafe.Sizeof(scanReply{}), 2304, func() any { return new(scanReply) }},
	} {
		want := tier.class
		if want > 512 {
			want -= 8 // the malloc header
		}
		if uint64(tier.size) != want {
			t.Errorf("%s is %d bytes, want %d (the %d-byte class): adjust its frame", tier.name, tier.size, want, tier.class)
		}
		if got := allocatedBytes(tier.alloc); got != tier.class {
			t.Errorf("a %s takes %d bytes of heap, want %d", tier.name, got, tier.class)
		}
	}
}

var sink any

// allocatedBytes is the heap one object made by alloc takes, its size
// class and header included. TotalAlloc counts the whole process, and
// another goroutine's allocation only ever adds to a round, so the
// fewest bytes over several rounds is the object's own.
func allocatedBytes(alloc func() any) uint64 {
	const n, rounds = 4096, 8
	least := ^uint64(0)
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			sink = alloc()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	return least
}

// TestNewReplyCarvesBatches: a single request's reply is carved from
// the smallest tier that holds it — a small TXN or MGET by its
// sub-request count, a small-Limit SCAN by its Limit, anything else by
// its frame length — and arrives with an empty Batch and Pairs of
// exactly the inline capacity its tier lends. A pipelined batch's
// replies share one arena, each Batch with exactly the capacity its
// request's sub-responses need, and appending past it cannot reach the
// neighbour's slots.
func TestNewReplyCarvesBatches(t *testing.T) {
	mget := func(n int) *wire.Request {
		return &wire.Request{Op: wire.OpMGet, Keys: make([][]byte, n)}
	}
	txn := func(n int) *wire.Request {
		return &wire.Request{Op: wire.OpTxn, Batch: make([]wire.Request, n)}
	}
	scan := func(limit uint64) *wire.Request { return &wire.Request{Op: wire.OpScan, Limit: limit} }
	get := &wire.Request{Op: wire.OpGet}
	for _, tc := range []struct {
		name                string
		req                 *wire.Request
		n                   int // frame length
		batch, pairs, frame int // capacities
	}{
		{"GET ack", get, 1, 0, 0, 20},
		{"GET at the ack edge", get, 20, 0, 0, 20},
		{"GET past the ack edge", get, 21, 0, 0, 164},
		{"GET past every room", get, 4096, 0, 0, 164},
		{"MGET2", mget(2), 10, 4, 0, 156},
		{"TXN4", txn(4), 6, 4, 0, 156},
		{"TXN5", txn(5), 100, 0, 0, 164},
		{"TXN5 of acks", txn(5), 7, 0, 0, 20},
		{"MGET0", mget(0), 2, 0, 0, 20},
		{"SCAN1", scan(1), 2, 0, 16, 1372},
		{"SCAN16", scan(16), 1400, 0, 16, 1372},
		{"SCAN17", scan(17), 900, 0, 0, 164},
		{"SCAN unbounded", scan(0), 2, 0, 0, 20},
	} {
		out, resps, subOps, frame := newReply(tc.req, tc.n)
		if len(out) != 1 || len(resps) != 1 || len(subOps) != 0 || cap(subOps) != 4 {
			t.Fatalf("%s: %d/%d replies, sub-opcode scratch %d/%d", tc.name, len(out), len(resps), len(subOps), cap(subOps))
		}
		r := resps[0]
		if len(r.Batch) != 0 || cap(r.Batch) != tc.batch || len(r.Pairs) != 0 || cap(r.Pairs) != tc.pairs || len(frame) != tc.frame {
			t.Errorf("%s: Batch %d/%d Pairs %d/%d frame %d, want 0/%d 0/%d %d", tc.name,
				len(r.Batch), cap(r.Batch), len(r.Pairs), cap(r.Pairs), len(frame), tc.batch, tc.pairs, tc.frame)
		}
	}
	for _, tc := range []struct {
		name string
		reqs []*wire.Request
		caps []int
	}{
		{"pipelined", []*wire.Request{mget(2), get, txn(5), mget(0), txn(1)}, []int{2, 0, 5, 0, 1}},
		{"pipelined GETs", []*wire.Request{get, get}, []int{0, 0}},
	} {
		out, resps, _, _ := newReplies(tc.reqs)
		if len(out) != len(tc.reqs) || len(resps) != len(tc.reqs) {
			t.Fatalf("%s: %d/%d replies for %d requests", tc.name, len(out), len(resps), len(tc.reqs))
		}
		for i := range resps {
			if len(resps[i].Batch) != 0 || cap(resps[i].Batch) != tc.caps[i] {
				t.Errorf("%s: reply %d Batch len %d cap %d, want 0/%d", tc.name, i, len(resps[i].Batch), cap(resps[i].Batch), tc.caps[i])
			}
		}
		for i := range resps {
			for j := 0; j <= tc.caps[i]; j++ { // one past the capacity
				resps[i].Batch = append(resps[i].Batch, wire.Response{N: uint64(i + 1)})
			}
		}
		for i := range resps {
			for _, sub := range resps[i].Batch {
				if sub.N != uint64(i+1) {
					t.Fatalf("%s: reply %d holds a sub-response reply %d appended", tc.name, i, sub.N-1)
				}
			}
		}
	}
}

// fakeServer serves each connection's requests in order with whatever
// answer returns for them (seq counts the connection's requests from
// 0), and counts the connections it accepted.
func fakeServer(t *testing.T, answer func(req *wire.Request, seq int) *wire.Response) (string, *atomic.Int32) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := new(atomic.Int32)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				var raw []byte
				var req wire.Request
				for seq := 0; ; seq++ {
					var err error
					if raw, err = wire.ReadFrameBuf(br, raw); err != nil {
						return
					}
					if err := wire.DecodeRequestInto(&req, raw); err != nil {
						return
					}
					out, err := wire.AppendResponseFrame(nil, req.Op, answer(&req, seq))
					if err != nil {
						return
					}
					if _, err := c.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), accepted
}

// TestShortMGetReplyIsAnError: a server that answers a 2-key MGET with
// one sub-response must not get the caller to index past it. The reply
// is refused like any undecodable one: an error, the connection
// discarded, and the pool dials a fresh one for the next request.
func TestShortMGetReplyIsAnError(t *testing.T) {
	addr, accepted := fakeServer(t, func(req *wire.Request, _ int) *wire.Response {
		resp := &wire.Response{Status: wire.StatusOK}
		if req.Op == wire.OpMGet {
			resp.Batch = []wire.Response{{Status: wire.StatusNotFound}}
		}
		return resp
	})
	cl, err := Dial(addr, WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	_, _, err = cl.MGet([]byte("a"), []byte("b"))
	if err == nil || !strings.Contains(err.Error(), "client: response 1/1: MGET has 1 sub-responses, expected 2") {
		t.Fatalf("short MGET reply: err = %v", err)
	}
	// Pipelined, the arena path: the same verdict, naming the request.
	_, err = cl.Do(&wire.Request{Op: wire.OpPing, Sem: wire.SemDefault},
		&wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: [][]byte{[]byte("a"), []byte("b"), []byte("c")}})
	if err == nil || !strings.Contains(err.Error(), "response 2/2: MGET has 1 sub-responses, expected 3") {
		t.Fatalf("short pipelined MGET reply: err = %v", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after the refused replies: %v", err)
	}
	if got := accepted.Load(); got != 3 {
		t.Fatalf("server saw %d connections, want 3: each refused reply costs its connection", got)
	}
}

// TestLongScanReplyIsAnError: a server that answers a SCAN with more
// pairs than its Limit asked for breaks the protocol — the pairs a reply
// is lent are sized from that Limit — and the reply is refused as a
// short MGET's is: an error, the connection discarded, a fresh one
// dialed for the next request. An unbounded SCAN takes what it gets.
func TestLongScanReplyIsAnError(t *testing.T) {
	addr, accepted := fakeServer(t, func(req *wire.Request, _ int) *wire.Response {
		resp := &wire.Response{Status: wire.StatusOK}
		if req.Op == wire.OpScan {
			for i := range max(req.Limit+1, 17) {
				resp.Pairs = append(resp.Pairs, wire.KV{Key: []byte{byte(i)}, Val: []byte("v")})
			}
		}
		return resp
	})
	cl, err := Dial(addr, WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, limit := range []uint64{1, 16, 17} {
		_, err := cl.Scan(nil, nil, limit)
		want := fmt.Sprintf("client: response 1/1: SCAN has %d pairs, limit %d", max(limit+1, 17), limit)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("SCAN %d answered with %d pairs: err = %v", limit, max(limit+1, 17), err)
		}
	}
	_, err = cl.Do(&wire.Request{Op: wire.OpPing, Sem: wire.SemDefault},
		&wire.Request{Op: wire.OpScan, Sem: wire.SemDefault, Limit: 2})
	if err == nil || !strings.Contains(err.Error(), "response 2/2: SCAN has 17 pairs, limit 2") {
		t.Fatalf("long pipelined SCAN reply: err = %v", err)
	}
	if pairs, err := cl.Scan(nil, nil, 0); err != nil || len(pairs) != 17 {
		t.Fatalf("unbounded SCAN: %d pairs, err = %v", len(pairs), err)
	}
	if got := accepted.Load(); got != 5 {
		t.Fatalf("server saw %d connections, want 5: each refused reply costs its connection", got)
	}
}

// TestReplyTiersSurviveReuse holds every single-request reply tier to
// its edges over a pooled connection: a frame of exactly the tier's room
// lands inside the reply's own object, and one byte more in the next
// tier up or, past the largest its request can take, outside the reply;
// SCANs of 0, 1 and 16 pairs ride the SCAN tier while 17 (past any
// Limit it serves) decode into pairs of their own. Every reply must stay
// exactly as decoded through 100 further round trips on the same
// connection — no tier's storage is reused — and after the caller
// appends to each of its values, which are capped at their own bytes.
func TestReplyTiersSurviveReuse(t *testing.T) {
	// A request names the frame length its reply must have in its key
	// (MGET: its last key; SCAN: From) as "<pairs>/<frame>": the fake
	// server pads the last value until the frame is that long, each
	// value's bytes the request's sequence number, so a reply decoded
	// over an earlier one's storage shows.
	answer := func(req *wire.Request, seq int) *wire.Response {
		var spec string
		switch req.Op {
		case wire.OpGet:
			spec = string(req.Key)
		case wire.OpMGet:
			spec = string(req.Keys[len(req.Keys)-1])
		case wire.OpScan:
			spec = string(req.From)
		}
		var pairs, frame int
		fmt.Sscanf(spec, "%d/%d", &pairs, &frame)
		fill := func(n int) []byte { return bytes.Repeat([]byte{byte('a' + seq%26)}, n) }
		resp := &wire.Response{Status: wire.StatusOK}
		last := &resp.Val
		switch req.Op {
		case wire.OpMGet:
			for range req.Keys {
				resp.Batch = append(resp.Batch, wire.Response{Status: wire.StatusOK, Val: fill(1)})
			}
			last = &resp.Batch[len(resp.Batch)-1].Val
		case wire.OpScan:
			for i := range pairs {
				resp.Pairs = append(resp.Pairs, wire.KV{Key: []byte(fmt.Sprintf("k%02d", i)), Val: fill(1)})
			}
			if pairs == 0 {
				return resp
			}
			last = &resp.Pairs[pairs-1].Val
		}
		for {
			out, err := wire.AppendResponseFrame(nil, req.Op, resp)
			if err != nil || len(out)-4 >= frame {
				return resp
			}
			*last = fill(len(*last) + 1)
		}
	}
	addr, _ := fakeServer(t, answer)
	cl, err := Dial(addr, WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	get := func(frame int) *wire.Request {
		return &wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: []byte(fmt.Sprintf("0/%d", frame))}
	}
	mget := func(frame int) *wire.Request {
		return &wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: [][]byte{[]byte("x"), []byte(fmt.Sprintf("0/%d", frame))}}
	}
	scan := func(pairs, frame int, limit uint64) *wire.Request {
		return &wire.Request{Op: wire.OpScan, Sem: wire.SemDefault, From: []byte(fmt.Sprintf("%d/%d", pairs, frame)), Limit: limit}
	}
	// n is the frame length the request asks for (0: as long as its
	// pairs make it); size is the tier the reply must be carved from;
	// frame and pairs say whether its frame and its pairs must lie
	// inside it.
	type kept struct {
		name          string
		req           *wire.Request
		n             int
		size          uintptr
		frame, pairs  bool
		resp, decoded *wire.Response // decoded: a deep copy, taken at once
	}

	ack, plain, batch, scanned := unsafe.Sizeof(ackReply{}), unsafe.Sizeof(reply{}), unsafe.Sizeof(batchReply{}), unsafe.Sizeof(scanReply{})
	cases := []kept{
		{name: "ack at its room", req: get(20), n: 20, size: ack, frame: true},
		{name: "ack past its room", req: get(21), n: 21, size: plain, frame: true},
		{name: "reply at its room", req: get(164), n: 164, size: plain, frame: true},
		{name: "reply past its room", req: get(165), n: 165, size: plain},
		{name: "batch at its room", req: mget(156), n: 156, size: batch, frame: true},
		{name: "batch past its room", req: mget(157), n: 157, size: batch},
		{name: "SCAN of 0 pairs", req: scan(0, 0, 16), size: scanned},
		{name: "SCAN of 1 pair", req: scan(1, 0, 16), size: scanned, frame: true, pairs: true},
		{name: "SCAN of 16 pairs", req: scan(16, 0, 16), size: scanned, frame: true, pairs: true},
		{name: "SCAN at its room", req: scan(16, 1372, 16), n: 1372, size: scanned, frame: true, pairs: true},
		{name: "SCAN past its room", req: scan(16, 1373, 16), n: 1373, size: scanned, pairs: true},
		{name: "SCAN of 17 pairs", req: scan(17, 0, 0), size: plain, frame: true},
	}
	for i := range cases {
		c := &cases[i]
		rs, err := cl.Do(c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		c.resp, c.decoded = rs[0], deepCopy(rs[0])
		if out, _ := wire.AppendResponseFrame(nil, c.req.Op, c.resp); c.n > 0 && len(out)-4 != c.n {
			t.Fatalf("%s: the frame is %d bytes, want %d", c.name, len(out)-4, c.n)
		}
		val := c.resp.Val
		switch {
		case len(c.resp.Batch) > 0:
			val = c.resp.Batch[len(c.resp.Batch)-1].Val
		case len(c.resp.Pairs) > 0:
			val = c.resp.Pairs[len(c.resp.Pairs)-1].Val
			if got := inside(c.resp, c.size, unsafe.Pointer(&c.resp.Pairs[0])); got != c.pairs {
				t.Errorf("%s: pairs inside the reply = %v, want %v", c.name, got, c.pairs)
			}
		}
		if len(val) > 0 {
			if got := inside(c.resp, c.size, unsafe.Pointer(&val[len(val)-1])); got != c.frame {
				t.Errorf("%s: frame inside the reply = %v, want %v", c.name, got, c.frame)
			}
		}
	}
	if got := len(cases[9].resp.Pairs); got != 16 {
		t.Fatalf("SCAN at its room decoded %d pairs, want 16", got)
	}
	for i := range 100 {
		if _, err := cl.Do(cases[i%len(cases)].req); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		if !reflect.DeepEqual(c.resp, c.decoded) {
			t.Fatalf("%s: reply changed under later round trips:\n got %+v\nwant %+v", c.name, c.resp, c.decoded)
		}
	}
	for _, c := range cases {
		grow := func(v []byte) { _ = append(v, "appended"...) }
		grow(c.resp.Val)
		for _, sub := range c.resp.Batch {
			grow(sub.Val)
		}
		for _, kv := range c.resp.Pairs {
			grow(kv.Key)
			grow(kv.Val)
		}
	}
	for _, c := range cases {
		if !reflect.DeepEqual(c.resp, c.decoded) {
			t.Fatalf("%s: reply changed under an append to its values:\n got %+v\nwant %+v", c.name, c.resp, c.decoded)
		}
	}
}

// deepCopy copies r's slices, nil or empty as they were, so r's own
// storage changing shows.
func deepCopy(r *wire.Response) *wire.Response {
	c := *r
	c.Val = bytes.Clone(r.Val)
	c.Batch = r.Batch[:0:0]
	for _, sub := range r.Batch {
		c.Batch = append(c.Batch, *deepCopy(&sub))
	}
	c.Pairs = r.Pairs[:0:0]
	for _, kv := range r.Pairs {
		c.Pairs = append(c.Pairs, wire.KV{Key: bytes.Clone(kv.Key), Val: bytes.Clone(kv.Val)})
	}
	return &c
}

// inside reports whether p lies in the object of size bytes that holds
// r, a tier's Response (which follows the tier's one-pointer slice).
func inside(r *wire.Response, size uintptr, p unsafe.Pointer) bool {
	base := uintptr(unsafe.Pointer(r)) - unsafe.Sizeof((*wire.Response)(nil))
	return uintptr(p) >= base && uintptr(p) < base+size
}
