package client

import (
	"bufio"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"polytm/internal/wire"
)

// TestReplyFillsItsClass pins the arithmetic next to replyInline and
// batchReply: the reply, inline frame included, is exactly a 320-byte
// malloc class; with four inline sub-responses and the allocator's
// 8-byte header (every object with pointers over 512 bytes has one) it
// is exactly the 896-byte class. A field added to wire.Response (or to
// reply) spills both into the next class — shrink replyInline by as
// much. The sizes are also measured, so an allocator that changes its
// classes or its header fails here too.
func TestReplyFillsItsClass(t *testing.T) {
	if got := unsafe.Sizeof(wire.Response{}); got != 144 {
		t.Fatalf("wire.Response is %d bytes, want 144: reply and batchReply are sized from it", got)
	}
	if got := unsafe.Sizeof(reply{}); got != 320 {
		t.Fatalf("reply is %d bytes, want 320: adjust replyInline", got)
	}
	if got := unsafe.Sizeof(batchReply{}); got != 896-8 {
		t.Fatalf("batchReply is %d bytes, want 888 (312 + 4·144, 896 with its malloc header)", got)
	}
	if got := allocatedBytes(func() any { return new(reply) }); got != 320 {
		t.Errorf("a reply takes %d bytes of heap, want 320", got)
	}
	if got := allocatedBytes(func() any { return new(batchReply) }); got != 896 {
		t.Errorf("a batchReply takes %d bytes of heap, want 896", got)
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

// TestNewReplyCarvesBatches: every reply's Batch arrives empty with
// exactly the capacity its request's sub-responses need — inline for a
// single small TXN/MGET, nothing for one past the inline four, one
// arena for a pipelined batch — and appending past it cannot reach the
// neighbour's slots.
func TestNewReplyCarvesBatches(t *testing.T) {
	mget := func(n int) *wire.Request {
		return &wire.Request{Op: wire.OpMGet, Keys: make([][]byte, n)}
	}
	txn := func(n int) *wire.Request {
		return &wire.Request{Op: wire.OpTxn, Batch: make([]wire.Request, n)}
	}
	get := &wire.Request{Op: wire.OpGet}
	for _, tc := range []struct {
		name string
		reqs []*wire.Request
		caps []int
	}{
		{"GET", []*wire.Request{get}, []int{0}},
		{"MGET2", []*wire.Request{mget(2)}, []int{4}},
		{"TXN4", []*wire.Request{txn(4)}, []int{4}},
		{"TXN5", []*wire.Request{txn(5)}, []int{0}},
		{"MGET0", []*wire.Request{mget(0)}, []int{0}},
		{"pipelined", []*wire.Request{mget(2), get, txn(5), mget(0), txn(1)}, []int{2, 0, 5, 0, 1}},
		{"pipelined GETs", []*wire.Request{get, get}, []int{0, 0}},
	} {
		out, resps, _, _ := newReply(tc.reqs)
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

// TestShortMGetReplyIsAnError: a server that answers a 2-key MGET with
// one sub-response must not get the caller to index past it. The reply
// is refused like any undecodable one: an error, the connection
// discarded, and the pool dials a fresh one for the next request.
func TestShortMGetReplyIsAnError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
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
				for {
					var err error
					if raw, err = wire.ReadFrameBuf(br, raw); err != nil {
						return
					}
					if err := wire.DecodeRequestInto(&req, raw); err != nil {
						return
					}
					resp := &wire.Response{Status: wire.StatusOK}
					if req.Op == wire.OpMGet {
						resp.Batch = []wire.Response{{Status: wire.StatusNotFound}}
					}
					out, err := wire.AppendResponseFrame(nil, req.Op, resp)
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
	cl, err := Dial(ln.Addr().String(), WithPoolSize(1))
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
