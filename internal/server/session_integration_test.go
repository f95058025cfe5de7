package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"polytm/internal/core"
	"polytm/internal/server/client"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// rawConn is a frame-level connection for protocol-violation tests: it
// speaks length prefixes directly so it can send what no client would.
type rawConn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c, br: bufio.NewReader(c)}
}

// sendRaw writes one frame with the given payload bytes.
func (r *rawConn) sendRaw(payload []byte) {
	r.t.Helper()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := r.c.Write(append(hdr[:], payload...)); err != nil {
		r.t.Fatalf("raw write: %v", err)
	}
}

// readResp reads one response frame and decodes it for op.
func (r *rawConn) readResp(op wire.Op) *wire.Response {
	r.t.Helper()
	raw, err := wire.ReadFrameBuf(r.br, nil)
	if err != nil {
		r.t.Fatalf("raw read: %v", err)
	}
	resp := new(wire.Response)
	if err := wire.DecodeResponseInto(resp, raw, op, nil); err != nil {
		r.t.Fatalf("raw decode: %v", err)
	}
	return resp
}

// TestProtocolErrorsKeepConnection is the S9 satellite: an unknown
// opcode or malformed frame gets one clean typed StatusErr reply and
// the connection keeps serving; an oversize frame gets the typed reply
// and then the cut (the stream cannot be resynchronized).
func TestProtocolErrorsKeepConnection(t *testing.T) {
	srv, addr := startReplServer(t, Config{Shards: 1}, nil, nil)
	_ = srv
	rc := dialRaw(t, addr)

	checkProto := func(resp *wire.Response, want wire.ProtoCode) *wire.ProtocolError {
		t.Helper()
		err := resp.Err()
		if err == nil {
			t.Fatalf("protocol violation answered with status %v, want StatusErr", resp.Status)
		}
		if !errors.Is(err, wire.ErrProtocol) {
			t.Fatalf("error %v does not match wire.ErrProtocol", err)
		}
		pe, ok := wire.ParseProtocolError(resp.Msg)
		if !ok {
			t.Fatalf("StatusErr %q is not a parseable protocol error", resp.Msg)
		}
		if pe.Code != want {
			t.Fatalf("protocol error code %v, want %v", pe.Code, want)
		}
		return pe
	}

	// Unknown opcode: op byte far beyond the defined range, and opcode
	// 10, REBUILD until it was retired.
	rc.sendRaw([]byte{0xEE, byte(wire.SemDefault), 'k'})
	checkProto(rc.readResp(wire.OpGet), wire.ProtoUnknownOp)
	rc.sendRaw([]byte{10, byte(wire.SemDefault)})
	checkProto(rc.readResp(wire.OpGet), wire.ProtoUnknownOp)

	// Malformed body: INCR with a truncated key length.
	rc.sendRaw([]byte{byte(wire.OpIncr), byte(wire.SemDefault), 0xFF})
	checkProto(rc.readResp(wire.OpGet), wire.ProtoMalformed)

	// The connection SURVIVED them all: a well-formed SET on the same
	// connection round-trips.
	buf, err := wire.AppendRequestFrame(nil, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("alive"), Val: []byte("yes")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.c.Write(buf); err != nil {
		t.Fatalf("post-violation set: %v", err)
	}
	if resp := rc.readResp(wire.OpSet); resp.Err() != nil {
		t.Fatalf("post-violation set: %v", resp.Err())
	}

	// Oversize frame: a length prefix beyond wire.MaxFrame, and no body.
	// One typed reply, then the connection ends.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], wire.MaxFrame+1)
	if _, err := rc.c.Write(hdr[:]); err != nil {
		t.Fatalf("oversize prefix: %v", err)
	}
	checkProto(rc.readResp(wire.OpGet), wire.ProtoOversize)
	rc.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := rc.br.ReadByte(); err != io.EOF {
		t.Fatalf("connection after oversize: %v, want EOF", err)
	}
}

// TestSessionProtocolErrors: a watch session answers a protocol
// violation with one terminal ERR frame carrying its code, then ends.
// An oversize length prefix fails the session's read itself, before any
// frame is decoded, and still gets its ERR.
func TestSessionProtocolErrors(t *testing.T) {
	_, addr := startReplServer(t, Config{Shards: 1}, nil, nil)
	for _, row := range []struct {
		name string
		send []byte
		want wire.ProtoCode
	}{
		// A WATCH frame cut before its mode byte.
		{"malformed", []byte{0, 0, 0, 1, byte(wire.SessWatch)}, wire.ProtoMalformed},
		{"oversize", binary.BigEndian.AppendUint32(nil, wire.MaxFrame+1), wire.ProtoOversize},
	} {
		t.Run(row.name, func(t *testing.T) {
			rc := dialRaw(t, addr)
			req, err := wire.AppendRequestFrame(nil, &wire.Request{Op: wire.OpWatch, Sem: wire.SemDefault, Key: []byte("k")})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rc.c.Write(req); err != nil {
				t.Fatal(err)
			}
			if resp := rc.readResp(wire.OpWatch); resp.Err() != nil {
				t.Fatalf("watch handshake: %v", resp.Err())
			}
			if _, err := rc.c.Write(row.send); err != nil {
				t.Fatal(err)
			}
			rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
			var f wire.SessFrame
			for f.Kind != wire.SessErr {
				raw, err := wire.ReadFrameBuf(rc.br, nil)
				if err != nil {
					t.Fatalf("session ended without ERR: %v", err)
				}
				if err := wire.DecodeSessFrame(&f, raw); err != nil {
					t.Fatalf("session frame: %v", err)
				}
			}
			if f.Code != row.want {
				t.Fatalf("ERR code=%v, want %v", f.Code, row.want)
			}
			if _, err := rc.br.ReadByte(); err != io.EOF {
				t.Fatalf("session after ERR: %v, want EOF", err)
			}
		})
	}
}

// TestOversizeReplyKeepsConnection: a reply that would outgrow
// wire.MaxFrame — a SCAN, an MGET or a TXN of GETs over values that
// together pass it — is answered by one StatusErr frame the reader can
// take, and the connection stays open and in step: the next request on
// it gets its own reply. A reply of that size was once built and sent,
// and the client, refusing the frame, lost the connection.
func TestOversizeReplyKeepsConnection(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, addr := startReplServer(t, Config{Shards: 1, StoreShards: shards}, nil, nil)
			rc := dialRaw(t, addr)
			roundTrip := func(req *wire.Request) *wire.Response {
				t.Helper()
				req.Sem = wire.SemDefault
				buf, err := wire.AppendRequestFrame(nil, req)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rc.c.Write(buf); err != nil {
					t.Fatalf("%v: write: %v", req.Op, err)
				}
				return rc.readResp(req.Op)
			}
			val := bytes.Repeat([]byte{'v'}, 1<<20)
			var keys [][]byte
			var gets []wire.Request
			for i := range wire.MaxFrame>>20 + 1 {
				k := []byte(fmt.Sprintf("big-%02d", i))
				if err := roundTrip(&wire.Request{Op: wire.OpSet, Key: k, Val: val}).Err(); err != nil {
					t.Fatalf("SET %s: %v", k, err)
				}
				keys, gets = append(keys, k), append(gets, wire.Request{Op: wire.OpGet, Key: k})
			}
			for _, req := range []*wire.Request{
				{Op: wire.OpScan},
				{Op: wire.OpMGet, Keys: keys},
				{Op: wire.OpTxn, Batch: gets},
			} {
				if resp := roundTrip(req); resp.Status != wire.StatusErr || !strings.Contains(resp.Msg, wire.ErrFrameTooLarge.Error()) {
					t.Fatalf("%v of %d MB: status %v %q, want a StatusErr naming the frame limit", req.Op, len(keys), resp.Status, resp.Msg)
				}
				if resp := roundTrip(&wire.Request{Op: wire.OpGet, Key: keys[0]}); resp.Status != wire.StatusOK || len(resp.Val) != len(val) {
					t.Fatalf("GET after the %v: status %v, %d bytes", req.Op, resp.Status, len(resp.Val))
				}
			}
			if resp := roundTrip(&wire.Request{Op: wire.OpScan, Limit: 3}); resp.Err() != nil || len(resp.Pairs) != 3 {
				t.Fatalf("SCAN of 3: %v, %d pairs", resp.Err(), len(resp.Pairs))
			}
		})
	}
}

// TestIncrDecrSetEx covers the counter and TTL opcodes end to end:
// atomic arithmetic on missing/existing keys, the typed failures, and
// lazy expiry making a SETEX key vanish from every read class before
// the reaper physically deletes it.
func TestIncrDecrSetEx(t *testing.T) {
	srv, addr := startReplServer(t, Config{Shards: 1, TTLReapEvery: -1}, nil, nil)
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if n, err := cl.Incr([]byte("ctr"), 5); err != nil || n != 5 {
		t.Fatalf("Incr(missing, 5) = %d, %v; want 5", n, err)
	}
	if n, err := cl.Incr([]byte("ctr"), 7); err != nil || n != 12 {
		t.Fatalf("Incr(+7) = %d, %v; want 12", n, err)
	}
	if n, err := cl.Decr([]byte("ctr"), 20); err != nil || n != -8 {
		t.Fatalf("Decr(20) = %d, %v; want -8", n, err)
	}
	// Non-integer value: typed StatusErr, value untouched.
	if err := cl.Set([]byte("word"), []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Incr([]byte("word"), 1); err == nil {
		t.Fatal("Incr on non-integer succeeded")
	}
	if v, _, _ := cl.Get([]byte("word")); string(v) != "abc" {
		t.Fatalf("failed Incr mutated the value: %q", v)
	}
	// Overflow: typed StatusErr.
	if err := cl.Set([]byte("max"), []byte(strconv.FormatInt(math.MaxInt64, 10))); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Incr([]byte("max"), 1); err == nil {
		t.Fatal("Incr overflow succeeded")
	}

	// SETEX + lazy expiry with the reaper disabled: GET, MGET, SCAN and
	// TXN-GET all report the key absent once the deadline passes, even
	// though nothing deleted it.
	if err := cl.SetEx([]byte("fleeting"), []byte("v"), 40*time.Millisecond); err != nil {
		t.Fatalf("SetEx: %v", err)
	}
	if _, ok, _ := cl.Get([]byte("fleeting")); !ok {
		t.Fatal("SETEX key missing before its TTL")
	}
	waitCond(t, 2*time.Second, "lazy expiry", func() bool {
		_, ok, err := cl.Get([]byte("fleeting"))
		return err == nil && !ok
	})
	if _, found, _ := cl.MGet([]byte("fleeting")); found[0] {
		t.Fatal("MGET sees expired key")
	}
	if pairs := scanPairs(t, cl); pairs["fleeting"] != "" {
		t.Fatal("SCAN sees expired key")
	}
	// The reaper (driven by hand) physically deletes it and counts it.
	if _, err := srv.Store().ReapExpired(t.Context()); err != nil {
		t.Fatalf("ReapExpired: %v", err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["keys_expired"] != 1 {
		t.Fatalf("keys_expired = %d, want 1", stats["keys_expired"])
	}
	if stats["ttl_armed"] != 0 {
		t.Fatalf("ttl_armed = %d after reap, want 0", stats["ttl_armed"])
	}
	if stats["incr_ops"] == 0 {
		t.Fatal("incr_ops stayed 0")
	}
	// INCR preserves a TTL (KeepTTL) but revives an expired key fresh.
	if err := cl.SetEx([]byte("ttlctr"), []byte("1"), time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Incr([]byte("ttlctr"), 1); err != nil {
		t.Fatal(err)
	}
	stats, _ = cl.Stats()
	if stats["ttl_armed"] != 1 {
		t.Fatalf("INCR dropped the TTL: ttl_armed = %d, want 1", stats["ttl_armed"])
	}
}

// collectEvents drains a watcher until no event arrives for the idle
// window, returning what it saw.
func collectEvents(w *client.Watcher, want int, idle time.Duration) []client.WatchEvent {
	var evs []client.WatchEvent
	timer := time.NewTimer(idle)
	defer timer.Stop()
	for {
		// Once the expected count arrives, linger one idle window to
		// catch duplicates; before that, wait generously.
		d := 5 * time.Second
		if len(evs) >= want {
			d = idle
		}
		timer.Reset(d)
		select {
		case ev, ok := <-w.Events():
			if !ok {
				return evs
			}
			evs = append(evs, ev)
		case <-timer.C:
			return evs
		}
	}
}

// TestWatchPushBasics: a prefix watcher sees SET and DEL events in
// commit order with strictly increasing sequence numbers; mid-session
// WATCH (Add) and UNWATCH work; non-matching keys stay silent.
func TestWatchPushBasics(t *testing.T) {
	srv, addr := startReplServer(t, Config{Shards: 1, StoreShards: 2, TTLReapEvery: -1}, nil, nil)
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	w, err := client.Watch(addr, []byte("w:"), true, client.WithoutReconnect())
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer w.Close()
	if w.FirstID() == 0 {
		t.Fatal("first watch id is 0")
	}

	mustSet := func(k, v string) {
		if err := cl.Set([]byte(k), []byte(v)); err != nil {
			t.Fatalf("set %s: %v", k, err)
		}
	}
	mustSet("w:a", "1")
	mustSet("quiet", "x") // must not surface
	mustSet("w:b", "2")
	if _, err := cl.Del([]byte("w:a")); err != nil {
		t.Fatal(err)
	}

	evs := collectEvents(w, 3, 200*time.Millisecond)
	if len(evs) != 3 {
		t.Fatalf("got %d events %v, want 3", len(evs), evs)
	}
	wantOps := []wire.EventOp{wire.EventSet, wire.EventSet, wire.EventDel}
	wantKeys := []string{"w:a", "w:b", "w:a"}
	var lastSeq uint64
	for i, ev := range evs {
		if ev.Op != wantOps[i] || ev.Key != wantKeys[i] {
			t.Fatalf("event %d = %v %q, want %v %q", i, ev.Op, ev.Key, wantOps[i], wantKeys[i])
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d seq %d not increasing past %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}

	// Liveness: a client PING round-trips without disturbing events.
	if err := w.Ping(); err != nil {
		t.Fatalf("watcher ping: %v", err)
	}

	// Mid-session watch via Add, then a TTL expiry event from the reaper.
	if err := w.Add([]byte("exact"), false); err != nil {
		t.Fatalf("Add: %v", err)
	}
	// Add does not wait for WATCH-OK, so wait for the registration
	// itself (the session count was already 1 and proves nothing): a
	// SET committed before it would rightly go unseen.
	waitCond(t, 2*time.Second, "second watch registered", func() bool {
		return srv.Store().Sessions().ActiveWatches() == 2
	})
	mustSet("exact", "v")
	if err := cl.SetEx([]byte("w:ttl"), []byte("v"), 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 2*time.Second, "deadline passed", func() bool {
		_, ok, err := cl.Get([]byte("w:ttl"))
		return err == nil && !ok
	})
	if _, err := srv.Store().ReapExpired(t.Context()); err != nil {
		t.Fatal(err)
	}
	evs = collectEvents(w, 3, 200*time.Millisecond)
	if len(evs) != 3 {
		t.Fatalf("got %d events %v, want 3 (exact-set, ttl-set, expire)", len(evs), evs)
	}
	if evs[0].Key != "exact" || evs[0].Op != wire.EventSet {
		t.Fatalf("Add'd watch event = %v %q", evs[0].Op, evs[0].Key)
	}
	if evs[1].Key != "w:ttl" || evs[1].Op != wire.EventSet {
		t.Fatalf("setex event = %v %q", evs[1].Op, evs[1].Key)
	}
	if evs[2].Key != "w:ttl" || evs[2].Op != wire.EventExpire {
		t.Fatalf("expiry event = %v %q, want EXPIRE w:ttl", evs[2].Op, evs[2].Key)
	}
}

// TestFlushWatchTTLRegression pins the FLUSH contract: FLUSH publishes
// exactly ONE FLUSH event per watch (not one per shard) and clears
// every TTL.
func TestFlushWatchTTLRegression(t *testing.T) {
	_, addr := startReplServer(t, Config{Shards: 1, StoreShards: 4, TTLReapEvery: -1}, nil, nil)
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	w, err := client.Watch(addr, []byte(""), true, client.WithoutReconnect())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if err := cl.SetEx([]byte("t1"), []byte("v"), time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := collectEvents(w, 2, 250*time.Millisecond)
	if len(evs) != 2 || evs[0].Op != wire.EventSet || evs[1].Op != wire.EventFlush {
		t.Fatalf("events %v, want [SET t1, FLUSH]", evs)
	}
	st, _ := cl.Stats()
	if st["ttl_armed"] != 0 {
		t.Fatalf("FLUSH left %d TTLs armed", st["ttl_armed"])
	}
	// The cleared deadline must not haunt a reused key: a plain SET
	// after FLUSH lives forever.
	if err := cl.Set([]byte("t1"), []byte("immortal")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, ok, _ := cl.Get([]byte("t1")); !ok {
		t.Fatal("key expired from a deadline FLUSH should have cleared")
	}
}

// TestWatchExactlyOnceUnderRace is the acceptance race test: N watchers
// and M writers, every committed write delivered exactly once to every
// watcher, in commit order, with identical per-key sequence streams
// across watchers. 20 iterations (run under -race in CI).
func TestWatchExactlyOnceUnderRace(t *testing.T) {
	const (
		iterations = 20
		watchers   = 3
		writers    = 3
		perWriter  = 15
	)
	_, addr := startReplServer(t, Config{Shards: 2, StoreShards: 2, TTLReapEvery: -1}, nil, nil)

	for iter := 0; iter < iterations; iter++ {
		ws := make([]*client.Watcher, watchers)
		for i := range ws {
			w, err := client.Watch(addr, []byte(fmt.Sprintf("race%d:", iter)), true, client.WithoutReconnect())
			if err != nil {
				t.Fatalf("iter %d: watch: %v", iter, err)
			}
			ws[i] = w
		}

		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for j := 0; j < writers; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				cl, err := client.Dial(addr, client.WithPoolSize(1))
				if err != nil {
					errs <- err
					return
				}
				defer cl.Close()
				for i := 0; i < perWriter; i++ {
					key := []byte(fmt.Sprintf("race%d:w%d-%04d", iter, j, i))
					if err := cl.Set(key, []byte("v")); err != nil {
						errs <- fmt.Errorf("writer %d: %w", j, err)
						return
					}
				}
			}(j)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		const total = writers * perWriter
		streams := make([][]client.WatchEvent, watchers)
		for i, w := range ws {
			evs := collectEvents(w, total, 150*time.Millisecond)
			if len(evs) != total {
				t.Fatalf("iter %d: watcher %d saw %d events, want exactly %d", iter, i, len(evs), total)
			}
			seen := make(map[string]int, total)
			var lastSeq uint64
			for _, ev := range evs {
				seen[ev.Key]++
				if ev.Seq <= lastSeq {
					t.Fatalf("iter %d: watcher %d: seq %d not increasing past %d", iter, i, ev.Seq, lastSeq)
				}
				lastSeq = ev.Seq
			}
			for k, n := range seen {
				if n != 1 {
					t.Fatalf("iter %d: watcher %d saw %q %d times", iter, i, k, n)
				}
			}
			streams[i] = evs
		}
		// Every watcher saw the same commits with the same seq numbers —
		// per key, since cross-key order across shards isn't total.
		ref := make(map[string]uint64, total)
		for _, ev := range streams[0] {
			ref[ev.Key] = ev.Seq
		}
		for i := 1; i < watchers; i++ {
			for _, ev := range streams[i] {
				if ref[ev.Key] != ev.Seq {
					t.Fatalf("iter %d: watcher %d saw %q at seq %d, watcher 0 at %d", iter, i, ev.Key, ev.Seq, ref[ev.Key])
				}
			}
		}
		for _, w := range ws {
			w.Close()
		}
	}
}

// TestWatchOverflowCutsSession: a watcher that cannot keep up loses its
// session — EVENT-LOST with the dropped count, never a blocked commit.
func TestWatchOverflowCutsSession(t *testing.T) {
	_, addr := startReplServer(t, Config{Shards: 1, WatchBuffer: 8, TTLReapEvery: -1}, nil, nil)
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// A raw session that never reads: the server's push stalls into the
	// socket buffer and the session buffer (8) overflows. Event frames
	// carry the key, so fat keys fill the kernel buffers in dozens of
	// events rather than hundreds of thousands.
	rc := dialRaw(t, addr)
	req, err := wire.AppendRequestFrame(nil, &wire.Request{Op: wire.OpWatch, Sem: wire.SemDefault, Key: []byte("ov:"), Prefix: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.c.Write(req); err != nil {
		t.Fatal(err)
	}
	if resp := rc.readResp(wire.OpWatch); resp.Err() != nil {
		t.Fatalf("watch handshake: %v", resp.Err())
	}

	// Write until the server reports lost events; every Set must keep
	// succeeding (a slow watcher never blocks a commit).
	val := []byte("v")
	pad := strings.Repeat("k", 16<<10)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		if err := cl.Set([]byte(fmt.Sprintf("ov:%06d:%s", i, pad)), val); err != nil {
			t.Fatalf("set %d during overflow: %v", i, err)
		}
		if i%50 == 0 {
			st, err := cl.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st["events_lost"] > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no overflow after %d sets (events_pushed=%d)", i, st["events_pushed"])
			}
		}
	}

	// Now drain: buffered EVENTs, then EVENT-LOST, then EOF.
	rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var f wire.SessFrame
	sawLost := false
	nread := 0
	for {
		raw, err := wire.ReadFrameBuf(rc.br, nil)
		if err != nil {
			if !sawLost {
				t.Fatalf("session ended without EVENT-LOST after %d frames: %v", nread, err)
			}
			break
		}
		nread++
		if err := wire.DecodeSessFrame(&f, raw); err != nil {
			t.Fatalf("session frame: %v", err)
		}
		if f.Kind == wire.SessEventLost {
			if f.Dropped == 0 {
				t.Fatal("EVENT-LOST with dropped=0")
			}
			sawLost = true
		}
	}
	waitCond(t, 2*time.Second, "session gauge to drop", func() bool {
		st, err := cl.Stats()
		return err == nil && st["watch_sessions"] == 0
	})
}

// TestFollowerPostExpiryEquivalence: expiry decided on the primary
// reaches followers as ordinary replicated deletes, so a promoted
// follower and a WAL-recovered primary serve the SAME post-expiry
// keyspace — no follower ever re-decides a deadline.
func TestFollowerPostExpiryEquivalence(t *testing.T) {
	pdir := t.TempDir()
	psrv, paddr := startReplServer(t, Config{StoreShards: 2, TTLReapEvery: -1},
		&Durability{Dir: pdir, Fsync: wal.ModeAlways, CheckpointEvery: -1},
		&ReplConfig{})
	fsrv, faddr := startReplServer(t, Config{StoreShards: 2, TTLReapEvery: -1},
		nil, &ReplConfig{Follow: paddr})

	pcl, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pcl.Close()

	for i := 0; i < 5; i++ {
		if err := pcl.Set([]byte(fmt.Sprintf("keep-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := pcl.SetEx([]byte(fmt.Sprintf("gone-%d", i)), []byte("v"), 20*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, 2*time.Second, "deadlines to pass", func() bool {
		_, ok, err := pcl.Get([]byte("gone-0"))
		return err == nil && !ok
	})
	// Drive expiry to completion on the primary (batches are bounded).
	waitCond(t, 5*time.Second, "reap to finish", func() bool {
		if _, err := psrv.Store().ReapExpired(t.Context()); err != nil {
			t.Fatalf("reap: %v", err)
		}
		st, err := pcl.Stats()
		return err == nil && st["keys_expired"] == 5 && st["ttl_armed"] == 0
	})

	want := scanPairs(t, pcl)
	if len(want) != 5 {
		t.Fatalf("primary keyspace %v, want the 5 keep keys", want)
	}

	// The follower converges on the same post-expiry keyspace.
	fcl, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fcl.Close()
	waitCond(t, 5*time.Second, "follower convergence", func() bool {
		got := scanPairs(t, fcl)
		return fmt.Sprint(got) == fmt.Sprint(want)
	})

	// Fail over: the promoted follower serves that keyspace as primary.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	psrv.Shutdown(ctx)
	cancel()
	if _, err := fsrv.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	got := scanPairs(t, fcl)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("promoted follower keyspace %v, want %v", got, want)
	}

	// And a fresh recovery of the primary's WAL agrees too.
	rst := NewShardedStore([]*core.TM{core.NewDefault(), core.NewDefault()})
	if _, err := rst.EnableDurability(Durability{Dir: pdir, Fsync: wal.ModeAlways, CheckpointEvery: -1}); err != nil {
		t.Fatalf("recover primary WAL: %v", err)
	}
	defer rst.CloseDurability()
	rec := scanAll(t, rst)
	if fmt.Sprint(rec) != fmt.Sprint(want) {
		t.Fatalf("recovered primary keyspace %v, want %v", rec, want)
	}
}
