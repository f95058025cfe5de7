package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polytm/internal/raceflag"
	"polytm/internal/repl"
	"polytm/internal/server/client"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// gateKey names the keys of the ack-gate tests.
func gateKey(i int) []byte { return []byte(fmt.Sprintf("gate-%04d", i)) }

func gateSet(i int) *wire.Request {
	return &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: gateKey(i), Val: []byte("0123456789abcdef")}
}

func gateGet(i int) *wire.Request {
	return &wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: gateKey(i)}
}

// gateSets is n pipelined durable SETs of distinct keys.
func gateSets(n int) []*wire.Request {
	reqs := make([]*wire.Request, n)
	for i := range reqs {
		reqs[i] = gateSet(i)
	}
	return reqs
}

// doOK runs reqs as one pipeline and fails on anything but len(reqs)
// non-error replies.
func doOK(t *testing.T, cl *client.Client, reqs ...*wire.Request) []*wire.Response {
	t.Helper()
	rs, err := cl.Do(reqs...)
	if err != nil || len(rs) != len(reqs) {
		t.Fatalf("pipeline of %d: %d replies, %v", len(reqs), len(rs), err)
	}
	for i, r := range rs {
		if r.Status == wire.StatusErr {
			t.Fatalf("reply %d/%d: %s", i+1, len(rs), r.Msg)
		}
	}
	return rs
}

func dialGate(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// sendPipeline dials addr and writes reqs back to back in one Write, for a
// test that decides for itself when to read (see rawConn.readResp).
func sendPipeline(t *testing.T, addr string, reqs ...*wire.Request) *rawConn {
	t.Helper()
	r := dialRaw(t, addr)
	var buf []byte
	for _, req := range reqs {
		var err error
		if buf, err = wire.AppendRequestFrame(buf, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.c.Write(buf); err != nil {
		t.Fatal(err)
	}
	return r
}

// silent asserts that not one reply byte arrives within d; later reads
// get ten seconds, so a reply that never comes fails instead of hanging.
func (r *rawConn) silent(d time.Duration) {
	r.t.Helper()
	r.c.SetReadDeadline(time.Now().Add(d))
	if b, err := r.br.Peek(1); err == nil {
		r.t.Fatalf("reply byte %#x reached the socket while its pipeline's gate was open", b[0])
	}
	r.c.SetReadDeadline(time.Now().Add(10 * time.Second))
}

// flusherStall holds a log's flusher inside the OnDurableRecord hook —
// after the write, before anything is acknowledged — from the first
// record written once armed until release.
type flusherStall struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newFlusherStall() *flusherStall {
	return &flusherStall{entered: make(chan struct{}), release: make(chan struct{})}
}

// free lets the flusher go; a failed test must still do so, or the
// server's teardown waits on it forever.
func (f *flusherStall) free() { f.once.Do(func() { close(f.release) }) }

func (f *flusherStall) hook(byte) {
	if f.armed.CompareAndSwap(true, false) {
		close(f.entered)
		<-f.release
	}
}

// TestPipelinedDurableWritesShareFlush is the count-valued referee of the
// connection-held ack gate: one connection's pipeline of durable writes
// is a handful of log writes (fsyncs, under ModeAlways), not one apiece —
// and a depth-1 connection, which flushes after every request, still
// costs exactly one per write. How many writes a pipeline takes depends
// on how far the handler gets before the flusher wakes, so the bound is
// asked of the best of a few trials, and not at all of a race build
// (whose handler is slow enough for the flusher to keep up with it).
func TestPipelinedDurableWritesShareFlush(t *testing.T) {
	const depth, rounds, trials = 64, 8, 5
	for _, mode := range []wal.Mode{wal.ModeBatch, wal.ModeAlways} {
		t.Run(mode.String(), func(t *testing.T) {
			_, addr := startReplServer(t, Config{}, &Durability{Dir: t.TempDir(), Fsync: mode, CheckpointEvery: -1}, nil)
			cl := dialGate(t, addr)
			stat := "wal_writes"
			if mode == wal.ModeAlways {
				stat = "wal_fsyncs" // the flusher's own: ModeAlways has no background syncer
			}
			counters := func() (records, calls uint64) {
				st, err := cl.Stats()
				if err != nil {
					t.Fatal(err)
				}
				return st["wal_records"], st[stat]
			}
			reqs := gateSets(depth)
			doOK(t, cl, reqs...)

			best := float64(depth)
			for trial := 0; trial < trials && best > 4; trial++ {
				r0, c0 := counters()
				for i := 0; i < rounds; i++ {
					doOK(t, cl, reqs...)
				}
				r1, c1 := counters()
				if r1-r0 != depth*rounds {
					t.Fatalf("%d pipelines of %d SETs logged %d records", rounds, depth, r1-r0)
				}
				per := float64(c1-c0) / rounds
				t.Logf("%s per %d-deep pipeline: %.2f", stat, depth, per)
				best = min(best, per)
			}
			if best > 4 && !raceflag.Enabled {
				t.Errorf("%s per %d-deep pipeline = %.2f at best, want <= 4: the pipeline's acks did not share a group commit", stat, depth, best)
			}

			r1, c1 := counters()
			for _, r := range reqs {
				doOK(t, cl, r)
			}
			r2, c2 := counters()
			if r2-r1 != depth || c2-c1 != depth {
				t.Errorf("%d depth-1 SETs: %d records, %d %s; want %d of each", depth, r2-r1, c2-c1, stat, depth)
			}
		})
	}
}

// TestNoReplyBeforeDurable: with the flusher held after its write and
// before its acknowledgement, a pipeline whose handler has long moved on
// must not have put one byte on the socket — not at the flush, not when
// the staged replies overflow, not ahead of a WATCH takeover — and
// delivers every reply, in order, once the flusher is let go.
func TestNoReplyBeforeDurable(t *testing.T) {
	start := func(t *testing.T) (*Server, string, *flusherStall) {
		stall := newFlusherStall()
		srv, addr := startReplServer(t, Config{}, &Durability{Dir: t.TempDir(), Fsync: wal.ModeBatch, CheckpointEvery: -1, onDurableRecord: stall.hook}, nil)
		t.Cleanup(stall.free) // registered last, so run before the server's teardown
		return srv, addr, stall
	}
	big := bytes.Repeat([]byte("x"), 1024)

	t.Run("flush", func(t *testing.T) {
		srv, addr, stall := start(t)
		reqs := gateSets(8)
		reqs = append(reqs, gateGet(0))
		for i := 8; i < 16; i++ {
			reqs = append(reqs, gateSet(i))
		}
		stall.armed.Store(true)
		p := sendPipeline(t, addr, reqs...)
		<-stall.entered
		// The handler is not waiting on anything: the last write is in
		// memory while the first is still not acknowledged.
		waitCond(t, 10*time.Second, "the whole pipeline to execute", func() bool {
			return srv.Store().Execute(gateGet(15)).Status == wire.StatusOK
		})
		p.silent(100 * time.Millisecond)
		stall.free()
		for i, r := range reqs {
			if got := p.readResp(r.Op); got.Status != wire.StatusOK {
				t.Fatalf("reply %d (%v): %v %s", i, r.Op, got.Status, got.Msg)
			} else if r.Op == wire.OpGet && string(got.Val) != string(reqs[0].Val) {
				t.Fatalf("pipelined GET read %q, want its own connection's SET", got.Val)
			}
		}
	})

	t.Run("overflow", func(t *testing.T) {
		srv, addr, stall := start(t)
		execOK(t, srv.Store(), &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("big"), Val: big})
		var reqs []*wire.Request
		for i := 0; i < 4; i++ {
			reqs = append(reqs, gateSet(i))
			for j := 0; j < 3; j++ { // 12 KB of replies in all: three stageLimits
				reqs = append(reqs, &wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: []byte("big")})
			}
		}
		stall.armed.Store(true)
		p := sendPipeline(t, addr, reqs...)
		<-stall.entered
		p.silent(150 * time.Millisecond)
		stall.free()
		for i, r := range reqs {
			if got := p.readResp(r.Op); got.Status != wire.StatusOK || (r.Op == wire.OpGet && !bytes.Equal(got.Val, big)) {
				t.Fatalf("reply %d (%v): %v %s, %d value bytes", i, r.Op, got.Status, got.Msg, len(got.Val))
			}
		}
	})

	t.Run("watch-takeover", func(t *testing.T) {
		_, addr, stall := start(t)
		reqs := []*wire.Request{gateSet(0), gateSet(1), {Op: wire.OpWatch, Sem: wire.SemDefault, Key: []byte("gate-"), Prefix: true}}
		stall.armed.Store(true)
		p := sendPipeline(t, addr, reqs...)
		<-stall.entered
		p.silent(150 * time.Millisecond)
		stall.free()
		for i, r := range reqs {
			if got := p.readResp(r.Op); got.Status != wire.StatusOK {
				t.Fatalf("reply %d (%v): %v %s", i, r.Op, got.Status, got.Msg)
			}
		}
	})
}

// TestPipelinedWritesDeliverEventsBeforeAck: the notifier gate rides the
// flush like the log's. When a pipeline's replies arrive, a watcher on
// another connection has every one of its events buffered server-side,
// and reads them in commit order.
func TestPipelinedWritesDeliverEventsBeforeAck(t *testing.T) {
	const n = 32
	srv, addr := startReplServer(t, Config{}, &Durability{Dir: t.TempDir(), Fsync: wal.ModeBatch, CheckpointEvery: -1}, nil)
	w, err := client.Watch(addr, []byte("gate-"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cl := dialGate(t, addr)
	before := srv.Store().Sessions().EventsPushed()
	doOK(t, cl, gateSets(n)...)
	if got := srv.Store().Sessions().EventsPushed() - before; got != n {
		t.Fatalf("%d events buffered when the pipeline's replies arrived, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		select {
		case ev := <-w.Events():
			if string(ev.Key) != string(gateKey(i)) {
				t.Fatalf("event %d is for %q, want %q", i, ev.Key, gateKey(i))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("event %d of %d never arrived", i, n)
		}
	}
}

// TestPipelinedWritesFollowerAckedBeforeReply: under sync-ack
// replication the third gate rides the flush too — when a pipeline's
// FIRST reply arrives, the follower already holds its last write.
func TestPipelinedWritesFollowerAckedBeforeReply(t *testing.T) {
	const n = 32
	_, paddr := startReplServer(t, Config{},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1}, &ReplConfig{SyncAck: true})
	fsrv, _ := startReplServer(t, Config{},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1},
		&ReplConfig{Follow: paddr, Backoff: repl.Backoff{Min: 10 * time.Millisecond}})
	waitCond(t, 10*time.Second, "follower streaming", func() bool {
		fl := fsrv.Follower()
		return fl != nil && fl.State() == repl.StateStreaming
	})
	reqs := gateSets(n)
	p := sendPipeline(t, paddr, reqs...)
	if got := p.readResp(reqs[0].Op); got.Status != wire.StatusOK {
		t.Fatalf("first reply: %v %s", got.Status, got.Msg)
	}
	if got := fsrv.Store().Execute(gateGet(n - 1)); got.Status != wire.StatusOK {
		t.Fatalf("the pipeline's first reply arrived before the follower had its last write (%v)", got.Status)
	}
	for _, r := range reqs[1:] {
		if got := p.readResp(r.Op); got.Status != wire.StatusOK {
			t.Fatalf("reply: %v %s", got.Status, got.Msg)
		}
	}
}

// TestMergeRetiresShardUnderOpenGate: a connection's gates are waited
// outside the reshard grace period, so a MERGE can retire a shard — and
// close its log — while a gate on it is still open. Close flushes what
// was committed. The primary's sync-ack hub, with a follower connected
// that acks shard 0 only, holds the gate on shard 1 until the merge drops
// that shard's id from the hub's table: the gate then closes with the
// write's own verdict.
func TestMergeRetiresShardUnderOpenGate(t *testing.T) {
	srv, addr := startReplServer(t, Config{StoreShards: 2},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeBatch, CheckpointEvery: -1}, &ReplConfig{SyncAck: true})
	st := srv.Store()
	ackShard0(t, addr)
	waitCond(t, 5*time.Second, "the follower's feed", func() bool {
		for _, c := range srv.Hub().Counters() {
			if c.Name == "repl_followers" {
				return c.Value == 1
			}
		}
		return false
	})
	key := tkey(0)
	for i := 1; st.shardIdx(key) != 1; i++ {
		key = tkey(i)
	}
	g := &connGate{Context: context.Background()}
	var resp wire.Response
	st.ExecuteCtx(g, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: key, Val: []byte("v")}, &resp)
	if resp.Status != wire.StatusOK || len(g.open) != 1 || g.open[0].sh.idx != 1 {
		t.Fatalf("SET on shard 1 through a connection's context: %v %s, %d open gates", resp.Status, resp.Msg, len(g.open))
	}
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := g.open[0].close(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("gate before the merge: %v; want it waiting for a follower ack", err)
	}
	if _, err := st.Merge(context.Background(), 0, 0, 1); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.open[0].close(ctx); err != nil {
		t.Fatalf("gate on the retired shard: %v", err)
	}
	if got := execOK(t, st, &wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: key}); string(got.Val) != "v" {
		t.Fatalf("after the merge the key reads %q", got.Val)
	}
}

// ackShard0 subscribes to the primary at addr as a follower that answers
// every batch and ping with an ACK of shard 0's live tail and never acks
// another shard, so a sync-ack wait on shard 1 blocks while its feed
// lives.
func ackShard0(t *testing.T, addr string) {
	l, _, err := repl.Dial(context.Background(), addr, &wire.Request{Op: wire.OpSubscribeWAL, Sem: wire.SemDefault})
	if err != nil {
		t.Fatal(err)
	}
	hello, err := wire.AppendReplFrame(nil, &wire.ReplFrame{Kind: wire.ReplHello})
	if err == nil {
		err = l.Write(hello)
	}
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	go func() {
		defer close(done)
		var in wire.ReplFrame
		var out []byte
		var seq uint64
		l.Recv(func(payload []byte) error {
			if err := wire.DecodeReplFrame(&in, payload); err != nil {
				return err
			}
			if in.Kind == wire.ReplWALBatch && in.Shard == 0 {
				for _, r := range in.Recs {
					seq = max(seq, r.Seq)
				}
			}
			if in.Kind != wire.ReplWALBatch && in.Kind != wire.ReplPing {
				return nil
			}
			var err error
			if out, err = wire.AppendReplFrame(out[:0], &wire.ReplFrame{Kind: wire.ReplAck, Acks: []wire.ReplAckEntry{{Shard: 0, Seq: seq}}}); err != nil {
				return err
			}
			return l.Write(out)
		})
	}()
}

// TestConnectionBuffersReturnToSize: a connection's reusable buffers are
// kept at their high-water size only up to keepBuf. After one near-1 MB
// value went through each of a few connections — in as a SET's payload,
// out as a GET's reply — and small requests followed, the idle
// connections must not still be holding megabytes apiece.
func TestConnectionBuffersReturnToSize(t *testing.T) {
	const conns, size = 8, 1 << 20
	_, addr := startReplServer(t, Config{}, nil, nil)
	cls := make([]*client.Client, conns)
	for i := range cls {
		cls[i] = dialGate(t, addr)
		doOK(t, cls[i], gateSet(i))
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle empties the sync.Pools the first one aged
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i, cl := range cls {
		bigSet := &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: gateKey(i), Val: make([]byte, size)}
		if got := doOK(t, cl, bigSet, gateGet(i))[1]; len(got.Val) != size {
			t.Fatalf("connection %d read back %d bytes", i, len(got.Val))
		}
		for j := 0; j < 3; j++ { // the engine keeps a superseded version or two
			doOK(t, cl, gateSet(i), gateGet(i))
		}
	}
	after := heap()
	if grown := int64(after) - int64(before); grown > conns*size/2 {
		t.Fatalf("%d idle connections hold %d KB more than before their one large value (%d KB each); want under %d KB",
			conns, grown>>10, grown>>10/conns, conns*size/2>>10)
	}
}
