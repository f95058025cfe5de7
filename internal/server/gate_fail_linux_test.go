package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"

	"polytm/internal/wal"
	"polytm/internal/wire"
)

// poisonLog makes every further write to sh's open segment fail, the
// way wal's TestBackgroundFsyncErrorPoisons swaps the file for one that
// refuses: the segment's descriptor is replaced, in place, by a read-only
// one. The first record the flusher then writes poisons the log.
func poisonLog(t *testing.T, st *Store, sh *shard) {
	t.Helper()
	seg := filepath.Join(st.walDir, sh.walName, fmt.Sprintf("wal-%08d.log", sh.wal.Segment()))
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to find the segment's descriptor in: %v", err)
	}
	ro, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	for _, e := range fds {
		if path, _ := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); path == seg {
			fd, _ := strconv.Atoi(e.Name())
			if err := syscall.Dup3(int(ro.Fd()), fd, 0); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("segment %s is not open", seg)
}

// TestPipelinedAckGateFailure: a gate that fails to close costs its own
// request its OK and nothing else. One shard's log is poisoned; a
// pipeline writing to both shards, with reads in between, gets one reply
// per request — the typed error an inline wait would have produced for
// each write on the poisoned shard, the staged reply unchanged for
// everything else — and the connection goes on serving.
func TestPipelinedAckGateFailure(t *testing.T) {
	srv, addr := startReplServer(t, Config{StoreShards: 2}, &Durability{Dir: t.TempDir(), Fsync: wal.ModeBatch, CheckpointEvery: -1}, nil)
	st := srv.Store()
	cl := dialGate(t, addr)
	doOK(t, cl, gateSet(0))
	poisonLog(t, st, st.tab().shards[1])

	var reqs []*wire.Request
	for i := 1; i <= 16; i++ {
		reqs = append(reqs, gateSet(i))
		if i%4 == 0 {
			reqs = append(reqs, gateGet(0))
		}
	}
	rs, err := cl.Do(reqs...)
	if err != nil || len(rs) != len(reqs) {
		t.Fatalf("pipeline of %d over a poisoned shard: %d replies, %v", len(reqs), len(rs), err)
	}
	failed, msg := 0, ""
	for i, r := range reqs {
		switch {
		case r.Op == wire.OpGet:
			if rs[i].Status != wire.StatusOK || string(rs[i].Val) != string(gateSet(0).Val) {
				t.Errorf("reply %d: a read came back %v %q", i, rs[i].Status, rs[i].Val)
			}
		case st.shardIdx(r.Key) == 0:
			if rs[i].Status != wire.StatusOK {
				t.Errorf("reply %d: a write to the healthy shard came back %v %s", i, rs[i].Status, rs[i].Msg)
			}
		default:
			failed++
			if rs[i].Status != wire.StatusErr || (msg != "" && rs[i].Msg != msg) {
				t.Errorf("reply %d: a write to the poisoned shard came back %v %q (others: %q)", i, rs[i].Status, rs[i].Msg, msg)
			}
			msg = rs[i].Msg
		}
	}
	if failed == 0 {
		t.Fatal("no key of the pipeline routed to the poisoned shard")
	}

	// The same connection (the pool holds one) still answers, and a
	// depth-1 write to the poisoned shard gets the pipeline's error.
	stats, err := cl.Stats()
	if err != nil || stats["store_shards"] != 2 {
		t.Fatalf("STATS after the failed gates: %v, %v", stats["store_shards"], err)
	}
	for i := 1; ; i++ {
		if st.shardIdx(gateKey(i)) == 1 {
			if rs, err := cl.Do(gateSet(i)); err != nil || rs[0].Status != wire.StatusErr || rs[0].Msg != msg {
				t.Fatalf("inline write to the poisoned shard: %v %+v, pipelined: %q", err, rs, msg)
			}
			break
		}
	}
}

// TestErrorReplyIsScrubbed: an error reply is its message and nothing
// else, wherever the error became a reply. A Response (and a connection)
// that last carried a 16-pair SCAN and a 4-slot TXN is handed requests
// that fail before, inside and — on the pipelined connection, whose ack
// gate fails after the OK reply was staged — after their handler filled
// it in.
func TestErrorReplyIsScrubbed(t *testing.T) {
	srv, addr := startReplServer(t, Config{StoreShards: 2}, &Durability{Dir: t.TempDir(), Fsync: wal.ModeBatch, CheckpointEvery: -1}, nil)
	st := srv.Store()
	cl := dialGate(t, addr)
	doOK(t, cl, gateSets(16)...)
	var on1 [][]byte // keys of the shard whose log gets poisoned
	for i := 0; len(on1) < 2; i++ {
		if st.shardIdx(gateKey(i)) == 1 {
			on1 = append(on1, gateKey(i))
		}
	}
	scan := &wire.Request{Op: wire.OpScan, Sem: wire.SemDefault, Limit: 16}
	txn := &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
		{Op: wire.OpGet, Key: on1[0]}, {Op: wire.OpGet, Key: on1[1]},
		{Op: wire.OpSet, Key: on1[0], Val: []byte("x")}, {Op: wire.OpSet, Key: on1[1], Val: []byte("y")},
	}}
	scrubbed := func(t *testing.T, what string, r *wire.Response) {
		t.Helper()
		if r.Status != wire.StatusErr || r.Msg == "" {
			t.Fatalf("%s: answered %v %q, want an error", what, r.Status, r.Msg)
		}
		if len(r.Val)+len(r.Pairs)+len(r.Batch)+len(r.Counters) != 0 || r.N != 0 || r.Int != 0 {
			t.Errorf("%s: the error reply still carries %+v", what, r)
		}
	}

	t.Run("ExecuteInto", func(t *testing.T) {
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		resp := new(wire.Response)
		for _, tc := range []struct {
			name string
			ctx  context.Context
			req  *wire.Request
		}{
			// Refused by the dispatcher, by the handler's own check, and by
			// the engine after MGET had laid out its four slots.
			{"TXN bad sub-op", context.Background(), &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{{Op: wire.OpGet, Key: on1[0]}, {Op: wire.OpScan}}}},
			{"INCR overflow", context.Background(), &wire.Request{Op: wire.OpIncr, Sem: wire.SemDefault, Key: on1[0], Delta: 1 << 63}},
			{"MGET cancelled", cancelled, &wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: [][]byte{on1[0], on1[1], gateKey(0), gateKey(1)}}},
		} {
			if st.ExecuteInto(scan, resp); len(resp.Pairs) != 16 {
				t.Fatalf("SCAN 16 answered %d pairs", len(resp.Pairs))
			}
			if st.ExecuteInto(txn, resp); len(resp.Batch) != 4 {
				t.Fatalf("TXN4 answered %d slots", len(resp.Batch))
			}
			st.ExecuteCtx(tc.ctx, tc.req, resp)
			scrubbed(t, tc.name, resp)
		}
	})

	t.Run("restage", func(t *testing.T) {
		poisonLog(t, st, st.tab().shards[1])
		incr := &wire.Request{Op: wire.OpIncr, Sem: wire.SemDefault, Key: []byte("ctr-" + string(on1[0])), Delta: 1}
		for st.shardIdx(incr.Key) != 1 {
			incr.Key = append(incr.Key, '+')
		}
		rs, err := cl.Do(scan, txn, incr, gateGet(0))
		if err != nil || len(rs) != 4 {
			t.Fatalf("pipeline over a poisoned shard: %d replies, %v", len(rs), err)
		}
		if rs[0].Status != wire.StatusOK || len(rs[0].Pairs) != 16 || rs[3].Status != wire.StatusOK {
			t.Fatalf("the reads around the failed gates came back %v (%d pairs) and %v", rs[0].Status, len(rs[0].Pairs), rs[3].Status)
		}
		scrubbed(t, "TXN4 whose gate failed", rs[1])
		scrubbed(t, "INCR behind it", rs[2])
	})
}
