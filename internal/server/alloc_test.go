package server_test

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"polytm/internal/core"
	"polytm/internal/raceflag"
	"polytm/internal/server"
	"polytm/internal/server/client"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// TestRoundTripAllocs holds one request's whole round trip — client
// encode, both sockets, server decode, the transaction, server encode,
// client decode — to an allocation budget, over a real loopback server.
// AllocsPerRun counts every malloc in the process, so the server's
// handler goroutine is inside the figure. These are the "after" numbers
// of README's "Where the allocations go" table: a change that gives one
// back fails here, not in a benchmark someone has to remember to run.
//
// Every row is what outlives the request and nothing else. GET is the
// one object client.Do hands its caller (slice, Response and frame in
// one), and so is an MGET or TXN of up to four sub-requests, whose
// decoded Batch lives in that object too — on one shard or across two,
// since a cross-shard MGET's shares run in turn on the handler's
// goroutine. A committed write adds ONE allocation — the version record
// that is also the value and the value's bytes (core.SetBytes) — so SET
// is 2 and TXN4, with two writes, is 3. TXN5 is past the inline four and
// keeps the older shape: its Batch and its sub-opcode scratch are
// objects of their own. SCAN16 is one object too, its pairs and frame
// inline (the client picks the tier once it has read the frame's
// length); on four shards it adds what the concurrent walk costs: one
// fan of shared state, one arena for every share's results, a goroutine
// closure per shard. Each row also logs the bytes a round trip allocates
// (README states what the inline Batch costs an MGET2 in unused slots),
// and a row with a byte budget is held to it: a write's ack sits in the
// 176-byte tier, not the 320-byte one (a SET round trip is 224 B). A
// durable row's 500 round trips may also hold one of the log's 64 KB
// chunks, 131 B a round trip, so its budget only tells the tiers apart.
// The durable rows (fsync off, so the disk adds no noise) and the
// cross-shard TXN are the write paths of the kv-durable-write and
// txn-zipf-2pc workloads: the log's queue copies records into shared
// chunks (TestReserveAllocs) and the dirty sets keep the map's own key
// (TestDirtySetMarkAllocs), so logging costs these rows nothing — the
// 2PC protocol's four control records included.
func TestRoundTripAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts; budgets are asserted in the non-race CI step")
	}
	const keys = 256
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	val := []byte("0123456789abcdef0123456789abcdef")
	// shardOf mirrors the store's routing on a never-resharded table:
	// FNV-1a of the key, modulo the shard count.
	shardOf := func(k []byte, n int) int {
		h := fnv.New64a()
		h.Write(k)
		return int(h.Sum64() % uint64(n))
	}

	for _, tc := range []struct {
		shards  int
		durable bool
	}{{1, false}, {4, false}, {1, true}, {4, true}} {
		shards := tc.shards
		t.Run(fmt.Sprintf("shards=%d/durable=%v", shards, tc.durable), func(t *testing.T) {
			srv, addr := startServer(t, server.Config{StoreShards: shards})
			if tc.durable {
				if _, err := srv.Store().EnableDurability(server.Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Store().CloseDurability() })
			}
			cl := dialTest(t, addr, client.WithPoolSize(1))
			for i := 0; i < keys; i++ {
				if err := cl.Set(key(i), val); err != nil {
					t.Fatal(err)
				}
			}
			// near shares key(0)'s shard, far does not (on one shard
			// every key is near).
			near, far := key(1), key(1)
			for i := keys - 1; i > 0; i-- {
				if shardOf(key(i), shards) == shardOf(key(0), shards) {
					near = key(i)
				} else {
					far = key(i)
				}
			}

			get := &wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: key(0)}
			scan := &wire.Request{Op: wire.OpScan, Sem: wire.SemDefault, From: key(16), Limit: 16}
			set := &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: key(0), Val: val}
			mget := &wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: [][]byte{key(0), near}}
			mgetX := &wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: [][]byte{key(0), far}}
			txn := &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
				{Op: wire.OpGet, Key: key(0)}, {Op: wire.OpGet, Key: near},
				{Op: wire.OpSet, Key: key(0), Val: val}, {Op: wire.OpSet, Key: near, Val: val},
			}}
			txnX := &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
				{Op: wire.OpGet, Key: key(0)}, {Op: wire.OpGet, Key: far},
				{Op: wire.OpSet, Key: key(0), Val: val}, {Op: wire.OpSet, Key: far, Val: val},
			}}
			txn5 := &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: append(append([]wire.Request(nil), txn.Batch...),
				wire.Request{Op: wire.OpGet, Key: key(0)})}
			incr := &wire.Request{Op: wire.OpIncr, Sem: wire.SemDefault, Key: []byte("counter"), Delta: 1}
			type row struct {
				name     string
				req      *wire.Request
				budget   float64
				on       int     // shard count the case runs on (0 = both)
				maxBytes float64 // bytes per round trip (0 = logged only)
			}
			cases := []row{
				{"GET", get, 1, 0, 0},
				{"SCAN16", scan, 1, 1, 0},
				{"SCAN16", scan, 7, 4, 0},
				{"SET-overwrite", set, 2, 0, 232},
				{"MGET2", mget, 1, 0, 0},
				{"MGET2-cross-shard", mgetX, 1, 4, 0},
				{"TXN4", txn, 3, 0, 0},
				// A cross-shard TXN costs what a one-shard TXN costs: the
				// participants nest on the caller's stack, and so does
				// everything the commit path groups them with.
				{"TXN4-cross-shard", txnX, 3, 4, 0},
				{"TXN5", txn5, 5, 0, 0},
			}
			if tc.durable {
				cases = []row{
					{"durable-SET-overwrite", set, 2, 1, 383},
					{"durable-INCR", incr, 2, 1, 383},
					{"durable-TXN4-cross-shard", txnX, 3, 4, 0},
				}
			}
			for _, c := range cases {
				if c.on != 0 && c.on != shards {
					continue
				}
				do := func() {
					rs, err := cl.Do(c.req)
					if err != nil || rs[0].Status != wire.StatusOK {
						t.Fatalf("%s: %v %+v", c.name, err, rs)
					}
				}
				for i := 0; i < 64; i++ { // pools, buffers and read sets reach steady state
					do()
				}
				avg := testing.AllocsPerRun(500, do)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 500; i++ {
					do()
				}
				runtime.ReadMemStats(&after)
				bytes := float64(after.TotalAlloc-before.TotalAlloc) / 500
				if avg > c.budget {
					t.Errorf("%s: %.2f allocs per round trip, budget %.0f", c.name, avg, c.budget)
				} else if c.maxBytes > 0 && bytes > c.maxBytes {
					t.Errorf("%s: %.0f B per round trip, budget %.0f", c.name, bytes, c.maxBytes)
				} else {
					t.Logf("%s: %.2f allocs, %.0f B per round trip (budget %.0f allocs)", c.name, avg, bytes, c.budget)
				}
			}
		})
	}
}

// TestPipelinedBatchAllocs pins the client side of a pipelined batch:
// its frames are bumped off shared chunks of at most 4 KB, so 64
// pipelined GETs (which cost the server nothing) are the result slice,
// the Responses and one chunk — not a payload apiece — and 64 pipelined
// MGET2 add one arena for all 128 sub-responses (and a second chunk for
// their longer frames), not a Batch apiece. The durable row is
// the same batch of SETs against a log (fsync off, so the disk adds no
// noise): a version record apiece on top of the client's three, and
// nothing for the gates the connection holds until its flush — their
// storage is the connection's, reused.
func TestPipelinedBatchAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts; budgets are asserted in the non-race CI step")
	}
	val := []byte("0123456789abcdef0123456789abcdef")
	for _, tc := range []struct {
		name    string
		op      wire.Op
		durable bool
		budget  float64
	}{{"GETs", wire.OpGet, false, 3}, {"MGET2s", wire.OpMGet, false, 5}, {"durable-SETs", wire.OpSet, true, 67}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, server.Config{})
			if tc.durable {
				if _, err := srv.Store().EnableDurability(server.Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Store().CloseDurability() })
			}
			cl := dialTest(t, addr, client.WithPoolSize(1))
			reqs := make([]*wire.Request, 64)
			for i := range reqs {
				key := []byte(fmt.Sprintf("key-%05d", i))
				if err := cl.Set(key, val); err != nil {
					t.Fatal(err)
				}
				reqs[i] = &wire.Request{Op: tc.op, Sem: wire.SemDefault, Key: key}
				switch tc.op {
				case wire.OpSet:
					reqs[i].Val = val
				case wire.OpMGet:
					reqs[i] = &wire.Request{Op: tc.op, Sem: wire.SemDefault, Keys: [][]byte{key, []byte("key-00000")}}
				}
			}
			do := func() {
				rs, err := cl.Do(reqs...)
				if err != nil || len(rs) != len(reqs) || rs[len(rs)-1].Status != wire.StatusOK {
					t.Fatalf("pipelined %s: %v, %d responses", tc.name, err, len(rs))
				}
				switch last := rs[len(rs)-1]; {
				case tc.op == wire.OpGet && string(last.Val) != string(val):
					t.Fatalf("pipelined GET read %q", last.Val)
				case tc.op == wire.OpMGet && (len(last.Batch) != 2 || string(last.Batch[1].Val) != string(val)):
					t.Fatalf("pipelined MGET read %+v", last.Batch)
				}
			}
			for i := 0; i < 16; i++ {
				do()
			}
			if avg := testing.AllocsPerRun(100, do); avg > tc.budget {
				t.Errorf("%d pipelined %s: %.2f allocs per batch, budget %.0f", len(reqs), tc.name, avg, tc.budget)
			} else {
				t.Logf("%d pipelined %s: %.2f allocs per batch (budget %.0f)", len(reqs), tc.name, avg, tc.budget)
			}
		})
	}
}

// TestPipelinedResponsesSurviveReuse: the responses of a pipelined batch
// alias the chunks their frames were read into, so those chunks must be
// the batch's own. Values of every size class — inline in a chunk,
// straddling a chunk boundary, too big to share one — are read back in
// one batch and must still be whole after the same connection has
// carried further batches, and after a caller has appended to one of
// them: a frame's slices are capped at the frame.
func TestPipelinedResponsesSurviveReuse(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	cl := dialTest(t, addr, client.WithPoolSize(1))
	sizes := []int{0, 1, 40, 700, 700, 700, 700, 700, 700, 2000, 3, 5000, 900, 900, 900, 900, 900, 12}
	want := make([][]byte, len(sizes))
	reqs := make([]*wire.Request, len(sizes))
	for i, n := range sizes {
		key := []byte(fmt.Sprintf("reuse-%02d", i))
		want[i] = make([]byte, n)
		for j := range want[i] {
			want[i][j] = byte('a' + i)
		}
		if err := cl.Set(key, want[i]); err != nil {
			t.Fatal(err)
		}
		reqs[i] = &wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: key}
	}
	first, err := cl.Do(reqs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		_ = append(first[i].Val, "overrun"...)
	}
	for round := 0; round < 3; round++ {
		for i := range sizes {
			for j := range want[i] {
				want[i][j] = '#' // the server's copies change, the first batch must not
			}
			if err := cl.Set(reqs[i].Key, want[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cl.Do(reqs...); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range sizes {
		got := first[i].Val
		if first[i].Status != wire.StatusOK || len(got) != n {
			t.Fatalf("response %d: status %v, %d bytes, want %d", i, first[i].Status, len(got), n)
		}
		for j := range got {
			if got[j] != byte('a'+i) {
				t.Fatalf("response %d (%d bytes) changed at byte %d after its connection was reused: %q", i, n, j, got[j])
			}
		}
	}
}

// TestStoreFootprint is what a key costs at the store: live heap bytes
// and objects per key once 100k 16-byte keys with 64-byte values have
// been SET through Store.ExecuteInto on one volatile shard. On top of
// the skip map's own cost (structures' TestSkipMapFootprint) it counts
// what a SET adds per key: the value's bytes cell (PutBytesTx), 80 B
// for a 64-byte value: the record's 16-byte header and the bytes. The
// key's bytes ride in its node, as in the map alone. Tower heights are
// random, so a run moves by about a byte.
func TestStoreFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation changes object sizes; the footprint is asserted in the non-race CI step")
	}
	const n = 100_000
	// Two collections before each reading: the second frees what a
	// sync.Pool kept for one more cycle (see TestWalkFootprint).
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := server.NewStore(core.NewDefault())
	req := wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Val: make([]byte, 64)}
	var resp wire.Response
	for i := 0; i < n; i++ {
		req.Key = fmt.Appendf(req.Key[:0], "key-%012d", i)
		st.ExecuteInto(&req, &resp)
		if resp.Status != wire.StatusOK {
			t.Fatalf("SET %s: %v %s", req.Key, resp.Status, resp.Msg)
		}
	}
	req, resp = wire.Request{}, wire.Response{}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytesPerKey := float64(after.HeapAlloc-before.HeapAlloc) / n
	objsPerKey := float64(after.HeapObjects-before.HeapObjects) / n
	t.Logf("%d SETs of 16-byte keys and 64-byte values: %.1f B/key in %.2f objects/key", n, bytesPerKey, objsPerKey)
	if bytesPerKey > 185 {
		t.Errorf("%.1f B/key, want <= 185", bytesPerKey)
	}
	if objsPerKey > 3.4 {
		t.Errorf("%.2f objects/key, want <= 3.4", objsPerKey)
	}
	runtime.KeepAlive(st)
}
