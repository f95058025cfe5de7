package server_test

import (
	"fmt"
	"hash/fnv"
	"testing"

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
// GET, SCAN and SET are the per-site arithmetic of that table; the MGET
// and TXN budgets are what the same change measured. A committed write
// is ONE allocation in the engine — the typed version cell that is both
// the record and the value (core.Set) — so SET is the value's string
// copy plus that cell over GET's two, and TXN4 pays it twice. The durable rows
// (fsync off, so the disk adds no noise) and the cross-shard TXN are the
// write paths of the kv-durable-write and txn-zipf-2pc workloads: every
// captured mutation and every 2PC participant goes through them, and
// the durable 4-shard case adds the protocol's own records.
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
			incr := &wire.Request{Op: wire.OpIncr, Sem: wire.SemDefault, Key: []byte("counter"), Delta: 1}
			type row struct {
				name   string
				req    *wire.Request
				budget float64
				on     int // shard count the case runs on (0 = both)
			}
			cases := []row{
				{"GET", get, 2, 0},
				{"SCAN16", scan, 3, 1},
				{"SET-overwrite", set, 4, 0},
				{"MGET2", mget, 3, 0},
				{"MGET2-cross-shard", mgetX, 5, 4},
				{"TXN4", txn, 7, 0},
				// A cross-shard TXN costs what a one-shard TXN costs: the
				// participants nest on the caller's stack, and so does
				// everything the commit path groups them with.
				{"TXN4-cross-shard", txnX, 7, 4},
			}
			if tc.durable {
				cases = []row{
					{"durable-SET-overwrite", set, 5, 1},
					{"durable-INCR", incr, 4, 1},
					// 50 on the parent of the nested commit. What is left over
					// the volatile 7 is the logs' own copies of the records
					// (2 PREPARE, DECISION, COMMIT mark); re-marking the two
					// keys in the dirty sets costs nothing
					// (TestDirtySetMarkAllocs).
					{"durable-TXN4-cross-shard", txnX, 11, 4},
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
				if avg := testing.AllocsPerRun(500, do); avg > c.budget {
					t.Errorf("%s: %.2f allocs per round trip, budget %.0f", c.name, avg, c.budget)
				} else {
					t.Logf("%s: %.2f allocs per round trip (budget %.0f)", c.name, avg, c.budget)
				}
			}
		})
	}
}
