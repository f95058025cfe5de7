package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"polytm/internal/core"
	"polytm/internal/stm"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// rmManifest strips a directory's MANIFEST, recreating the layout
// earlier releases wrote.
func rmManifest(t *testing.T, dir string) {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
}

// pinnedShards reports the shard count dir's MANIFEST pins.
func pinnedShards(t *testing.T, dir string) int {
	t.Helper()
	m, err := openManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("MANIFEST of %s: %+v, %v", dir, m, err)
	}
	return len(m.Shards)
}

// shardIdx returns the table position owning key under the current
// table (request paths snapshot a table first).
func (s *Store) shardIdx(key []byte) int { return s.tab().pos(hashKey(key)) }

// newSharded builds an n-shard in-memory store.
func newSharded(n int) *Store {
	tms := make([]*core.TM, n)
	for i := range tms {
		tms[i] = core.NewDefault()
	}
	return NewShardedStore(tms)
}

// newShardedDurable builds an n-shard durable store on dir.
func newShardedDurable(t *testing.T, dir string, n int, mode wal.Mode) (*Store, *RecoverSummary) {
	t.Helper()
	st := newSharded(n)
	res, err := st.EnableDurability(Durability{Dir: dir, Fsync: mode, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	return st, res
}

// key returns a test key; the i-space spreads over all shards.
func tkey(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }

// TestShardRoutingDeterministic: the same key always lands on the same
// shard, and a realistic key population touches every shard.
func TestShardRoutingDeterministic(t *testing.T) {
	st := newSharded(4)
	seen := make(map[int]bool)
	for i := 0; i < 256; i++ {
		a := st.shardIdx(tkey(i))
		b := st.shardIdx(tkey(i))
		if a != b {
			t.Fatalf("key %d routed to %d then %d", i, a, b)
		}
		if a < 0 || a >= 4 {
			t.Fatalf("key %d routed out of range: %d", i, a)
		}
		seen[a] = true
	}
	if len(seen) != 4 {
		t.Fatalf("256 keys hit only shards %v", seen)
	}
}

// TestShardedBasicOps: point ops, MGET and SCAN behave identically to
// a single-shard store, including cross-shard merge order and limits.
func TestShardedBasicOps(t *testing.T) {
	st := newSharded(4)
	const n = 100
	for i := 0; i < n; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	// Point reads route back to the writer's shard.
	for i := 0; i < n; i++ {
		resp := execOK(t, st, &wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: tkey(i)})
		if resp.Status != wire.StatusOK || string(resp.Val) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d: %v %q", i, resp.Status, resp.Val)
		}
	}
	// MGET fans out and keeps slot order, hits and misses interleaved.
	keys := [][]byte{tkey(3), []byte("missing"), tkey(97), tkey(41)}
	resp := execOK(t, st, &wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: keys})
	if len(resp.Batch) != 4 {
		t.Fatalf("mget batch = %d", len(resp.Batch))
	}
	if string(resp.Batch[0].Val) != "v3" || resp.Batch[1].Status != wire.StatusNotFound ||
		string(resp.Batch[2].Val) != "v97" || string(resp.Batch[3].Val) != "v41" {
		t.Fatalf("mget = %+v", resp.Batch)
	}
	// SCAN merges the per-shard slices back into global key order.
	resp = execOK(t, st, &wire.Request{Op: wire.OpScan, Sem: wire.SemDefault})
	if len(resp.Pairs) != n {
		t.Fatalf("scan returned %d pairs, want %d", len(resp.Pairs), n)
	}
	for i := 1; i < len(resp.Pairs); i++ {
		if string(resp.Pairs[i-1].Key) >= string(resp.Pairs[i].Key) {
			t.Fatalf("scan out of order at %d: %q >= %q", i, resp.Pairs[i-1].Key, resp.Pairs[i].Key)
		}
	}
	// Bounded scan honours the limit across shards.
	resp = execOK(t, st, &wire.Request{Op: wire.OpScan, Sem: wire.SemDefault, Limit: 7})
	if len(resp.Pairs) != 7 || string(resp.Pairs[0].Key) != "key-0000" {
		t.Fatalf("limited scan = %d pairs, first %q", len(resp.Pairs), resp.Pairs[0].Key)
	}
	// DEL routes too.
	execOK(t, st, &wire.Request{Op: wire.OpDel, Sem: wire.SemDefault, Key: tkey(0)})
	resp = execOK(t, st, &wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: tkey(0)})
	if resp.Status != wire.StatusNotFound {
		t.Fatalf("deleted key still %v", resp.Status)
	}
}

// TestCrossShardTxn: a TXN spanning shards is all-or-nothing and its
// sub-responses land in order; FLUSH clears every shard atomically.
func TestCrossShardTxn(t *testing.T) {
	st := newSharded(4)
	// Find two keys on different shards.
	a, b := tkey(0), []byte(nil)
	for i := 1; b == nil; i++ {
		if st.shardIdx(tkey(i)) != st.shardIdx(a) {
			b = tkey(i)
		}
	}
	resp := execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
		{Op: wire.OpSet, Key: a, Val: []byte("va")},
		{Op: wire.OpSet, Key: b, Val: []byte("vb")},
		{Op: wire.OpGet, Key: a},
	}})
	if len(resp.Batch) != 3 || string(resp.Batch[2].Val) != "va" {
		t.Fatalf("txn batch = %+v", resp.Batch)
	}
	if got := scanAll(t, st); len(got) != 2 || got[string(a)] != "va" || got[string(b)] != "vb" {
		t.Fatalf("state = %v", got)
	}
	if st.xshardTxns.Load() == 0 {
		t.Fatal("cross-shard txn did not use the cross-shard path")
	}
	// Cross-shard CAS inside a TXN: the mismatch arm reports per-slot.
	resp = execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
		{Op: wire.OpCAS, Key: a, Old: []byte("wrong"), Val: []byte("x")},
		{Op: wire.OpCAS, Key: b, Old: []byte("vb"), Val: []byte("vb2")},
	}})
	if resp.Batch[0].Status != wire.StatusCASMismatch || resp.Batch[1].Status != wire.StatusOK {
		t.Fatalf("cas txn = %+v", resp.Batch)
	}
	// FLUSH crosses all shards and sums the evictions.
	resp = execOK(t, st, &wire.Request{Op: wire.OpFlush, Sem: wire.SemDefault})
	if resp.N != 2 {
		t.Fatalf("flush N = %d, want 2", resp.N)
	}
	if got := scanAll(t, st); len(got) != 0 {
		t.Fatalf("state after flush = %v", got)
	}
}

// TestCrossShardTxnConcurrent: many goroutines hammer cross-shard TXNs
// on a durable 9-shard store (more shards than any inline array the
// commit path uses) while everything else that wants the same tokens
// runs beside them. Pair p's two keys live on shards p and p+1 — the
// last pair wraps round to shard 0 — so neighbouring pairs share a
// shard, the shard sets form a ring, and each pair is written with its
// keys in either order: only taking tokens in shard order keeps the
// ring from closing into a deadlock. A pair's keys move in lockstep, so
// a torn commit shows up as a mismatched pair. Single-shard writers keep
// every shard's token busy, and half-way through one FLUSH takes all
// nine at once. Run with -race and a short -timeout in CI: a hang is
// the failure mode.
func TestCrossShardTxnConcurrent(t *testing.T) {
	const shards, per = 9, 25
	st, _ := newShardedDurable(t, t.TempDir(), shards, wal.ModeOff)
	defer st.CloseDurability()
	var wg sync.WaitGroup
	for p := 0; p < shards; p++ {
		a, b := keyOn(st, p, 0), keyOn(st, (p+1)%shards, 1)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(p, w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if p == 0 && w == 0 && i == per/2 {
						execOK(t, st, &wire.Request{Op: wire.OpFlush, Sem: wire.SemDefault})
					}
					v := []byte(fmt.Sprintf("%d-%d-%d", p, w, i))
					k1, k2 := a, b
					if (i+w)%2 == 1 {
						k1, k2 = b, a
					}
					execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
						{Op: wire.OpSet, Key: k1, Val: v},
						{Op: wire.OpSet, Key: k2, Val: v},
					}})
					// Reading both through a cross-shard TXN of GETs serializes
					// against the writers above (and the FLUSH), so the pair
					// must match: the same value, or both gone.
					resp := execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
						{Op: wire.OpGet, Key: k2},
						{Op: wire.OpGet, Key: k1},
					}})
					if g1, g2 := resp.Batch[0], resp.Batch[1]; g1.Status != g2.Status || string(g1.Val) != string(g2.Val) {
						t.Errorf("torn pair %d: %v %q vs %v %q", p, g1.Status, g1.Val, g2.Status, g2.Val)
						return
					}
				}
			}(p, w)
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			k := keyOn(st, p, 2)
			for i := 0; i < per; i++ {
				execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: k, Val: []byte("solo")})
			}
		}(p)
	}
	wg.Wait()
}

// keyOn returns the nth test key owned by table position p.
func keyOn(st *Store, p, nth int) []byte {
	for i := 0; ; i++ {
		if st.shardIdx(tkey(i)) == p {
			if nth == 0 {
				return tkey(i)
			}
			nth--
		}
	}
}

// TestCrossShardMGet pins what a cross-shard MGET answers now that its
// shares run one after another on the caller: every key's slot, whatever
// shard read it and in whatever order the shards were visited.
func TestCrossShardMGet(t *testing.T) {
	ctx := context.Background()
	st := newSharded(4)
	for p := 0; p < 4; p++ {
		for nth := 0; nth < 12; nth++ {
			k := keyOn(st, p, nth)
			execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: k, Val: append([]byte("v-"), k...)})
		}
	}
	miss := func(p int) []byte { return keyOn(st, p, 12) } // owned by p, never written
	check := func(t *testing.T, keys [][]byte, absent map[int]bool) {
		t.Helper()
		resp := execOK(t, st, &wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: keys})
		if len(resp.Batch) != len(keys) {
			t.Fatalf("%d sub-responses for %d keys", len(resp.Batch), len(keys))
		}
		for j, k := range keys {
			sub := resp.Batch[j]
			if absent[j] {
				if sub.Status != wire.StatusNotFound || len(sub.Val) != 0 {
					t.Fatalf("slot %d (%s, absent): %v %q", j, k, sub.Status, sub.Val)
				}
			} else if sub.Status != wire.StatusOK || string(sub.Val) != "v-"+string(k) {
				t.Fatalf("slot %d (%s): %v %q", j, k, sub.Status, sub.Val)
			}
		}
	}

	t.Run("slot order, hits and misses over three shards", func(t *testing.T) {
		// Descending table order, so slot order is not visit order.
		check(t, [][]byte{keyOn(st, 3, 0), miss(1), keyOn(st, 0, 0), keyOn(st, 3, 1), miss(0), keyOn(st, 1, 0)},
			map[int]bool{1: true, 4: true})
	})
	t.Run("the same key twice", func(t *testing.T) {
		check(t, [][]byte{keyOn(st, 2, 0), keyOn(st, 0, 0), keyOn(st, 2, 0), miss(0), miss(0)}, map[int]bool{3: true, 4: true})
	})
	t.Run("40 keys, past the inline owner scratch", func(t *testing.T) {
		var keys [][]byte
		absent := map[int]bool{}
		for j := 0; j < 40; j++ {
			keys = append(keys, keyOn(st, j%4, j/4)) // j/4 < 12: written
			if j%7 == 3 {
				absent[len(keys)] = true
				keys = append(keys, miss(j%4))
			}
		}
		check(t, keys, absent)
	})
	t.Run("a cancelled context starts no share", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		before := st.Stats().Starts
		resp := new(wire.Response)
		st.ExecuteCtx(cctx, &wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: [][]byte{keyOn(st, 0, 0), keyOn(st, 1, 0), keyOn(st, 2, 0)}}, resp)
		if resp.Status != wire.StatusErr || !strings.Contains(resp.Msg, "cancel") || len(resp.Batch) != 0 {
			t.Fatalf("cancelled MGET answered %v %q %+v", resp.Status, resp.Msg, resp.Batch)
		}
		if after := st.Stats().Starts; after != before {
			t.Fatalf("cancelled MGET started %d transactions", after-before)
		}
	})
	t.Run("a key moved mid-table stops the walk and the retry answers", func(t *testing.T) {
		// Position 1's shard splits; a request still holding the old
		// table finds the moved half gone from it once the scrub ran.
		old := st.tab()
		src := old.shards[1]
		var stayed, moved []byte
		for nth := 0; stayed == nil || moved == nil; nth++ {
			if k := keyOn(st, 1, nth); hashKey(k)%8 == 1 {
				stayed = k
			} else {
				moved = k
			}
		}
		if _, err := st.Split(ctx, 0, src.idx); err != nil {
			t.Fatalf("Split: %v", err)
		}
		st.reshardMu.Lock()
		_, err := st.cleanShard(ctx, src)
		st.reshardMu.Unlock()
		if err != nil {
			t.Fatalf("cleanShard: %v", err)
		}
		keys := [][]byte{keyOn(st, 3, 0), moved, keyOn(st, 0, 0), stayed, keyOn(st, 2, 0)}
		var routed [4]uint64
		for i, sh := range old.shards {
			routed[i] = sh.routed.Load()
		}
		resp := new(wire.Response)
		if err := st.mget(ctx, old, keys, core.Snapshot, resp); !errors.Is(err, errMovedKey) {
			t.Fatalf("MGET through the pre-split table returned %v, want the moved-key retry signal", err)
		}
		for i, want := range []uint64{1, 2, 0, 0} { // shares 0 and 1 ran, 1 failed, 2 and 3 never started
			if got := old.shards[i].routed.Load() - routed[i]; got != want {
				t.Fatalf("position %d read %d keys after the walk stopped at position 1, want %d", i, got, want)
			}
		}
		// What ExecuteCtx does with that signal: the same request through
		// the published table.
		check(t, keys, nil)
	})
}

// TestCrossShardMGetUnderTxnWriter: snapshot MGETs beside conflicting
// cross-shard TXNs over the same keys — the ledger's txn-zipf-2pc, and
// the paper's Figure 1 — never abort, and each shard's share of the
// answer is one snapshot: the two keys a TXN writes together on one
// shard are never seen apart, whatever the third key on another shard
// shows.
func TestCrossShardMGetUnderTxnWriter(t *testing.T) {
	st := newSharded(4)
	a1, a2, b := keyOn(st, 1, 0), keyOn(st, 1, 1), keyOn(st, 3, 0)
	write := func(v []byte) {
		execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
			{Op: wire.OpSet, Key: a1, Val: v}, {Op: wire.OpSet, Key: b, Val: v}, {Op: wire.OpSet, Key: a2, Val: v},
		}})
	}
	write([]byte("0"))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 1; i <= 300; i++ {
			write([]byte(fmt.Sprint(i)))
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: [][]byte{a1, b, a2}}
			resp := new(wire.Response)
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.ExecuteInto(req, resp)
				if resp.Status != wire.StatusOK || len(resp.Batch) != 3 {
					t.Errorf("MGET: %v %q", resp.Status, resp.Msg)
					return
				}
				if x, y := resp.Batch[0].Val, resp.Batch[2].Val; string(x) != string(y) {
					t.Errorf("one shard's share is torn: %s=%q %s=%q", a1, x, a2, y)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := st.Stats().Sem(stm.SemanticsSnapshot).Aborts; n != 0 {
		t.Fatalf("aborts.snapshot = %d, want 0", n)
	}
}

// TestShardedDurableRestart: a sharded durable store replays every
// shard's log — including cross-shard TXN prepares — back to the same
// state, and the manifest pins the shard count.
func TestShardedDurableRestart(t *testing.T) {
	dir := t.TempDir()
	st, res := newShardedDurable(t, dir, 4, wal.ModeAlways)
	if len(res.Shards) != 4 {
		t.Fatalf("recovered %d shards", len(res.Shards))
	}
	const n = 60
	for i := 0; i < n; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte("v")})
	}
	// One cross-shard TXN so prepares/decision/commit marks hit the logs.
	a, b := tkey(0), []byte(nil)
	for i := 1; b == nil; i++ {
		if st.shardIdx(tkey(i)) != st.shardIdx(a) {
			b = tkey(i)
		}
	}
	execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
		{Op: wire.OpSet, Key: a, Val: []byte("xa")},
		{Op: wire.OpSet, Key: b, Val: []byte("xb")},
	}})
	before := scanAll(t, st)
	if err := st.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	if got := pinnedShards(t, dir); got != 4 {
		t.Fatalf("MANIFEST pins %d shards, want 4", got)
	}

	st2, res2 := newShardedDurable(t, dir, 4, wal.ModeAlways)
	defer st2.CloseDurability()
	if res2.RolledBack != 0 {
		t.Fatalf("clean restart rolled back %d prepares", res2.RolledBack)
	}
	if got := scanAll(t, st2); len(got) != len(before) || got[string(a)] != "xa" || got[string(b)] != "xb" {
		t.Fatalf("state after restart = %d keys, want %d (a=%q b=%q)", len(got), len(before), got[string(a)], got[string(b)])
	}
	// The epoch counter resumed past the recovered maximum: the next
	// cross-shard commit must not collide with the logged one.
	if st2.epoch.Load() == 0 {
		t.Fatal("epoch did not resume from the recovered logs")
	}
}

// TestShardCountAdopted: a store opening a directory written with a
// different shard count adopts the MANIFEST's table — the constructor's
// count only sizes a fresh directory — and reads every key back.
func TestShardCountAdopted(t *testing.T) {
	dir := t.TempDir()
	st, _ := newShardedDurable(t, dir, 4, wal.ModeAlways)
	const n = 64
	for i := 0; i < n; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	if err := st.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	st2, res := newShardedDurable(t, dir, 2, wal.ModeAlways)
	if st2.NumShards() != 4 || len(res.Shards) != 4 {
		t.Fatalf("2-shard store on a 4-shard directory: %d shards, %d recovered", st2.NumShards(), len(res.Shards))
	}
	got := scanAll(t, st2)
	if len(got) != n {
		t.Fatalf("adopted store holds %d keys, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if v := got[string(tkey(i))]; v != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d = %q", i, v)
		}
	}
	// Writes land on the adopted shards' logs and survive another reopen.
	execOK(t, st2, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(n), Val: []byte("post")})
	if err := st2.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	st3, _ := newShardedDurable(t, dir, 1, wal.ModeAlways)
	defer st3.CloseDurability()
	if got := scanAll(t, st3); st3.NumShards() != 4 || len(got) != n+1 || got[string(tkey(n))] != "post" {
		t.Fatalf("second reopen: %d shards, %d keys, post=%q", st3.NumShards(), len(got), got[string(tkey(n))])
	}
}

// TestLegacyDirOpensAsSingleShard: a pre-manifest directory (files at
// the root) reads back as one shard, whatever count the store was
// built with, and keeps working.
func TestLegacyDirOpensAsSingleShard(t *testing.T) {
	dir := t.TempDir()
	st, _ := newDurable(t, dir, wal.ModeAlways)
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("k"), Val: []byte("v")})
	if err := st.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	// Strip the manifest: the layout earlier releases wrote.
	rmManifest(t, dir)
	st2, _ := newShardedDurable(t, dir, 4, wal.ModeAlways)
	defer st2.CloseDurability()
	if st2.NumShards() != 1 {
		t.Fatalf("legacy layout opened as %d shards, want 1", st2.NumShards())
	}
	if got := scanAll(t, st2); got["k"] != "v" {
		t.Fatalf("legacy replay = %v", got)
	}
	execOK(t, st2, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("k2"), Val: []byte("v2")})
	if got := pinnedShards(t, dir); got != 1 {
		t.Fatalf("legacy layout pinned to %d shards, want 1", got)
	}
}

// TestShardDirsWithoutManifestRefused: shard directories with no
// MANIFEST beside them carry logs written under an unknown table, so
// opening them is refused with an error naming the directory, whatever
// the store's count.
func TestShardDirsWithoutManifestRefused(t *testing.T) {
	dir := t.TempDir()
	st, _ := newShardedDurable(t, dir, 2, wal.ModeAlways)
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(1), Val: []byte("v")})
	if err := st.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	rmManifest(t, dir)
	for _, n := range []int{1, 2} {
		st2 := newSharded(n)
		_, err := st2.EnableDurability(Durability{Dir: dir, Fsync: wal.ModeAlways, CheckpointEvery: -1})
		if err == nil {
			st2.CloseDurability()
			t.Fatalf("%d-shard store opened shard directories without a MANIFEST", n)
		}
		if !strings.Contains(err.Error(), dir) {
			t.Fatalf("refusal does not name the directory: %v", err)
		}
	}
	if fileExists(filepath.Join(dir, manifestName)) {
		t.Fatal("a refused open wrote a MANIFEST")
	}
}

// TestShardedStats: STATS surfaces the shard count, distribution rows
// and per-shard WAL rows.
func TestShardedStats(t *testing.T) {
	dir := t.TempDir()
	st, _ := newShardedDurable(t, dir, 2, wal.ModeAlways)
	defer st.CloseDurability()
	for i := 0; i < 32; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte("v")})
	}
	resp := execOK(t, st, &wire.Request{Op: wire.OpStats})
	counters := map[string]uint64{}
	for _, c := range resp.Counters {
		counters[c.Name] = c.Value
	}
	if counters["store_shards"] != 2 {
		t.Fatalf("store_shards = %d", counters["store_shards"])
	}
	if counters["shard0.ops"]+counters["shard1.ops"] < 32 {
		t.Fatalf("distribution rows = %d + %d", counters["shard0.ops"], counters["shard1.ops"])
	}
	if counters["shard0.wal_records"]+counters["shard1.wal_records"] != 32 {
		t.Fatalf("per-shard wal_records sum = %d, want 32",
			counters["shard0.wal_records"]+counters["shard1.wal_records"])
	}
	if counters["wal_records"] != 32 {
		t.Fatalf("aggregate wal_records = %d, want 32", counters["wal_records"])
	}
	if counters["commits"] == 0 {
		t.Fatal("aggregate engine counters missing")
	}
}

// BenchmarkMGetCross states what running a cross-shard MGET's shares in
// turn trades away: in-process, four shards of 25k keys each, the keys
// of one request spread evenly over all four. Run with -cpu 1,2 against
// the parent commit (README "Routing" holds the table): two keys are
// what the ledger and the typed client send, 64 is where overlapping the
// shares could start to pay.
func BenchmarkMGetCross(b *testing.B) {
	st := newSharded(4)
	val := []byte(strings.Repeat("v", 64))
	var on [4][][]byte
	for i := 0; i < 100_000; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		p := st.shardIdx(k)
		on[p] = append(on[p], k)
		st.Execute(&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: k, Val: val})
	}
	for _, n := range []int{2, 16, 64} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			// 1024 requests, walked with a stride: the keys differ from
			// one request to the next, as a server's do.
			reqs := make([]wire.Request, 1024)
			for r := range reqs {
				keys := make([][]byte, n)
				for j := range keys {
					shard := on[(r+j)%4]
					keys[j] = shard[(r*131+j*17)%len(shard)]
				}
				reqs[r] = wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: keys}
			}
			resp := new(wire.Response)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.ExecuteInto(&reqs[i%len(reqs)], resp)
				if resp.Status != wire.StatusOK || len(resp.Batch) != n {
					b.Fatalf("MGET: %v %q", resp.Status, resp.Msg)
				}
			}
		})
	}
}
