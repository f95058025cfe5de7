package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"polytm/internal/core"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// statsMap fetches the STATS counters as a map.
func statsMap(t *testing.T, st *Store) map[string]uint64 {
	t.Helper()
	resp := execOK(t, st, &wire.Request{Op: wire.OpStats, Sem: wire.SemDefault})
	m := make(map[string]uint64, len(resp.Counters))
	for _, c := range resp.Counters {
		m[c.Name] = c.Value
	}
	return m
}

// TestSplitMovesKeys: a SPLIT doubles the table, keeps every key at its
// pre-split value, routes each key to the slice that owns its hash, and
// leaves the store fully writable.
func TestSplitMovesKeys(t *testing.T) {
	ctx := context.Background()
	st := newSharded(2)
	const n = 512
	for i := 0; i < n; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	epoch, err := st.Split(ctx, 0, 0)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if epoch != 1 || st.RoutingEpoch() != 1 {
		t.Fatalf("epoch = %d / %d, want 1", epoch, st.RoutingEpoch())
	}
	if st.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", st.NumShards())
	}
	got := scanAll(t, st)
	if len(got) != n {
		t.Fatalf("post-split scan found %d keys, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if got[string(tkey(i))] != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q", i, got[string(tkey(i))])
		}
	}
	// Every key's owning table position actually owns its hash.
	tab := st.tab()
	for i := 0; i < n; i++ {
		h := hashKey(tkey(i))
		sl := tab.slices[tab.pos(h)]
		if h%sl.mod != sl.res {
			t.Fatalf("key %d routed to a slice that does not own it", i)
		}
	}
	// Point reads and writes still work for moved and unmoved keys.
	for i := 0; i < n; i += 7 {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte("post")})
		r := execOK(t, st, &wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: tkey(i)})
		if string(r.Val) != "post" {
			t.Fatalf("post-split rewrite of key %d read %q", i, r.Val)
		}
	}
	sm := statsMap(t, st)
	if sm["routing_epoch"] != 1 || sm["reshard_splits"] != 1 {
		t.Fatalf("stats: routing_epoch=%d reshard_splits=%d", sm["routing_epoch"], sm["reshard_splits"])
	}
}

// TestReadMissOnMovedKeyReroutes: a read that was routed on the
// pre-split table (here: handed the pre-split owner) and runs after the
// cutover AND after the scrub has removed the moved half from that
// shard must not answer "not found" — the miss is a routing race, and
// the request comes back as the moved-key signal ExecuteCtx retries on.
// GET always did; MGET and a single-shard TXN's GET reported the key
// absent.
func TestReadMissOnMovedKeyReroutes(t *testing.T) {
	ctx := context.Background()
	st := newSharded(1)
	var moved []byte // a key the split hands to the new shard
	for i := 0; i < 64; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte("v")})
		if hashKey(tkey(i))%2 == 1 {
			moved = tkey(i)
		}
	}
	old := st.tab()
	src := old.shards[0]
	if _, err := st.Split(ctx, 0, 0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	// The lazy scrub, run to completion here (it is idempotent with the
	// goroutine Split started).
	st.reshardMu.Lock()
	_, err := st.cleanShard(ctx, src)
	st.reshardMu.Unlock()
	if err != nil {
		t.Fatalf("cleanShard: %v", err)
	}
	if _, ok := src.m.Get(string(moved), core.Snapshot); ok {
		t.Fatalf("scrub left %q on the old owner: the reads below would not miss", moved)
	}

	for _, tc := range []struct {
		name string
		run  func(resp *wire.Response) error
	}{
		{"GET", func(resp *wire.Response) error { return st.get(ctx, src, moved, core.Snapshot, resp) }},
		{"MGET", func(resp *wire.Response) error {
			return st.mget(ctx, old, [][]byte{moved}, core.Snapshot, resp)
		}},
		{"TXN-GET", func(resp *wire.Response) error {
			return st.txn(ctx, old, []wire.Request{{Op: wire.OpGet, Key: moved}}, core.Def, resp)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := new(wire.Response)
			if err := tc.run(resp); !errors.Is(err, errMovedKey) {
				t.Fatalf("stale-routed read of a moved key returned %v (reply %v %+v), want the moved-key retry signal",
					err, resp.Status, resp.Batch)
			}
		})
	}
	// Through the front door the same key is simply found.
	if resp := execOK(t, st, &wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: [][]byte{moved}}); string(resp.Batch[0].Val) != "v" {
		t.Fatalf("MGET after split: %+v", resp.Batch[0])
	}
}

// TestVolatileStoreLogs: a server's Logf is its store's diagnostics sink
// too, durable or not — a volatile server used to drop its SPLIT line.
func TestVolatileStoreLogs(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	st := New(Config{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}}).Store()
	defer st.StopTTLReaper()
	epoch, err := st.Split(context.Background(), 0, 0)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	want := fmt.Sprintf("polyserve: split shard 0 -> new shard 1, routing epoch %d", epoch)
	mu.Lock()
	defer mu.Unlock()
	if !slices.Contains(logged, want) {
		t.Fatalf("logged %q, want a line %q", logged, want)
	}
}

// TestSplitWrongEpoch: a stale epoch is rejected with the typed error,
// both at the Store API and through the wire dispatch.
func TestSplitWrongEpoch(t *testing.T) {
	st := newSharded(2)
	_, err := st.Split(context.Background(), 7, 0)
	var we *wire.WrongEpochError
	if !errors.As(err, &we) || we.Have != 7 || we.Want != 0 {
		t.Fatalf("Split with stale epoch: %v", err)
	}
	resp := st.Execute(&wire.Request{Op: wire.OpSplit, Sem: wire.SemDefault, Epoch: 7, Shard: 0})
	if resp.Status != wire.StatusErr || !errors.Is(resp.Err(), wire.ErrWrongEpoch) {
		t.Fatalf("wire SPLIT with stale epoch: status=%v err=%v", resp.Status, resp.Err())
	}
	if !errors.As(resp.Err(), &we) || we.Want != 0 {
		t.Fatalf("wire error lost the typed payload: %v", resp.Err())
	}
	// Unknown shard id and over-split guards surface as plain errors.
	if _, err := st.Split(context.Background(), 0, 99); err == nil {
		t.Fatal("SPLIT of unknown shard accepted")
	}
}

// TestMergeRoundTrip: split, then merge the buddies back — twice, down
// to a single shard — with the keyspace intact throughout.
func TestMergeRoundTrip(t *testing.T) {
	ctx := context.Background()
	st := newSharded(2)
	const n = 384
	for i := 0; i < n; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	if _, err := st.Split(ctx, 0, 0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	// id 0 now owns (4,0); the new shard id 2 owns (4,2) — buddies.
	epoch, err := st.Merge(ctx, 1, 0, 2)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if epoch != 2 || st.NumShards() != 2 {
		t.Fatalf("after merge: epoch=%d shards=%d", epoch, st.NumShards())
	}
	// (2,0) and (2,1) are buddies too: fold to a single shard.
	if _, err := st.Merge(ctx, 2, 0, 1); err != nil {
		t.Fatalf("Merge to one: %v", err)
	}
	if st.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", st.NumShards())
	}
	got := scanAll(t, st)
	if len(got) != n {
		t.Fatalf("found %d keys, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if got[string(tkey(i))] != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q", i, got[string(tkey(i))])
		}
	}
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("post-merge"), Val: []byte("ok")})
	sm := statsMap(t, st)
	if sm["reshard_merges"] != 2 || sm["routing_epoch"] != 3 {
		t.Fatalf("stats: %v", sm)
	}
	// Merging the last shard with itself (or a ghost) is rejected.
	if _, err := st.Merge(ctx, 3, 0, 0); err == nil {
		t.Fatal("self-merge accepted")
	}
}

// TestMergeSurvivorIsLowerResidue: MERGE keeps the buddy holding the
// lower hash residue whichever argument names it — (a, b) and (b, a)
// are the same request — and answers with the epoch it published.
func TestMergeSurvivorIsLowerResidue(t *testing.T) {
	for _, order := range [][2]uint64{{0, 2}, {2, 0}} {
		t.Run(fmt.Sprintf("MERGE %d,%d", order[0], order[1]), func(t *testing.T) {
			st := newSharded(2)
			// id 0 keeps (4,0); the new shard, id 2, takes (4,2).
			if _, err := st.Split(context.Background(), 0, 0); err != nil {
				t.Fatalf("Split: %v", err)
			}
			resp := execOK(t, st, &wire.Request{Op: wire.OpMerge, Sem: wire.SemDefault, Epoch: 1, Shard: order[0], Shard2: order[1]})
			if resp.N != 2 {
				t.Fatalf("MERGE answered epoch %d, want 2", resp.N)
			}
			tab := st.tab()
			pos := tab.posByID(0)
			if pos < 0 || tab.posByID(2) >= 0 || len(tab.shards) != 2 {
				t.Fatalf("after MERGE: shard 0 at %d, shard 2 at %d of %d shards; want 0 to survive", pos, tab.posByID(2), len(tab.shards))
			}
			if sl := tab.slices[pos]; sl.mod != 2 || sl.res != 0 {
				t.Fatalf("survivor owns (%d,%d), want (2,0)", sl.mod, sl.res)
			}
		})
	}
}

// statsGauges are the STATS rows that describe the live table rather
// than count events, so they may fall when a shard leaves it.
var statsGauges = map[string]bool{
	"store_shards": true, "ttl_armed": true, "wal_segment": true, "ckpt_chain_len": true,
	"ckpt_delta_bytes": true, "ckpt_base_bytes": true, "ckpt_last_kind": true,
}

// TestStatsMonotoneAcrossMerge: a shard merged away takes none of its
// history with it. Every store-wide counter row — the engine's, per
// semantics too, and the log's — reads at least what it read before the
// MERGE, and ResetStats still zeroes the engine rows afterwards.
func TestStatsMonotoneAcrossMerge(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "volatile", true: "durable"}[durable], func(t *testing.T) {
			st := newSharded(2)
			if durable {
				st, _ = newShardedDurable(t, t.TempDir(), 2, wal.ModeOff)
				defer st.CloseDurability()
			}
			for i := 0; i < 200; i++ {
				execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte("v")})
			}
			before := statsMap(t, st)
			if _, err := st.Merge(context.Background(), 0, 0, 1); err != nil {
				t.Fatalf("Merge: %v", err)
			}
			after := statsMap(t, st)
			for name, v := range before {
				if w, ok := after[name]; ok && !statsGauges[name] && w < v {
					t.Errorf("%s went %d -> %d across the merge", name, v, w)
				}
			}
			if durable && after["wal_records"] < 200 {
				t.Errorf("wal_records = %d after 200 durable SETs", after["wal_records"])
			}
			st.ResetStats()
			if sm := statsMap(t, st); sm["starts"] != 0 || sm["commits.def"] != 0 {
				t.Errorf("after ResetStats: starts=%d commits.def=%d", sm["starts"], sm["commits.def"])
			}
		})
	}
}

// TestReshardUnderLiveLoad is the online-cutover contract: SPLITs and
// MERGEs run while writers hammer the store, no request may fail, and
// every acknowledged write must read back at its acknowledged value.
func TestReshardUnderLiveLoad(t *testing.T) {
	ctx := context.Background()
	st := newSharded(2)
	const workers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Uint64
	last := make([]map[string]string, workers) // per-worker acknowledged values
	for g := 0; g < workers; g++ {
		last[g] = make(map[string]string)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seq := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("live-%d-%04d", g, seq%97)
				v := fmt.Sprintf("%d", seq)
				resp := st.Execute(&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte(k), Val: []byte(v)})
				if resp.Status == wire.StatusErr {
					failures.Add(1)
					t.Errorf("SET failed mid-reshard: %s", resp.Msg)
					return
				}
				last[g][k] = v
				if r := st.Execute(&wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: []byte(k)}); r.Status == wire.StatusErr {
					failures.Add(1)
					t.Errorf("GET failed mid-reshard: %s", r.Msg)
					return
				}
				seq++
			}
		}(g)
	}
	// A full reshard cycle under load: split both initial shards, then
	// merge everything back.
	time.Sleep(20 * time.Millisecond)
	epoch := uint64(0)
	for _, id := range []int{0, 1} {
		e, err := st.Split(ctx, epoch, id)
		if err != nil {
			t.Fatalf("Split %d under load: %v", id, err)
		}
		epoch = e
		time.Sleep(20 * time.Millisecond)
	}
	// After splitting ids 0 and 1 of a 2-shard store: id0 (4,0),
	// id2 (4,2) and id1 (4,1), id3 (4,3) are the buddy pairs.
	for _, pair := range [][2]int{{0, 2}, {1, 3}} {
		e, err := st.Merge(ctx, epoch, pair[0], pair[1])
		if err != nil {
			t.Fatalf("Merge %v under load: %v", pair, err)
		}
		epoch = e
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed across the reshard cycle", n)
	}
	if st.NumShards() != 2 || st.RoutingEpoch() != 4 {
		t.Fatalf("end state: shards=%d epoch=%d", st.NumShards(), st.RoutingEpoch())
	}
	// Every acknowledged write reads back at its final value.
	got := scanAll(t, st)
	for g := 0; g < workers; g++ {
		for k, v := range last[g] {
			if got[k] != v {
				t.Fatalf("acknowledged %s=%q reads back %q", k, v, got[k])
			}
		}
	}
}

// TestMergeKeepsInFlightCrossShardWrite: a cross-shard participant that
// applied its share on the moving shard before the capture gate flipped
// — so it marks no delta — and commits only after the reshard started
// must still reach the receiver. The TXN {SET kb on id 2, SET kc on
// id 3} stalls on id 3's token (held here) with its share on id 2
// applied; then MERGE 0,2 runs and the token is released. MERGE used to
// fence only the survivor, so its walk missed kb and the retired shard
// took kb with it. SPLIT of id 2, whose fence always was the moving
// shard, is the control. The two sleeps only steer toward the
// interleaving the bug needed (share applied before the flip, walk
// before the release); every assertion holds for any interleaving, so
// a slow run weakens the probe but cannot fail it.
func TestMergeKeepsInFlightCrossShardWrite(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name           string
		durable, split bool
	}{
		{"merge/volatile", false, false},
		{"merge/durable", true, false},
		{"split/volatile", false, true},
		{"split/durable", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newSharded(4)
			if tc.durable {
				st, _ = newShardedDurable(t, t.TempDir(), 4, wal.ModeOff)
				defer st.CloseDurability()
			}
			// kb lives on id 2 and is in the half a split of id 2 moves
			// (8,6); kc lives on id 3.
			var kb, kc []byte
			for i := 0; kb == nil || kc == nil; i++ {
				switch h := hashKey(tkey(i)); {
				case kb == nil && h%8 == 6:
					kb = tkey(i)
				case kc == nil && h%4 == 3:
					kc = tkey(i)
				}
			}
			held, release := make(chan struct{}), make(chan struct{})
			go st.tab().shards[3].tm.AtomicCtx(ctx, func(*core.Tx) error {
				close(held)
				<-release
				return nil
			}, core.WithSemantics(core.Irrevocable))
			<-held
			txn := make(chan *wire.Response, 1)
			go func() {
				txn <- st.Execute(&wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
					{Op: wire.OpSet, Key: kb, Val: []byte("B")},
					{Op: wire.OpSet, Key: kc, Val: []byte("C")},
				}})
			}()
			time.Sleep(50 * time.Millisecond) // the share on id 2 is applied, id 3's token awaited
			reshard := make(chan error, 1)
			go func() {
				var err error
				if tc.split {
					_, err = st.Split(ctx, 0, 2)
				} else {
					_, err = st.Merge(ctx, 0, 0, 2)
				}
				reshard <- err
			}()
			time.Sleep(50 * time.Millisecond) // the reshard is under way
			close(release)
			if r := <-txn; r.Status != wire.StatusOK {
				t.Fatalf("TXN: %v %s", r.Status, r.Msg)
			}
			if err := <-reshard; err != nil {
				t.Fatalf("reshard: %v", err)
			}
			if r := execOK(t, st, &wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: kb}); r.Status != wire.StatusOK || string(r.Val) != "B" {
				t.Fatalf("GET kb after the reshard: %v %q, want OK \"B\"", r.Status, r.Val)
			}
		})
	}
}

// TestReshardBesideFlush: a FLUSH racing the copy protocol voids every
// copy shipped so far — including a batch read before it that lands
// after it. A seeded sequential writer (SET 80%, DEL 19%, FLUSH 1%) over
// 4000 keys keeps a model while SPLIT 0 then MERGE 0,2 (or the merge
// alone) run, and afterwards the store must scan as exactly the model.
// MERGE used to trust the FLUSH to have cleared the survivor, and old
// keys came back.
func TestReshardBesideFlush(t *testing.T) {
	ctx := context.Background()
	const nkeys, rounds = 4000, 8
	for _, tc := range []struct {
		name               string
		durable, mergeOnly bool
	}{
		{"split-merge/volatile", false, false},
		{"split-merge/durable", true, false},
		{"merge-only/volatile", false, true},
		{"merge-only/durable", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				st := newSharded(2)
				if tc.durable {
					st, _ = newShardedDurable(t, t.TempDir(), 2, wal.ModeOff)
				}
				model := make(map[string]string, nkeys)
				for i := 0; i < nkeys; i++ {
					execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte("seed")})
					model[string(tkey(i))] = "seed"
				}
				if tc.mergeOnly {
					if _, err := st.Split(ctx, 0, 0); err != nil {
						t.Fatalf("Split: %v", err)
					}
				}
				done := make(chan error, 1)
				go func() {
					epoch, err := st.RoutingEpoch(), error(nil)
					if !tc.mergeOnly {
						epoch, err = st.Split(ctx, epoch, 0)
					}
					if err == nil {
						_, err = st.Merge(ctx, epoch, 0, 2)
					}
					done <- err
				}()
				rng := rand.New(rand.NewSource(int64(round)))
				var err error
				for n, running := 0, true; running; n++ {
					select {
					case err = <-done:
						running = false
					default:
					}
					k := tkey(rng.Intn(nkeys))
					switch p := rng.Intn(100); {
					case p < 80:
						v := fmt.Sprintf("%d", n)
						execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: k, Val: []byte(v)})
						model[string(k)] = v
					case p < 99:
						execOK(t, st, &wire.Request{Op: wire.OpDel, Sem: wire.SemDefault, Key: k})
						delete(model, string(k))
					default:
						execOK(t, st, &wire.Request{Op: wire.OpFlush, Sem: wire.SemDefault})
						clear(model)
					}
				}
				if err != nil {
					t.Fatalf("round %d: reshard: %v", round, err)
				}
				got := scanAll(t, st)
				for k, v := range model {
					if got[k] != v {
						t.Fatalf("round %d: %s reads %q, want %q", round, k, got[k], v)
					}
				}
				if len(got) != len(model) {
					t.Fatalf("round %d: the store holds %d keys, the model %d", round, len(got), len(model))
				}
				if tc.durable {
					st.CloseDurability()
				}
			}
		})
	}
}

// TestSplitPreservesTTL: deadlines armed before a split survive the
// move — every short-lived key physically expires afterwards.
func TestSplitPreservesTTL(t *testing.T) {
	ctx := context.Background()
	st := newSharded(2)
	const n = 128
	for i := 0; i < n; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSetEx, Sem: wire.SemDefault, Key: tkey(i), Val: []byte("x"), TTLMillis: 40})
	}
	if _, err := st.Split(ctx, 0, 0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	total := 0
	for i := 0; i < 20; i++ {
		r, err := st.ReapExpired(ctx)
		if err != nil {
			t.Fatalf("ReapExpired: %v", err)
		}
		total += r
		if r == 0 {
			break
		}
	}
	if total != n {
		t.Fatalf("reaped %d of %d keys after a split — deadlines lost in the move", total, n)
	}
}

// TestReshardTTLKeysPinNoSourceNodes: the deadlines a split or a merge
// moves are armed on the destination under copies of their keys. The
// keys the source's walk hands out view the source's nodes, which the
// split then drops and the merge retires with their shard; a deadline
// kept under one of them would keep that node, its value and, along
// its links, every node after it alive until the key expires.
func TestReshardTTLKeysPinNoSourceNodes(t *testing.T) {
	ctx := context.Background()
	st := newSharded(2)
	for i := 0; i < 256; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSetEx, Sem: wire.SemDefault, Key: tkey(i), Val: []byte("x"), TTLMillis: 3600_000})
	}
	byID := func(id int) *shard {
		tab := st.tab()
		return tab.shards[tab.posByID(id)]
	}
	// reshard snapshots the bytes of every key on shard from — its nodes
	// stay reachable until the reshard has armed to's deadlines, so no
	// copy can land at one of those addresses — then checks to's table.
	reshard := func(name string, from, to int, do func() error) {
		t.Helper()
		nodes := map[*byte]bool{}
		if err := byID(from).walk(ctx, func(op wal.Op) error {
			nodes[unsafe.StringData(op.Key)] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := do(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tt := &byID(to).ttl
		tt.mu.RLock()
		defer tt.mu.RUnlock()
		moved := 0
		for k := range tt.m {
			if nodes[unsafe.StringData(k)] {
				moved++
			}
		}
		if moved > 0 || len(tt.m) == 0 {
			t.Fatalf("%s: %d of shard %d's %d deadlines are keyed by shard %d's nodes", name, moved, to, len(tt.m), from)
		}
	}
	// id 0 keeps (4,0); the new shard, id 2, takes (4,2). Then the merge
	// folds id 2 back into id 0.
	reshard("split", 0, 2, func() error { _, err := st.Split(ctx, 0, 0); return err })
	reshard("merge", 2, 0, func() error { _, err := st.Merge(ctx, 1, 0, 2); return err })
}

// TestMoveEndDropsItsDelta: keys written while a move runs stay in the
// moving shard's delta only until the move ends, cut over or aborted.
// A written key there views its node, and a delta the next move would
// only read after a full copy would keep that node alive once deleted.
func TestMoveEndDropsItsDelta(t *testing.T) {
	ctx := context.Background()
	st := newSharded(2)
	from := st.tab().shards[0]
	m := st.newMove(ctx, from, from, st.tab().shards[1], hashSlice{mod: 4, res: 2})
	if err := m.begin(1, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte("x")})
	}
	if n, _ := from.rdirty.peek(); n == 0 {
		t.Fatal("no write reached the moving shard's delta")
	}
	m.end()
	if n, flushed := from.rdirty.peek(); n != 0 || flushed {
		t.Fatalf("after the move ended its delta holds %d keys (full: %v), want none", n, flushed)
	}
}

// TestDurableSplitReopen: a durable split survives close + reopen —
// the MANIFEST pins the grown table and recovery adopts it.
func TestDurableSplitReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, _ := newShardedDurable(t, dir, 2, wal.ModeOff)
	const n = 256
	for i := 0; i < n; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	if _, err := st.Split(ctx, 0, 0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	// Writes AFTER the split land in the new layout's logs.
	for i := 0; i < n; i += 3 {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte("post")})
	}
	if err := st.CloseDurability(); err != nil {
		t.Fatalf("CloseDurability: %v", err)
	}

	st2, _ := newShardedDurable(t, dir, 1, wal.ModeOff)
	defer st2.CloseDurability()
	if st2.RoutingEpoch() != 1 || st2.NumShards() != 3 {
		t.Fatalf("reopened at epoch %d with %d shards, want 1 and 3", st2.RoutingEpoch(), st2.NumShards())
	}
	got := scanAll(t, st2)
	if len(got) != n {
		t.Fatalf("reopened store has %d keys, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("v%d", i)
		if i%3 == 0 {
			want = "post"
		}
		if got[string(tkey(i))] != want {
			t.Fatalf("key %d: %q, want %q", i, got[string(tkey(i))], want)
		}
	}
}

// TestDurableMergeReopen: a durable split + merge-back survives reopen
// at the original shard count, and the absorbed shard's directory is
// gone.
func TestDurableMergeReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, _ := newShardedDurable(t, dir, 2, wal.ModeOff)
	const n = 256
	for i := 0; i < n; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	if _, err := st.Split(ctx, 0, 0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	if !fileExists(filepath.Join(dir, "shard-0002")) {
		t.Fatal("split did not create the new shard's directory")
	}
	if _, err := st.Merge(ctx, 1, 0, 2); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if fileExists(filepath.Join(dir, "shard-0002")) {
		t.Fatal("absorbed shard's directory survived the merge")
	}
	if err := st.CloseDurability(); err != nil {
		t.Fatalf("CloseDurability: %v", err)
	}
	st2, _ := newShardedDurable(t, dir, 1, wal.ModeOff)
	defer st2.CloseDurability()
	if st2.RoutingEpoch() != 2 || st2.NumShards() != 2 {
		t.Fatalf("reopened at epoch %d with %d shards, want 2 and 2", st2.RoutingEpoch(), st2.NumShards())
	}
	if got := scanAll(t, st2); len(got) != n {
		t.Fatalf("reopened store has %d keys, want %d", len(got), n)
	}
}

// TestAdoptRouting: the follower-side reshape — survivors keep their
// contents, new ids appear empty, dropped ids disappear, a table of the
// same epoch and shape is a no-op, one of the same epoch but another
// shape reshapes, and a regressing epoch is refused.
func TestAdoptRouting(t *testing.T) {
	st := newSharded(2)
	for i := 0; i < 64; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte("v")})
	}
	grown := []wire.ReplShardSlice{{ID: 0, Mod: 4, Res: 0}, {ID: 1, Mod: 2, Res: 1}, {ID: 2, Mod: 4, Res: 2}}
	if ok, err := st.AdoptRouting(1, grown); err != nil || !ok {
		t.Fatalf("AdoptRouting = %v, %v", ok, err)
	}
	if st.NumShards() != 3 || st.RoutingEpoch() != 1 {
		t.Fatalf("after adopt: shards=%d epoch=%d", st.NumShards(), st.RoutingEpoch())
	}
	if ok, err := st.AdoptRouting(1, grown); err != nil || ok {
		t.Fatalf("same-epoch, same-shape adopt must be a no-op: %v, %v", ok, err)
	}
	if _, err := st.AdoptRouting(0, grown[:2]); err == nil {
		t.Fatal("regressing epoch accepted")
	}
	if _, err := st.AdoptRouting(2, []wire.ReplShardSlice{{ID: 2, Mod: 4, Res: 2}, {ID: 0, Mod: 4, Res: 0}, {ID: 1, Mod: 2, Res: 1}}); err == nil {
		t.Fatal("out-of-residue-order topology accepted")
	}
	// Shrink back at the same epoch: id 2 is dropped.
	if ok, err := st.AdoptRouting(1, []wire.ReplShardSlice{{ID: 0, Mod: 2, Res: 0}, {ID: 1, Mod: 2, Res: 1}}); err != nil || !ok {
		t.Fatalf("shrinking adopt = %v, %v", ok, err)
	}
	if st.NumShards() != 2 || st.tab().posByID(2) >= 0 {
		t.Fatalf("dropped shard still present")
	}
	// A topology that leaves part of the hash space unowned, or gives it
	// two owners, is refused, and the table keeps serving as it was.
	for name, topo := range map[string][]wire.ReplShardSlice{
		"zero-modulus": {{ID: 0, Mod: 0, Res: 0}},
		"half-space":   {{ID: 0, Mod: 2, Res: 0}},
		"duplicate-id": {{ID: 0, Mod: 2, Res: 0}, {ID: 0, Mod: 2, Res: 1}},
	} {
		epoch, before := st.Routing()
		if _, err := st.AdoptRouting(epoch+1, topo); err == nil {
			t.Fatalf("%s topology accepted", name)
		}
		if e, after := st.Routing(); e != epoch || !slices.Equal(after, before) {
			t.Fatalf("refused %s topology changed the table: epoch %d %v -> %d %v", name, epoch, before, e, after)
		}
		for i := 0; i < 64; i++ {
			execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte(name)})
		}
		if got := scanAll(t, st); len(got) != 64 || got[string(tkey(63))] != name {
			t.Fatalf("after a refused %s topology the store holds %d keys", name, len(got))
		}
	}
}

// TestSplitScrubsBeforeReturn: a SPLIT scrubs the moved half off its
// source before it returns, so the source holds none of the moved keys
// by then, and a CloseDurability right after it leaves nothing still
// writing — nothing is logged after the close.
func TestSplitScrubsBeforeReturn(t *testing.T) {
	const n = 20000
	var mu sync.Mutex
	var closed bool
	var late []string
	st := newSharded(2)
	st.diag = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if closed {
			late = append(late, fmt.Sprintf(format, args...))
		}
	}
	if _, err := st.EnableDurability(Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 200 {
		batch := make([]wire.Request, 200)
		for j := range batch {
			batch[j] = wire.Request{Op: wire.OpSet, Key: []byte(fmt.Sprintf("scrub-%06d", i+j)), Val: []byte("v")}
		}
		execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: batch})
	}
	src := st.tab().shards[0]
	if _, err := st.Split(context.Background(), 0, 0); err != nil {
		t.Fatalf("Split: %v", err)
	}
	if err := st.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	closed = true
	mu.Unlock()
	tab := st.tab()
	moved := 0
	err := src.walk(context.Background(), func(op wal.Op) error {
		if tab.slices[tab.posByID(2)].owns(op.Key) {
			moved++
		}
		return nil
	})
	if err != nil || moved != 0 {
		t.Fatalf("source still holds %d moved keys after Split returned (%v)", moved, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(late) > 0 {
		t.Fatalf("logged after the close: %q", late)
	}
}

// TestManifestCorruption (satellite): every torn or malformed MANIFEST
// shape must either recover to a correct table or fail loudly — never
// silently open the wrong shard count.
func TestManifestCorruption(t *testing.T) {
	write := func(t *testing.T, dir, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Build one real post-split directory to corrupt per case.
	mkSplitDir := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		st, _ := newShardedDurable(t, dir, 2, wal.ModeOff)
		for i := 0; i < 32; i++ {
			execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte("v")})
		}
		if _, err := st.Split(context.Background(), 0, 0); err != nil {
			t.Fatalf("Split: %v", err)
		}
		if err := st.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("truncated", func(t *testing.T) {
		dir := mkSplitDir(t)
		write(t, dir, "polyserve-wal v2 epoch=1 next=3 shards=3\nshard 0 mod=4 res=0 dir=shard-0000\n")
		st := newSharded(3)
		if _, err := st.EnableDurability(Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1}); err == nil {
			st.CloseDurability()
			t.Fatal("truncated MANIFEST opened silently")
		}
	})
	t.Run("bad-epoch", func(t *testing.T) {
		dir := mkSplitDir(t)
		write(t, dir, "polyserve-wal v2 epoch=zebra next=3 shards=3\n")
		st := newSharded(3)
		if _, err := st.EnableDurability(Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1}); err == nil {
			st.CloseDurability()
			t.Fatal("garbage epoch opened silently")
		}
	})
	t.Run("empty", func(t *testing.T) {
		dir := mkSplitDir(t)
		write(t, dir, "")
		st := newSharded(3)
		if _, err := st.EnableDurability(Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1}); err == nil {
			st.CloseDurability()
			t.Fatal("empty MANIFEST opened silently")
		}
	})
	// Shapes whose lines each parse but whose slices do not route every
	// key to exactly one shard: a gap, an overlap, a zero modulus.
	for name, lines := range map[string]string{
		"gap":          "shards=2\nshard 0 mod=2 res=0 dir=shard-0000\nshard 1 mod=4 res=1 dir=shard-0001\n",
		"overlap":      "shards=3\nshard 0 mod=2 res=0 dir=shard-0000\nshard 1 mod=2 res=1 dir=shard-0001\nshard 2 mod=4 res=2 dir=shard-0002\n",
		"zero-modulus": "shards=1\nshard 0 mod=0 res=0 dir=shard-0000\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := mkSplitDir(t)
			write(t, dir, "polyserve-wal v2 epoch=1 next=3 "+lines)
			st := newSharded(2)
			if _, err := st.EnableDurability(Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1}); err == nil {
				st.CloseDurability()
				t.Fatalf("%s MANIFEST opened silently", name)
			}
		})
	}
	t.Run("invalid-slice", func(t *testing.T) {
		dir := mkSplitDir(t)
		write(t, dir, "polyserve-wal v2 epoch=1 next=3 shards=2\nshard 0 mod=4 res=0 dir=shard-0000\nshard 1 mod=2 res=7 dir=shard-0001\n")
		st := newSharded(2)
		if _, err := st.EnableDurability(Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1}); err == nil {
			st.CloseDurability()
			t.Fatal("res >= mod opened silently")
		}
	})
	t.Run("stale-tmp", func(t *testing.T) {
		// A crash between writing MANIFEST.tmp and the rename leaves the
		// orphan next to a VALID manifest: recovery sweeps it and opens
		// the real table.
		dir := mkSplitDir(t)
		tmp := filepath.Join(dir, manifestName+".tmp")
		if err := os.WriteFile(tmp, []byte("polyserve-wal v2 epoch=9 next=9 shards=1\nshard 0 mod=1 res=0 dir=.\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		st, _ := newShardedDurable(t, dir, 3, wal.ModeOff)
		defer st.CloseDurability()
		if st.RoutingEpoch() != 1 || st.NumShards() != 3 {
			t.Fatalf("stale .tmp leaked into the table: epoch=%d shards=%d", st.RoutingEpoch(), st.NumShards())
		}
		if fileExists(tmp) {
			t.Fatal("stale MANIFEST.tmp survived recovery")
		}
		if got := scanAll(t, st); len(got) != 32 {
			t.Fatalf("recovered %d keys, want 32", len(got))
		}
	})
	t.Run("v1-compat", func(t *testing.T) {
		// A never-resharded directory keeps the v1 format; reopening it
		// must imply the legacy table (epoch 0, uniform slices).
		dir := t.TempDir()
		st, _ := newShardedDurable(t, dir, 2, wal.ModeOff)
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("k"), Val: []byte("v")})
		if err := st.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != "polyserve-wal shards=2\n" {
			t.Fatalf("legacy-shaped store wrote %q", raw)
		}
		st2, _ := newShardedDurable(t, dir, 2, wal.ModeOff)
		defer st2.CloseDurability()
		if st2.RoutingEpoch() != 0 {
			t.Fatalf("v1 manifest implied epoch %d", st2.RoutingEpoch())
		}
		if got := scanAll(t, st2); got["k"] != "v" {
			t.Fatalf("v1 reopen lost data: %v", got)
		}
	})
}

// TestManifestFailedInstall (satellite): a MANIFEST rewrite that cannot
// write its tmp file fails loudly, leaves the previous MANIFEST
// byte-identical — the table the logs were written under — and leaves
// no MANIFEST.tmp behind.
func TestManifestFailedInstall(t *testing.T) {
	dir := t.TempDir()
	if err := writeStoreManifest(dir, legacyManifest(2)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	before, err := os.ReadFile(path)
	if err != nil || string(before) != "polyserve-wal shards=2\n" {
		t.Fatalf("first install wrote %q (%v)", before, err)
	}
	// The tmp name resolves into a directory that does not exist, so
	// creating it fails whoever the test runs as.
	if err := os.Symlink(filepath.Join(dir, "absent", "x"), path+".tmp"); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	grown := legacyManifest(2)
	grown.Epoch, grown.NextID = 1, 3
	if err := writeStoreManifest(dir, grown); err == nil {
		t.Fatal("install through an unwritable tmp succeeded")
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Fatalf("failed install changed MANIFEST: %q (%v)", after, err)
	}
	if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("MANIFEST.tmp left behind: %v", err)
	}
	if m, err := openManifest(dir); err != nil || m.Epoch != 0 || len(m.Shards) != 2 {
		t.Fatalf("reopen after the failed install: %+v, %v", m, err)
	}
}

// TestEveryShardGetsTheConfiguredEngine: a shard the store adds after
// construction — by SPLIT, by an adopted topology, or by adopting a
// directory's MANIFEST — runs an engine built from the server's Config,
// like the shards it started with.
func TestEveryShardGetsTheConfiguredEngine(t *testing.T) {
	cfg := Config{Shards: 1}
	check := func(t *testing.T, st *Store, wantShards int) {
		t.Helper()
		if st.NumShards() != wantShards {
			t.Fatalf("store has %d shards, want %d", st.NumShards(), wantShards)
		}
		for _, sh := range st.tab().shards {
			if got := sh.tm.Engine().Shards(); got != 1 {
				t.Errorf("shard %d: engine has %d stripes, want 1", sh.idx, got)
			}
		}
	}
	t.Run("split-and-adopt", func(t *testing.T) {
		st := New(cfg).Store()
		defer st.StopTTLReaper()
		if _, err := st.Split(context.Background(), 0, 0); err != nil {
			t.Fatalf("Split: %v", err)
		}
		check(t, st, 2)
		topo := []wire.ReplShardSlice{{ID: 0, Mod: 4, Res: 0}, {ID: 1, Mod: 4, Res: 1}, {ID: 5, Mod: 4, Res: 2}, {ID: 6, Mod: 4, Res: 3}}
		if _, err := st.AdoptRouting(2, topo); err != nil {
			t.Fatalf("AdoptRouting: %v", err)
		}
		check(t, st, 4)
	})
	t.Run("manifest", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := newShardedDurable(t, dir, 4, wal.ModeOff)
		if err := st.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		st = New(cfg).Store()
		defer st.StopTTLReaper()
		if _, err := st.EnableDurability(Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1}); err != nil {
			t.Fatal(err)
		}
		defer st.CloseDurability()
		check(t, st, 4)
	})
}
