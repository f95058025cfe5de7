package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"polytm/internal/wal"
	"polytm/internal/wire"
)

func TestBackoffDelay(t *testing.T) {
	b := Backoff{Min: 50 * time.Millisecond, Max: 3 * time.Second}.WithDefaults()
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		3 * time.Second, 3 * time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestTimeoutsDefaults(t *testing.T) {
	tm := Budgets()
	if tm.Connect != 5*time.Second || tm.Reply != 10*time.Second || tm.Idle != 3*time.Second {
		t.Fatalf("defaults = %+v", tm)
	}
	if got := tm.readBudget(); got != tm.Idle+2*tm.Reply {
		t.Fatalf("readBudget = %v", got)
	}
}

func TestConnStateString(t *testing.T) {
	for s, want := range map[ConnState]string{
		StateDisconnected: "disconnected",
		StateConnecting:   "connecting",
		StateCatchingUp:   "catching-up",
		StateStreaming:    "streaming",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

// fakePrimary is a minimal PrimaryStore: per-shard maps guarded by
// per-shard mutexes, with real wal.Logs carrying the records. Writes
// hold the shard mutex across map-update + WAL append, and CatchUp
// takes the same mutex, so a catch-up is exactly a log prefix — the
// same invariant the real store gets from commit ordering.
type fakePrimary struct {
	t    *testing.T
	inc  uint64 // 0 = full catch-up only, like a non-durable store
	logs []*wal.Log
	// routeMu guards the table Routing reports: epoch 0 with ids equal
	// to positions until a test reshapes it.
	routeMu sync.Mutex
	epoch   uint64
	ids     []uint64
	mus     []sync.Mutex
	maps    []map[string]string
	dirty   []map[string]bool
	// stall, when set before the hub serves, replaces CatchUp's walk.
	stall func(ctx context.Context) error
}

func newFakePrimary(t *testing.T, shards int) *fakePrimary {
	fp := &fakePrimary{
		t:     t,
		logs:  make([]*wal.Log, shards),
		mus:   make([]sync.Mutex, shards),
		maps:  make([]map[string]string, shards),
		dirty: make([]map[string]bool, shards),
	}
	for i := range fp.logs {
		l, _, err := wal.Open(t.TempDir(), wal.Options{Mode: wal.ModeOff}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fp.logs[i] = l
		fp.maps[i] = make(map[string]string)
		fp.dirty[i] = make(map[string]bool)
	}
	t.Cleanup(func() {
		for _, l := range fp.logs {
			l.Close()
		}
	})
	return fp
}

func (fp *fakePrimary) ShardWAL(i int) *wal.Log { return fp.logs[i] }
func (fp *fakePrimary) Incarnation() uint64     { return fp.inc }

// Routing reports a uniform table: one slice per shard, ids equal to
// positions — a legacy-shaped primary — unless reshape renamed them.
func (fp *fakePrimary) Routing() (uint64, []wire.ReplShardSlice) {
	fp.routeMu.Lock()
	defer fp.routeMu.Unlock()
	topo := make([]wire.ReplShardSlice, len(fp.logs))
	n := uint64(len(fp.logs))
	for i := range topo {
		topo[i] = wire.ReplShardSlice{ID: uint64(i), Mod: n, Res: uint64(i)}
		if fp.ids != nil {
			topo[i].ID = fp.ids[i]
		}
	}
	return fp.epoch, topo
}

// reshape publishes a new routing epoch whose positions carry ids.
func (fp *fakePrimary) reshape(epoch uint64, ids ...uint64) {
	fp.routeMu.Lock()
	defer fp.routeMu.Unlock()
	fp.epoch, fp.ids = epoch, ids
}

// CatchUp follows the real store's contract. With an incarnation and a
// position it emits every key ever touched at its current value or as a
// DEL — a conservative superset of the real chain-plus-dirty-set walk,
// complete for any applied position > 0. Otherwise it emits a FLUSH and
// every pair.
func (fp *fakePrimary) CatchUp(ctx context.Context, shard int, applied uint64, emit func(wal.Op) error) (bool, error) {
	if fp.stall != nil {
		return false, fp.stall(ctx)
	}
	fp.mus[shard].Lock()
	defer fp.mus[shard].Unlock()
	delta := fp.inc != 0 && applied != 0
	var ops []wal.Op
	if delta {
		for k := range fp.dirty[shard] {
			op := wal.Op{Kind: wal.OpDel, Key: k}
			if v, ok := fp.maps[shard][k]; ok {
				op = wal.Op{Kind: wal.OpSet, Key: k, Val: v}
			}
			ops = append(ops, op)
		}
	} else {
		ops = append(ops, wal.Op{Kind: wal.OpFlush})
		for k, v := range fp.maps[shard] {
			ops = append(ops, wal.Op{Kind: wal.OpSet, Key: k, Val: v})
		}
	}
	for _, op := range ops {
		if err := emit(op); err != nil {
			return false, err
		}
	}
	return delta, nil
}

// set writes one key and returns the record's WAL seq.
func (fp *fakePrimary) set(shard int, k, v string) uint64 {
	fp.mus[shard].Lock()
	defer fp.mus[shard].Unlock()
	fp.maps[shard][k] = v
	fp.dirty[shard][k] = true
	payload := wal.AppendOps(nil, []wal.Op{{Kind: wal.OpSet, Key: k, Val: v}})
	seq := fp.logs[shard].Reserve(payload)
	fp.logs[shard].Commit(seq)
	if err := fp.logs[shard].WaitDurable(seq); err != nil {
		fp.t.Errorf("WaitDurable: %v", err)
	}
	return seq
}

func (fp *fakePrimary) del(shard int, k string) {
	fp.mus[shard].Lock()
	defer fp.mus[shard].Unlock()
	delete(fp.maps[shard], k)
	fp.dirty[shard][k] = true
	payload := wal.AppendOps(nil, []wal.Op{{Kind: wal.OpDel, Key: k}})
	seq := fp.logs[shard].Reserve(payload)
	fp.logs[shard].Commit(seq)
	if err := fp.logs[shard].WaitDurable(seq); err != nil {
		fp.t.Errorf("WaitDurable: %v", err)
	}
}

func (fp *fakePrimary) snapshot(shard int) map[string]string {
	fp.mus[shard].Lock()
	defer fp.mus[shard].Unlock()
	out := make(map[string]string, len(fp.maps[shard]))
	for k, v := range fp.maps[shard] {
		out[k] = v
	}
	return out
}

// fakeFollower is a minimal FollowerStore: per-shard maps.
type fakeFollower struct {
	mu    sync.Mutex
	maps  []map[string]string
	epoch uint64
}

func newFakeFollower(shards int) *fakeFollower {
	ff := &fakeFollower{maps: make([]map[string]string, shards)}
	for i := range ff.maps {
		ff.maps[i] = make(map[string]string)
	}
	return ff
}

func (ff *fakeFollower) NumShards() int { return len(ff.maps) }

func (ff *fakeFollower) ApplyShardOps(shard int, ops []wal.Op) error {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	for _, op := range ops {
		switch op.Kind {
		case wal.OpSet:
			ff.maps[shard][op.Key] = op.Val
		case wal.OpDel:
			delete(ff.maps[shard], op.Key)
		case wal.OpFlush:
			ff.maps[shard] = make(map[string]string)
		default:
			return fmt.Errorf("fakeFollower: op kind %d", op.Kind)
		}
	}
	return nil
}

func (ff *fakeFollower) ResumeEpoch(e uint64) {
	ff.mu.Lock()
	ff.epoch = e
	ff.mu.Unlock()
}

func (ff *fakeFollower) RoutingEpoch() uint64 { return 0 }

// AdoptRouting reshapes when the shard count differs: the fake keeps
// no slices, so the count is its whole shape.
func (ff *fakeFollower) AdoptRouting(epoch uint64, topo []wire.ReplShardSlice) (bool, error) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if len(topo) == len(ff.maps) {
		return false, nil
	}
	ff.maps = make([]map[string]string, len(topo))
	for i := range ff.maps {
		ff.maps[i] = make(map[string]string)
	}
	return true, nil
}

func (ff *fakeFollower) snapshot(shard int) map[string]string {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	out := make(map[string]string, len(ff.maps[shard]))
	for k, v := range ff.maps[shard] {
		out[k] = v
	}
	return out
}

// serveHub is the minimal server side of SUBSCRIBE-WAL: accept, read
// the request, hand the connection to the hub (which answers it). It
// returns the listen address.
func serveHub(t *testing.T, h *Hub) string {
	return serveHubFn(t, func() *Hub { return h })
}

// serveHubFn is serveHub with a hub accessor, so a test can swap in a
// fresh hub on the same address (simulating a feed drop without a
// primary restart). Cleanup waits for every connection it served: a
// feed the test's deferred hub Close cut still logs through t on its
// way out, and logging after the test has completed panics.
func serveHubFn(t *testing.T, getHub func() *Hub) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		served.Wait()
	})
	served.Add(1) // the accept loop: a connection is counted before the loop is uncounted
	go func() {
		defer served.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			served.Add(1)
			go func() {
				defer served.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				payload, err := wire.ReadFrameBuf(br, nil)
				if err != nil {
					return
				}
				var req wire.Request
				if err := wire.DecodeRequestInto(&req, payload); err != nil || req.Op != wire.OpSubscribeWAL {
					return
				}
				getHub().ServeFeed(conn, br, bufio.NewWriter(conn))
			}()
		}
	}()
	return ln.Addr().String()
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestHubFollowerCatchUpAndTail is the loopback integration test:
// pre-populate a primary, attach a cold follower mid-churn, and check
// the follower converges to the primary's exact contents — snapshot
// phase, live tail, deletes, and sync acks all exercised.
func TestHubFollowerCatchUpAndTail(t *testing.T) {
	const shards = 2
	fp := newFakePrimary(t, shards)
	for i := 0; i < 100; i++ {
		fp.set(i%shards, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
	}

	h := NewHub(fp, HubConfig{SyncAck: true, Logf: t.Logf})
	defer h.Close()
	addr := serveHub(t, h)

	ff := newFakeFollower(shards)
	fl, err := StartFollower(FollowerConfig{
		Primary: addr,
		Store:   ff,
		Backoff: Backoff{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	// Churn while the follower catches up: overwrites, new keys, deletes.
	for i := 0; i < 200; i++ {
		fp.set(i%shards, fmt.Sprintf("k%03d", i%120), fmt.Sprintf("w%d", i))
	}
	for i := 0; i < 20; i++ {
		fp.del(i%shards, fmt.Sprintf("k%03d", i))
	}

	waitFor(t, 5*time.Second, "follower streaming", func() bool { return fl.State() == StateStreaming })

	// A sync-acked write: WaitAcked returns only once a follower ack
	// covers the seq, and the follower applies before acking — so the
	// key must be visible on the follower immediately after.
	seq := fp.set(0, "sync-key", "sync-val")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.WaitAcked(ctx, 0, seq); err != nil {
		t.Fatalf("WaitAcked: %v", err)
	}
	if got := ff.snapshot(0)["sync-key"]; got != "sync-val" {
		t.Fatalf("after WaitAcked, follower has %q for sync-key", got)
	}
	// An id the table does not hold — a waiter whose shard a MERGE
	// retired — is released.
	if err := h.WaitAcked(ctx, shards, seq); err != nil {
		t.Fatalf("WaitAcked on an id the table does not hold: %v", err)
	}

	// Wait out the remaining tail, then compare shard-for-shard.
	lastSeqs := make([]uint64, shards)
	for s := 0; s < shards; s++ {
		lastSeqs[s] = fp.set(s, "fin", "fin")
	}
	for s := 0; s < shards; s++ {
		if err := h.WaitAcked(ctx, s, lastSeqs[s]); err != nil {
			t.Fatalf("WaitAcked shard %d: %v", s, err)
		}
	}
	for s := 0; s < shards; s++ {
		want, got := fp.snapshot(s), ff.snapshot(s)
		if len(want) != len(got) {
			t.Fatalf("shard %d: follower has %d keys, primary %d", s, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("shard %d key %q: follower %q, primary %q", s, k, got[k], v)
			}
		}
	}

	// The hub's view: one follower, its acked records > 0, and the lag
	// drained to zero.
	waitFor(t, 5*time.Second, "lag to drain", func() bool { return h.LagBytes() == 0 })
	counters := h.Counters()
	byName := map[string]uint64{}
	for _, c := range counters {
		byName[c.Name] = c.Value
	}
	if byName["repl_followers"] != 1 {
		t.Fatalf("repl_followers = %d, want 1: %+v", byName["repl_followers"], counters)
	}
	if byName["follower0.acked_records"] == 0 {
		t.Fatalf("follower0.acked_records = 0: %+v", counters)
	}
}

// TestHeartbeatKeepsIdleLinkAlive: with a short Idle budget and no
// traffic, pings must flow and the link must stay in streaming state
// well past several idle windows.
func TestHeartbeatKeepsIdleLinkAlive(t *testing.T) {
	const shards = 1
	fp := newFakePrimary(t, shards)
	fp.set(0, "a", "1")

	tm := Timeouts{Connect: 2 * time.Second, Reply: 200 * time.Millisecond, Idle: 50 * time.Millisecond}
	h := NewHub(fp, HubConfig{Logf: t.Logf})
	h.tm = tm
	defer h.Close()
	addr := serveHub(t, h)

	ff := newFakeFollower(shards)
	fl := newFollower(FollowerConfig{
		Primary: addr,
		Store:   ff,
		Backoff: Backoff{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond},
		Logf:    t.Logf,
	})
	fl.tm = tm
	go fl.run()
	defer fl.Close()

	waitFor(t, 5*time.Second, "follower streaming", func() bool { return fl.State() == StateStreaming })
	reconnects := fl.reconnects.Load()

	// ~10 idle windows of silence: only heartbeats keep the link up.
	time.Sleep(500 * time.Millisecond)
	if fl.State() != StateStreaming {
		t.Fatalf("after idle period, state = %v, want streaming", fl.State())
	}
	if got := fl.reconnects.Load(); got != reconnects {
		t.Fatalf("link reconnected %d times during idle period", got-reconnects)
	}

	// And the link still works: a write lands.
	fp.set(0, "after-idle", "yes")
	waitFor(t, 5*time.Second, "post-idle write to apply", func() bool {
		return ff.snapshot(0)["after-idle"] == "yes"
	})
}

// TestFollowerReconnectsAfterFeedDrop: kill the follower's connection
// server-side; the follower must reconnect with backoff and re-run
// catch-up (including re-clearing, so no stale keys survive).
func TestFollowerReconnectsAfterFeedDrop(t *testing.T) {
	const shards = 1
	fp := newFakePrimary(t, shards)
	fp.set(0, "a", "1")
	fp.set(0, "stale", "x")

	h := NewHub(fp, HubConfig{Logf: t.Logf})
	addr := serveHub(t, h)

	ff := newFakeFollower(shards)
	fl, err := StartFollower(FollowerConfig{
		Primary: addr,
		Store:   ff,
		Backoff: Backoff{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	waitFor(t, 5*time.Second, "follower streaming", func() bool { return fl.State() == StateStreaming })

	// Drop every feed (hub close poisons the connections), delete a key
	// while the follower is away, then let it reconnect to a new hub.
	h.Close()
	fp.del(0, "stale")
	fp.set(0, "fresh", "y")

	h2 := NewHub(fp, HubConfig{Logf: t.Logf})
	defer h2.Close()
	// Re-point the accept loop is not possible on the old listener —
	// instead the old listener's handler still serves h (closed), so
	// feeds die instantly and the follower retries. Serve h2 on the SAME
	// address is not possible either; simplest is a fresh listener and a
	// fresh follower pointed at it, which still exercises re-clear via
	// the first follower's state.
	addr2 := serveHub(t, h2)
	fl2, err := StartFollower(FollowerConfig{
		Primary: addr2,
		Store:   ff, // same store: stale state from the first link must be cleared
		Backoff: Backoff{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.Close()
	defer fl2.Close()

	waitFor(t, 5*time.Second, "second link streaming", func() bool { return fl2.State() == StateStreaming })
	m := ff.snapshot(0)
	if _, ok := m["stale"]; ok {
		t.Fatalf("stale key survived re-catch-up: %v", m)
	}
	if m["fresh"] != "y" || m["a"] != "1" {
		t.Fatalf("follower contents after re-catch-up: %v", m)
	}
}

// TestDeltaCatchUpOnReconnect: a follower that reconnects to the same
// primary incarnation with a usable applied position gets delta
// catch-up — churn ships as SET/DEL records layered onto its surviving
// state, with no FLUSH — while the first, cold connection still takes
// the full path.
func TestDeltaCatchUpOnReconnect(t *testing.T) {
	const shards = 2
	fp := newFakePrimary(t, shards)
	fp.inc = 77
	for i := 0; i < 40; i++ {
		fp.set(i%shards, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
	}

	var hubMu sync.Mutex
	h := NewHub(fp, HubConfig{SyncAck: true, Logf: t.Logf})
	getHub := func() *Hub {
		hubMu.Lock()
		defer hubMu.Unlock()
		return h
	}
	addr := serveHubFn(t, getHub)

	ff := newFakeFollower(shards)
	fl, err := StartFollower(FollowerConfig{
		Primary: addr,
		Store:   ff,
		Backoff: Backoff{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	waitFor(t, 5*time.Second, "follower streaming", func() bool { return fl.State() == StateStreaming })

	// The cold connection had no position: full, not delta.
	if got := counterValue(h, "repl_delta_catchups"); got != 0 {
		t.Fatalf("cold catch-up used the delta path %d times", got)
	}

	// Make sure every shard's position is acked before the drop, so the
	// reconnect HELLO carries usable (non-zero) applied seqs.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for s := 0; s < shards; s++ {
		seq := fp.set(s, "pre-drop", "1")
		if err := h.WaitAcked(ctx, s, seq); err != nil {
			t.Fatalf("WaitAcked shard %d: %v", s, err)
		}
	}

	// Swap in a fresh hub on the same address, then poison the old one:
	// the follower's link dies and it reconnects into the new hub with
	// its incarnation and applied positions intact.
	h2 := NewHub(fp, HubConfig{SyncAck: true, Logf: t.Logf})
	defer h2.Close()
	hubMu.Lock()
	old := h
	h = h2
	hubMu.Unlock()
	old.Close()

	// Churn while the follower is away: an overwrite, a new key, and a
	// delete per shard — all must ship as deltas.
	for s := 0; s < shards; s++ {
		fp.set(s, fmt.Sprintf("k%03d", s), "rewritten")
		fp.set(s, "fresh", "after-drop")
		fp.del(s, fmt.Sprintf("k%03d", s+2*shards))
	}

	// A key the primary never wrote: a full catch-up would clear it
	// away, the delta path must leave it untouched.
	ff.mu.Lock()
	ff.maps[0]["local-survivor"] = "still-here"
	ff.mu.Unlock()

	waitFor(t, 5*time.Second, "second link streaming", func() bool { return fl.State() == StateStreaming && counterValue(h2, "repl_followers") == 1 })
	if got := counterValue(h2, "repl_delta_catchups"); got != shards {
		t.Fatalf("repl_delta_catchups = %d, want %d", got, shards)
	}
	for s := 0; s < shards; s++ {
		seq := fp.set(s, "fin", "fin")
		if err := h2.WaitAcked(ctx, s, seq); err != nil {
			t.Fatalf("WaitAcked shard %d: %v", s, err)
		}
	}
	for s := 0; s < shards; s++ {
		want, got := fp.snapshot(s), ff.snapshot(s)
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("shard %d key %q: follower %q, primary %q", s, k, got[k], v)
			}
		}
		if _, ok := got[fmt.Sprintf("k%03d", s+2*shards)]; ok {
			t.Fatalf("shard %d: deleted key survived delta catch-up", s)
		}
	}
	if got := ff.snapshot(0)["local-survivor"]; got != "still-here" {
		t.Fatalf("delta catch-up cleared the shard (local-survivor = %q)", got)
	}
}

// counterValue extracts one named counter from a hub.
func counterValue(h *Hub, name string) uint64 {
	for _, c := range h.Counters() {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestWaitAckedNoFollowers: sync-ack degrades to async when no follower
// is connected — the write path must not stall.
func TestWaitAckedNoFollowers(t *testing.T) {
	fp := newFakePrimary(t, 1)
	h := NewHub(fp, HubConfig{SyncAck: true})
	defer h.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := h.WaitAcked(ctx, 0, 42); err != nil {
		t.Fatalf("WaitAcked with no followers: %v", err)
	}
}

// TestWaitAckedReleasesDroppedID: sync-ack waits are keyed by stable
// shard id. After CutAll the hub tracks the new table's ids only: with a
// follower connected again, a wait on the id the reshape dropped returns
// at once, while the id now at that position waits for — and gets — its
// follower's ack.
func TestWaitAckedReleasesDroppedID(t *testing.T) {
	const shards = 2
	fp := newFakePrimary(t, shards)
	h := NewHub(fp, HubConfig{SyncAck: true, Logf: t.Logf})
	defer h.Close()
	addr := serveHub(t, h)
	ff := newFakeFollower(shards)
	fl, err := StartFollower(FollowerConfig{
		Primary: addr,
		Store:   ff,
		Backoff: Backoff{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	waitFor(t, 5*time.Second, "follower streaming", func() bool { return fl.State() == StateStreaming })

	// A reshard retires id 1; id 7 takes its position.
	fp.reshape(1, 0, 7)
	h.CutAll("routing epoch 1")
	reconnected := func() bool {
		var n uint64
		for _, c := range fl.Counters() {
			if c.Name == "repl_reconnects" {
				n = c.Value
			}
		}
		return n > 0 && fl.State() == StateStreaming && counterValue(h, "repl_followers") == 1
	}
	waitFor(t, 5*time.Second, "follower back on the new table", reconnected)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.WaitAcked(ctx, 1, math.MaxUint64); err != nil {
		t.Fatalf("WaitAcked on the dropped id: %v", err)
	}
	short, cancelShort := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancelShort()
	if err := h.WaitAcked(short, 7, math.MaxUint64); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitAcked on the new id past every ack: %v; want it waiting", err)
	}
	seq := fp.set(1, "after-reshape", "v")
	if err := h.WaitAcked(ctx, 7, seq); err != nil {
		t.Fatalf("WaitAcked on the new id: %v", err)
	}
	if got := ff.snapshot(1)["after-reshape"]; got != "v" {
		t.Fatalf("after WaitAcked, follower has %q at position 1", got)
	}
}

// TestCatchUpStopsWhenFeedIsCut: a catch-up runs under its feed's
// link, so CutAll and Close each end a feed whose catch-up is blocked
// in the store — with no socket write to fail — and the store sees the
// cut's cause.
func TestCatchUpStopsWhenFeedIsCut(t *testing.T) {
	rows := []struct {
		name string
		cut  func(h *Hub)
		want func(cause error) bool
	}{
		{"CutAll", func(h *Hub) { h.CutAll("test reshard") }, func(cause error) bool {
			return cause != nil && strings.Contains(cause.Error(), "feed cut: test reshard")
		}},
		{"Close", (*Hub).Close, func(cause error) bool { return errors.Is(cause, errHubClosed) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fp := newFakePrimary(t, 1)
			entered, seen := make(chan struct{}), make(chan error, 1)
			fp.stall = func(ctx context.Context) error {
				close(entered)
				<-ctx.Done()
				seen <- context.Cause(ctx)
				return context.Cause(ctx)
			}
			h := NewHub(fp, HubConfig{Logf: t.Logf})
			defer h.Close()

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					served <- err
					return
				}
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := wire.ReadFrameBuf(br, nil); err != nil {
					served <- err
					return
				}
				served <- h.ServeFeed(conn, br, bufio.NewWriter(conn))
			}()

			l, _, err := Dial(context.Background(), ln.Addr().String(), &wire.Request{Op: wire.OpSubscribeWAL, Sem: wire.SemDefault})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			hello, err := wire.AppendReplFrame(nil, &wire.ReplFrame{Kind: wire.ReplHello})
			if err == nil {
				err = l.Write(hello)
			}
			if err != nil {
				t.Fatal(err)
			}
			go l.Recv(func([]byte) error { return nil }) // takes TOPOLOGY off the socket

			<-entered
			row.cut(h)
			select {
			case err := <-served:
				if !row.want(err) {
					t.Fatalf("ServeFeed = %v, want the cut's cause", err)
				}
			case <-time.After(time.Second):
				t.Fatal("ServeFeed still running 1s after the cut: its catch-up was not cancelled")
			}
			if cause := <-seen; !row.want(cause) {
				t.Fatalf("CatchUp saw cause %v, want the cut's", cause)
			}
		})
	}
}

// TestFollowerCloseDuringDial: Close on a follower whose handshake is in
// flight — the primary accepted the connection but never answers
// SUBSCRIBE — returns at once rather than after the Connect budget, and
// the connection it was dialing is closed, not left behind.
func TestFollowerCloseDuringDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()

	fl, err := StartFollower(FollowerConfig{Primary: ln.Addr().String(), Store: newFakeFollower(1), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	conn := <-accepted
	defer conn.Close()
	// The SUBSCRIBE request arrives: the follower is now waiting for its
	// answer.
	if _, err := wire.ReadFrameBuf(bufio.NewReader(conn), nil); err != nil {
		t.Fatal(err)
	}

	budget := fl.tm.Connect
	start := time.Now()
	fl.Close()
	if d := time.Since(start); d > budget/5 {
		t.Fatalf("Close took %v with a handshake in flight (Connect budget %v)", d, budget)
	}
	conn.SetReadDeadline(time.Now().Add(budget / 5))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("primary side read %v after Close, want EOF: the dialed connection was left open", err)
	}
}
