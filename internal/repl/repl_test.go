package repl

import (
	"bufio"
	"context"
	"fmt"
	"net"
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
	tm := Timeouts{}.WithDefaults()
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
	t     *testing.T
	inc   uint64 // 0 = full catch-up only, like a non-durable store
	logs  []*wal.Log
	mus   []sync.Mutex
	maps  []map[string]string
	dirty []map[string]bool
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

func (fp *fakePrimary) NumShards() int          { return len(fp.logs) }
func (fp *fakePrimary) ShardWAL(i int) *wal.Log { return fp.logs[i] }
func (fp *fakePrimary) Incarnation() uint64     { return fp.inc }

// Routing reports a static epoch-0 uniform table: one slice per shard,
// ids equal to positions — a legacy-shaped primary.
func (fp *fakePrimary) Routing() (uint64, []wire.ReplShardSlice) {
	topo := make([]wire.ReplShardSlice, len(fp.logs))
	n := uint64(len(fp.logs))
	for i := range topo {
		topo[i] = wire.ReplShardSlice{ID: uint64(i), Mod: n, Res: uint64(i)}
	}
	return 0, topo
}

// CatchUp follows the real store's contract. With an incarnation and a
// position it emits every key ever touched at its current value or as a
// DEL — a conservative superset of the real chain-plus-dirty-set walk,
// complete for any applied position > 0. Otherwise it emits a FLUSH and
// every pair.
func (fp *fakePrimary) CatchUp(ctx context.Context, shard int, applied uint64, emit func(wal.Op) error) (bool, error) {
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
// the request, answer with the shard count, hand the connection to the
// hub. It returns the listen address.
func serveHub(t *testing.T, h *Hub, shards int) string {
	return serveHubFn(t, func() *Hub { return h }, shards)
}

// serveHubFn is serveHub with a hub accessor, so a test can swap in a
// fresh hub on the same address (simulating a feed drop without a
// primary restart).
func serveHubFn(t *testing.T, getHub func() *Hub, shards int) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				payload, err := wire.ReadFrameBuf(br, nil, wire.MaxFrame)
				if err != nil {
					return
				}
				var req wire.Request
				if err := wire.DecodeRequestInto(&req, payload); err != nil || req.Op != wire.OpSubscribeWAL {
					return
				}
				out, err := wire.AppendResponseFrame(nil, wire.OpSubscribeWAL,
					&wire.Response{Status: wire.StatusOK, N: uint64(shards)})
				if err != nil {
					return
				}
				if _, err := bw.Write(out); err != nil {
					return
				}
				if err := bw.Flush(); err != nil {
					return
				}
				getHub().ServeFeed(conn, br, bw)
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
	addr := serveHub(t, h, shards)

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
	// A position past the table — a waiter whose shard a MERGE retired —
	// is released, not indexed.
	if err := h.WaitAcked(ctx, shards, seq); err != nil {
		t.Fatalf("WaitAcked on a position past the table: %v", err)
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
	h := NewHub(fp, HubConfig{Timeouts: tm, Logf: t.Logf})
	defer h.Close()
	addr := serveHub(t, h, shards)

	ff := newFakeFollower(shards)
	fl, err := StartFollower(FollowerConfig{
		Primary:  addr,
		Store:    ff,
		Timeouts: tm,
		Backoff:  Backoff{Min: 10 * time.Millisecond, Max: 50 * time.Millisecond},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	addr := serveHub(t, h, shards)

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
	addr2 := serveHub(t, h2, shards)
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
	addr := serveHubFn(t, getHub, shards)

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
