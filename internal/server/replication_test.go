package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"polytm/internal/core"
	"polytm/internal/repl"
	"polytm/internal/server/client"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// startReplServer builds, wires, and serves one server, returning it
// with its address. Cleanup shuts it down.
func startReplServer(t *testing.T, cfg Config, dur *Durability, rc *ReplConfig) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	if dur != nil {
		if _, err := srv.Store().EnableDurability(*dur); err != nil {
			t.Fatalf("durability: %v", err)
		}
	}
	if rc != nil {
		if err := srv.EnableReplication(*rc); err != nil {
			t.Fatalf("replication: %v", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		srv.Store().CloseDurability()
	})
	return srv, ln.Addr().String()
}

func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// scanPairs fetches the full keyspace through a client as a map.
func scanPairs(t *testing.T, cl *client.Client) map[string]string {
	t.Helper()
	pairs, err := cl.Scan(nil, nil, 0)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	m := make(map[string]string, len(pairs))
	for _, kv := range pairs {
		m[string(kv.Key)] = string(kv.Val)
	}
	return m
}

// TestReplicationCatchUpUnderChurn is the tentpole acceptance test: a
// cold follower attaches to a primary mid-write-storm (so the snapshot
// races live WAL traffic), and once the lag drains, GET, MGET, and
// SCAN served by the follower return exactly what the primary returns.
// The preload either fits each shard's full catch-up in one walk chunk
// or spans at least four.
func TestReplicationCatchUpUnderChurn(t *testing.T) {
	for _, tc := range []struct{ n, chunks int }{{300, 1}, {2600, 4}} {
		t.Run(fmt.Sprintf("%d-keys", tc.n), func(t *testing.T) { replicationCatchUpUnderChurn(t, tc.n, tc.chunks) })
	}
}

// replicationCatchUpUnderChurn preloads n keys, at least chunks walk
// chunks per shard, churns over 4n/3 of them while a cold follower
// catches up, and checks the follower converges.
func replicationCatchUpUnderChurn(t *testing.T, n, chunks int) {
	psrv, paddr := startReplServer(t, Config{StoreShards: 2},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1},
		&ReplConfig{SyncAck: true})
	pcl, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pcl.Close()

	key := func(i int) []byte { return []byte(fmt.Sprintf("churn-%04d", i)) }
	for i := 0; i < n; i++ {
		if err := pcl.Set(key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("preload set %d: %v", i, err)
		}
	}
	for _, sh := range psrv.Store().tab().shards {
		if got := sh.m.Len(); got <= (chunks-1)*walkChunk {
			t.Fatalf("shard %d holds %d keys, want more than %d walk chunks", sh.idx, got, chunks-1)
		}
	}
	span := 4 * n / 3

	// Writer churn racing the follower's catch-up: overwrites, inserts,
	// deletes, and a few cross-shard TXNs.
	stop := make(chan struct{})
	var churnErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ccl, err := client.Dial(paddr)
		if err != nil {
			churnErr = err
			return
		}
		defer ccl.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 5 {
			case 0, 1, 2:
				if err := ccl.Set(key(i%span), []byte(fmt.Sprintf("w%d", i))); err != nil {
					churnErr = fmt.Errorf("churn set: %w", err)
					return
				}
			case 3:
				if _, err := ccl.Del(key((i * 7) % span)); err != nil {
					churnErr = fmt.Errorf("churn del: %w", err)
					return
				}
			case 4:
				if _, err := ccl.Txn(
					wire.Request{Op: wire.OpSet, Key: key(i % 400), Val: []byte("txn")},
					wire.Request{Op: wire.OpSet, Key: key((i + span/2) % span), Val: []byte("txn")},
				); err != nil {
					churnErr = fmt.Errorf("churn txn: %w", err)
					return
				}
			}
		}
	}()

	// The follower comes up durable in its own right (applied records
	// re-log through its own WAL) while the storm is in progress.
	fsrv, faddr := startReplServer(t, Config{StoreShards: 2},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1},
		&ReplConfig{Follow: paddr, Backoff: repl.Backoff{Min: 10 * time.Millisecond}})
	waitCond(t, 10*time.Second, "follower streaming", func() bool {
		fl := fsrv.Follower()
		return fl != nil && fl.State() == repl.StateStreaming
	})

	close(stop)
	wg.Wait()
	if churnErr != nil {
		t.Fatal(churnErr)
	}

	fcl, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fcl.Close()

	// Converge: the follower's full scan must reach the primary's.
	want := scanPairs(t, pcl)
	waitCond(t, 10*time.Second, "follower to converge", func() bool {
		got := scanPairs(t, fcl)
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	})

	// GET and MGET through the follower match the primary key-by-key.
	i := 0
	var mkeys [][]byte
	for k := range want {
		pv, pok, err := pcl.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		fv, fok, err := fcl.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if pok != fok || string(pv) != string(fv) {
			t.Fatalf("GET %q: primary (%q,%v) vs follower (%q,%v)", k, pv, pok, fv, fok)
		}
		mkeys = append(mkeys, []byte(k))
		if i++; i >= 50 {
			break
		}
	}
	pvals, pfound, err := pcl.MGet(mkeys...)
	if err != nil {
		t.Fatal(err)
	}
	fvals, ffound, err := fcl.MGet(mkeys...)
	if err != nil {
		t.Fatal(err)
	}
	for j := range mkeys {
		if pfound[j] != ffound[j] || string(pvals[j]) != string(fvals[j]) {
			t.Fatalf("MGET %q: primary (%q,%v) vs follower (%q,%v)",
				mkeys[j], pvals[j], pfound[j], fvals[j], ffound[j])
		}
	}
}

// cutShardOne is a follower store whose second operation group holding
// a SET for shard 1 fails, once: the link dies part-way through that
// shard's catch-up, after its first catch-up record landed.
type cutShardOne struct {
	*Store
	mu   sync.Mutex
	sets int
}

func (c *cutShardOne) ApplyShardOps(i int, ops []wal.Op) error {
	if i == 1 && slices.ContainsFunc(ops, func(op wal.Op) bool { return op.Kind == wal.OpSet }) {
		c.mu.Lock()
		c.sets++
		n := c.sets
		c.mu.Unlock()
		if n == 2 {
			return errors.New("test: catch-up cut")
		}
	}
	return c.Store.ApplyShardOps(i, ops)
}

func (c *cutShardOne) cut() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sets >= 2
}

// TestCutCatchUpAfterRestartKeepsEveryKey: a restarted primary recovers
// its bases with cover 0, and a follower whose catch-up is cut after
// shard 0 finished and shard 1 was half loaded reconnects with position
// 0 on shard 1 under a matching incarnation. Position 0 must mean "no
// position" — a full catch-up — not a delta from the empty chain that
// ships nothing and leaves the follower streaming with keys missing.
func TestCutCatchUpAfterRestartKeepsEveryKey(t *testing.T) {
	const keys = 1200
	dur := Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1}
	first := New(Config{StoreShards: 2})
	if _, err := first.Store().EnableDurability(dur); err != nil {
		t.Fatal(err)
	}
	val := strings.Repeat("v", 1024)
	for i := 0; i < keys; i++ {
		execOK(t, first.Store(), &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault,
			Key: []byte(fmt.Sprintf("cut-%05d", i)), Val: []byte(val)})
	}
	if err := first.Store().Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := first.Store().CloseDurability(); err != nil {
		t.Fatal(err)
	}

	psrv, paddr := startReplServer(t, Config{StoreShards: 2}, &dur, &ReplConfig{})
	if c := psrv.Store().ShardWAL(1).Chain(); c.BaseSeg == 0 || c.BaseCover != 0 {
		t.Fatalf("restarted primary's shard 1 chain = %+v, want a recovered base with cover 0", c)
	}
	fstore := NewShardedStore([]*core.TM{core.NewDefault(), core.NewDefault()})
	fstore.BecomeFollower(paddr)
	cut := &cutShardOne{Store: fstore}
	fl, err := repl.StartFollower(repl.FollowerConfig{
		Primary: paddr,
		Store:   cut,
		Backoff: repl.Backoff{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	waitCond(t, 10*time.Second, "the cut and a streaming reconnect", func() bool {
		return cut.cut() && fl.State() == repl.StateStreaming
	})

	want, got := scanAll(t, psrv.Store()), scanAll(t, fstore)
	if len(want) != keys {
		t.Fatalf("primary holds %d keys, want %d", len(want), keys)
	}
	missing := 0
	for k, v := range want {
		if got[k] != v {
			missing++
		}
	}
	if missing != 0 || len(got) != keys {
		t.Fatalf("follower streaming with %d of %d keys missing or wrong (%d keys held)", missing, keys, len(got))
	}
}

// TestFollowerRejectsWrites: every mutating opcode on a follower store
// gets exactly one clean StatusErr carrying the primary address, with
// ZERO engine transactions started and no state change; reads and
// PING still serve.
func TestFollowerRejectsWrites(t *testing.T) {
	st := NewStore(core.NewDefault())
	if resp := st.Execute(&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault,
		Key: []byte("pre"), Val: []byte("1")}); resp.Status != wire.StatusOK {
		t.Fatalf("pre-follower set: %v", resp.Status)
	}
	st.BecomeFollower("10.0.0.1:7535")

	starts := st.Stats().Starts
	muts := []*wire.Request{
		{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("k"), Val: []byte("v")},
		{Op: wire.OpCAS, Sem: wire.SemDefault, Key: []byte("k"), Old: []byte("a"), Val: []byte("b")},
		{Op: wire.OpDel, Sem: wire.SemDefault, Key: []byte("pre")},
		{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{{Op: wire.OpSet, Key: []byte("k"), Val: []byte("v")}}},
		{Op: wire.OpFlush, Sem: wire.SemDefault},
	}
	for _, req := range muts {
		resp := st.Execute(req)
		if resp.Status != wire.StatusErr {
			t.Fatalf("%v on follower: status %v, want StatusErr", req.Op, resp.Status)
		}
		np, ok := wire.ParseNotPrimary(resp.Msg)
		if !ok {
			t.Fatalf("%v rejection not a NotPrimaryError: %q", req.Op, resp.Msg)
		}
		if np.Primary != "10.0.0.1:7535" {
			t.Fatalf("%v redirect = %q", req.Op, np.Primary)
		}
		if !errors.Is(np, wire.ErrNotPrimary) {
			t.Fatalf("%v rejection does not match ErrNotPrimary", req.Op)
		}
	}
	if got := st.Stats().Starts; got != starts {
		t.Fatalf("rejections started %d engine transactions, want 0", got-starts)
	}

	// No write became visible, and reads/PING still serve.
	if resp := st.Execute(&wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: []byte("k")}); resp.Status != wire.StatusNotFound {
		t.Fatalf("rejected SET visible: %v", resp.Status)
	}
	if resp := st.Execute(&wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: []byte("pre")}); resp.Status != wire.StatusOK || string(resp.Val) != "1" {
		t.Fatalf("pre-existing key unreadable on follower: %v %q", resp.Status, resp.Val)
	}
	if resp := st.Execute(&wire.Request{Op: wire.OpPing, Sem: wire.SemDefault}); resp.Status != wire.StatusOK {
		t.Fatalf("PING on follower: %v", resp.Status)
	}
	if resp := st.Execute(&wire.Request{Op: wire.OpScan, Sem: wire.SemDefault}); resp.Status != wire.StatusOK || len(resp.Pairs) != 1 {
		t.Fatalf("SCAN on follower: %v (%d pairs)", resp.Status, len(resp.Pairs))
	}

	// Promotion restores writes and counts the failover.
	st.BecomePrimary()
	if resp := st.Execute(&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault,
		Key: []byte("k"), Val: []byte("v")}); resp.Status != wire.StatusOK {
		t.Fatalf("post-promotion set: %v", resp.Status)
	}
	if st.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers())
	}
}

// TestReplicationStatsRows: the primary's STATS shows its role, the
// follower count and per-follower offsets; the follower's shows its
// role and link counters.
func TestReplicationStatsRows(t *testing.T) {
	_, paddr := startReplServer(t, Config{StoreShards: 2},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1},
		&ReplConfig{})
	fsrv, faddr := startReplServer(t, Config{StoreShards: 2}, nil,
		&ReplConfig{Follow: paddr, Backoff: repl.Backoff{Min: 10 * time.Millisecond}})
	waitCond(t, 10*time.Second, "follower streaming", func() bool {
		fl := fsrv.Follower()
		return fl != nil && fl.State() == repl.StateStreaming
	})

	pcl, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pcl.Close()
	if err := pcl.Set([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	ps, err := pcl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ps["repl_role"] != uint64(RolePrimary) {
		t.Fatalf("primary repl_role = %d", ps["repl_role"])
	}
	if ps["repl_followers"] != 1 {
		t.Fatalf("repl_followers = %d, want 1", ps["repl_followers"])
	}
	if _, ok := ps["follower0.acked_records"]; !ok {
		t.Fatalf("no follower0.acked_records row: %v", ps)
	}
	if _, ok := ps["follower0.lag_bytes"]; !ok {
		t.Fatalf("no follower0.lag_bytes row: %v", ps)
	}

	fcl, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fcl.Close()
	fs, err := fcl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fs["repl_role"] != uint64(RoleFollower) {
		t.Fatalf("follower repl_role = %d", fs["repl_role"])
	}
	if _, ok := fs["repl_applied_records"]; !ok {
		t.Fatalf("no repl_applied_records row: %v", fs)
	}
	if fs["repl_state"] != uint64(repl.StateStreaming) {
		t.Fatalf("repl_state = %d, want streaming", fs["repl_state"])
	}
}

// TestClientFailover: a ReplicaSet keeps writing through a primary
// loss — writes redirect off the dead primary onto the promoted
// follower — and replica reads serve throughout.
func TestClientFailover(t *testing.T) {
	psrv, paddr := startReplServer(t, Config{StoreShards: 2},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1},
		&ReplConfig{SyncAck: true})
	fsrv, faddr := startReplServer(t, Config{StoreShards: 2},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1},
		&ReplConfig{Follow: paddr, Backoff: repl.Backoff{Min: 10 * time.Millisecond}})
	waitCond(t, 10*time.Second, "follower streaming", func() bool {
		fl := fsrv.Follower()
		return fl != nil && fl.State() == repl.StateStreaming
	})

	rs, err := client.DialReplicaSet(paddr, []string{faddr})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	// Writes land on the primary; sync-ack means the follower has each
	// one by the time the write returns, so replica reads see it.
	if err := rs.Set([]byte("before"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := rs.Get([]byte("before"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("replica read: %q %v %v", v, ok, err)
	}

	// A write sent straight at the follower comes back as the typed
	// redirect.
	fcl, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fcl.Close()
	err = fcl.Set([]byte("direct"), []byte("x"))
	var np *wire.NotPrimaryError
	if !errors.As(err, &np) {
		t.Fatalf("follower write error = %v, want NotPrimaryError", err)
	}
	if np.Primary != paddr {
		t.Fatalf("redirect = %q, want %q", np.Primary, paddr)
	}

	// Primary loss + promotion: the set's next write must fail over.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	psrv.Shutdown(ctx)
	cancel()
	if _, err := fsrv.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := rs.SetCtx(wctx, []byte("after"), []byte("2")); err != nil {
		t.Fatalf("post-failover write: %v", err)
	}
	if rs.PrimaryAddr() != faddr {
		t.Fatalf("client primary = %q, want %q", rs.PrimaryAddr(), faddr)
	}
	if rs.Failovers() == 0 {
		t.Fatal("client observed no failover")
	}
	v, ok, err = rs.Get([]byte("after"))
	if err != nil || !ok || string(v) != "2" {
		t.Fatalf("post-failover read: %q %v %v", v, ok, err)
	}
	// The pre-failover acked write survived the switch.
	v, ok, err = rs.Get([]byte("before"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("pre-failover key after switch: %q %v %v", v, ok, err)
	}
}

// typedOps is the typed vocabulary both client types must expose: the
// assignments in TestReplicaSetSharesClientOps fail to compile if
// either grows an operation the other lacks.
type typedOps interface {
	Get(key []byte) ([]byte, bool, error)
	Set(key, val []byte) error
	SetCtx(ctx context.Context, key, val []byte) error
	CAS(key, old, new []byte) (swapped, found bool, current []byte, err error)
	Del(key []byte) (bool, error)
	Scan(from, to []byte, limit uint64) ([]wire.KV, error)
	MGet(keys ...[]byte) ([][]byte, []bool, error)
	Txn(sub ...wire.Request) ([]wire.Response, error)
	Incr(key []byte, delta uint64) (int64, error)
	Decr(key []byte, delta uint64) (int64, error)
	SetEx(key, val []byte, ttl time.Duration) error
	Ping() error
	PingCtx(ctx context.Context) error
	Stats() (map[string]uint64, error)
	Flush() (uint64, error)
}

// TestReplicaSetSharesClientOps: a ReplicaSet serves Client's whole
// typed vocabulary — the same code over a routing transport — so every
// operation gives the result a plain primary connection gives, GET/
// MGET/SCAN are served by the follower and everything else (CAS, INCR,
// SETEX, FLUSH, STATS: none of which a ReplicaSet could issue before)
// by the primary.
func TestReplicaSetSharesClientOps(t *testing.T) {
	_, paddr := startReplServer(t, Config{StoreShards: 2},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1},
		&ReplConfig{SyncAck: true}) // a write's ack means the follower has it
	fsrv, faddr := startReplServer(t, Config{StoreShards: 2},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1},
		&ReplConfig{Follow: paddr, Backoff: repl.Backoff{Min: 10 * time.Millisecond}})
	waitCond(t, 10*time.Second, "follower streaming", func() bool {
		fl := fsrv.Follower()
		return fl != nil && fl.State() == repl.StateStreaming
	})
	dial := func(addr string) *client.Client {
		cl, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	pcl, fcl := dial(paddr), dial(faddr)
	rs, err := client.DialReplicaSet(paddr, []string{faddr})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	// routed sums an endpoint's shardN.ops rows: the requests its store
	// routed (a follower's apply stream and its refusals route nothing).
	routed := func(cl *client.Client) (n uint64) {
		m, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{0, 1} {
			n += m[fmt.Sprintf("shard%d.ops", id)]
		}
		return n
	}
	const onPrimary, onFollower, unrouted = "primary", "follower", ""
	k, ctr, val := []byte("k"), []byte("ctr"), []byte("v1")
	// Run in order from an empty store, the table is deterministic and
	// ends on FLUSH, so a second run starts where the first did.
	table := []struct {
		name string
		on   string
		run  func(c typedOps) string
	}{
		{"Set", onPrimary, func(c typedOps) string { return fmt.Sprint(c.Set(k, val)) }},
		{"SetCtx", onPrimary, func(c typedOps) string { return fmt.Sprint(c.SetCtx(context.Background(), []byte("k2"), val)) }},
		{"Get", onFollower, func(c typedOps) string { return fmt.Sprint(c.Get(k)) }},
		{"Get-miss", onFollower, func(c typedOps) string { return fmt.Sprint(c.Get([]byte("nope"))) }},
		{"MGet", onFollower, func(c typedOps) string { return fmt.Sprint(c.MGet(k, []byte("nope"), []byte("k2"))) }},
		{"Scan", onFollower, func(c typedOps) string { return fmt.Sprint(c.Scan(nil, nil, 0)) }},
		{"CAS", onPrimary, func(c typedOps) string { return fmt.Sprint(c.CAS(k, val, []byte("v2"))) }},
		{"CAS-mismatch", onPrimary, func(c typedOps) string { return fmt.Sprint(c.CAS(k, val, []byte("v3"))) }},
		{"Incr", onPrimary, func(c typedOps) string { return fmt.Sprint(c.Incr(ctr, 5)) }},
		{"Decr", onPrimary, func(c typedOps) string { return fmt.Sprint(c.Decr(ctr, 2)) }},
		{"Incr-non-integer", onPrimary, func(c typedOps) string { return fmt.Sprint(c.Incr(k, 1)) }},
		{"SetEx", onPrimary, func(c typedOps) string { return fmt.Sprint(c.SetEx([]byte("ttl"), val, time.Hour)) }},
		{"SetEx-zero", unrouted, func(c typedOps) string { return fmt.Sprint(c.SetEx([]byte("ttl"), val, 0)) }},
		{"Txn", onPrimary, func(c typedOps) string {
			return fmt.Sprint(c.Txn(wire.Request{Op: wire.OpGet, Key: ctr}, wire.Request{Op: wire.OpSet, Key: []byte("k3"), Val: val}))
		}},
		{"Del", onPrimary, func(c typedOps) string { return fmt.Sprint(c.Del([]byte("k2"))) }},
		{"Ping", unrouted, func(c typedOps) string { return fmt.Sprint(c.Ping(), c.PingCtx(context.Background())) }},
		{"Stats", unrouted, func(c typedOps) string {
			m, err := c.Stats()
			return fmt.Sprint(Role(m["repl_role"]), m["store_shards"], err)
		}},
		{"Flush", onPrimary, func(c typedOps) string { return fmt.Sprint(c.Flush()) }},
	}
	want := make([]string, len(table))
	for i, row := range table {
		want[i] = row.run(pcl)
	}
	if want[len(want)-2] != fmt.Sprint(RolePrimary, 2, error(nil)) {
		t.Fatalf("Stats over the primary connection: %s", want[len(want)-2])
	}
	for i, row := range table {
		p0, f0 := routed(pcl), routed(fcl)
		got := row.run(rs)
		p, f := routed(pcl)-p0, routed(fcl)-f0
		if got != want[i] {
			t.Errorf("%s: ReplicaSet answered %s, Client %s", row.name, got, want[i])
		}
		if (p > 0) != (row.on == onPrimary) || (f > 0) != (row.on == onFollower) {
			t.Errorf("%s: routed %d requests on the primary and %d on the follower, want them on %q", row.name, p, f, row.on)
		}
	}

	// A set pointed at the follower still gets its writes through: the
	// NotPrimaryError names the primary and the request follows it.
	astray, err := client.DialReplicaSet(faddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer astray.Close()
	if n, err := astray.Incr(ctr, 7); err != nil || n != 7 {
		t.Fatalf("INCR through a set pointed at the follower: %d %v", n, err)
	}
	if astray.PrimaryAddr() != paddr || astray.Failovers() != 1 {
		t.Fatalf("after the redirect the set points at %q (%d re-points), want %q", astray.PrimaryAddr(), astray.Failovers(), paddr)
	}
}

// TestPromotedFollowerServesFeeds: a promoted durable follower starts
// its own hub, so a new follower can chain off it.
func TestPromotedFollowerServesFeeds(t *testing.T) {
	psrv, paddr := startReplServer(t, Config{StoreShards: 2},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1},
		&ReplConfig{})
	fsrv, faddr := startReplServer(t, Config{StoreShards: 2},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1},
		&ReplConfig{Follow: paddr, Backoff: repl.Backoff{Min: 10 * time.Millisecond}})
	waitCond(t, 10*time.Second, "follower streaming", func() bool {
		fl := fsrv.Follower()
		return fl != nil && fl.State() == repl.StateStreaming
	})

	pcl, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pcl.Close()
	if err := pcl.Set([]byte("handed-down"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Replication is asynchronous here (no SyncAck): the primary's ack
	// does not mean the follower has the write, and Shutdown cuts the
	// feeds first, so wait for it before taking the primary away.
	fcl, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fcl.Close()
	waitCond(t, 10*time.Second, "follower to receive the key", func() bool {
		v, ok, err := fcl.Get([]byte("handed-down"))
		return err == nil && ok && string(v) == "v"
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	psrv.Shutdown(ctx)
	cancel()
	if _, err := fsrv.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if fsrv.Hub() == nil {
		t.Fatal("promoted durable follower has no hub")
	}

	// Chain a fresh follower off the promoted primary.
	gsrv, gaddr := startReplServer(t, Config{StoreShards: 2}, nil,
		&ReplConfig{Follow: faddr, Backoff: repl.Backoff{Min: 10 * time.Millisecond}})
	waitCond(t, 10*time.Second, "grand-follower streaming", func() bool {
		fl := gsrv.Follower()
		return fl != nil && fl.State() == repl.StateStreaming
	})
	gcl, err := client.Dial(gaddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gcl.Close()
	waitCond(t, 10*time.Second, "chained key to arrive", func() bool {
		v, ok, err := gcl.Get([]byte("handed-down"))
		return err == nil && ok && string(v) == "v"
	})
}

// TestClientDialsWithDeadPrimary pins the cold-start-after-failover
// path: a replica set configured with a dead primary address must still
// come up when replicas are listed — reads route to the replicas and
// the first write probes the ring for whoever leads now.
func TestClientDialsWithDeadPrimary(t *testing.T) {
	srv, addr := startReplServer(t, Config{StoreShards: 2}, nil, nil)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	if resp := srv.Store().Execute(&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault,
		Key: []byte("pre"), Val: []byte("1")}); resp.Status != wire.StatusOK {
		t.Fatalf("seed write: %v %s", resp.Status, resp.Msg)
	}

	// 127.0.0.1:1 refuses immediately: the configured primary is dead.
	rs, err := client.DialReplicaSet("127.0.0.1:1", []string{addr})
	if err != nil {
		t.Fatalf("dial with dead primary: %v", err)
	}
	defer rs.Close()

	if v, ok, err := rs.Get([]byte("pre")); err != nil || !ok || string(v) != "1" {
		t.Fatalf("read via replica: %q %v %v", v, ok, err)
	}
	if err := rs.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("write should rotate to the live endpoint: %v", err)
	}
	if got := rs.PrimaryAddr(); got != addr {
		t.Fatalf("primary addr = %s, want %s", got, addr)
	}

	// A set with ONLY the dead primary still fails the dial eagerly.
	if _, err := client.DialReplicaSet("127.0.0.1:1", nil); err == nil {
		t.Fatal("single-endpoint dead set should fail to dial")
	}
}

// TestShutdownCutsLiveLinks: a primary with a streaming follower feed
// and a live watch session shuts down inside its graceful phase — both
// links end by their cut latch; nothing waits out a read budget (23 s
// at these defaults) or needs the forced close.
func TestShutdownCutsLiveLinks(t *testing.T) {
	psrv, paddr := startReplServer(t, Config{},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1}, &ReplConfig{})
	fsrv, _ := startReplServer(t, Config{}, nil,
		&ReplConfig{Follow: paddr, Backoff: repl.Backoff{Min: 10 * time.Millisecond}})
	waitCond(t, 10*time.Second, "follower streaming", func() bool {
		fl := fsrv.Follower()
		return fl != nil && fl.State() == repl.StateStreaming
	})
	w, err := client.Watch(paddr, []byte("k"), true, client.WithoutReconnect())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	waitCond(t, 5*time.Second, "watch session", func() bool { return psrv.Store().Sessions().Sessions() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := psrv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a live feed and a live watch session: %v", err)
	}
	select {
	case _, ok := <-w.Events():
		if ok {
			t.Fatal("event from a server that shut down")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher did not see its session end")
	}
}

// keysHeldOnce returns every key st's shards hold, failing the test if
// any key sits in more than one shard.
func keysHeldOnce(t *testing.T, st *Store) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, sh := range st.tab().shards {
		err := sh.walk(context.Background(), func(op wal.Op) error {
			if _, dup := got[op.Key]; dup {
				return fmt.Errorf("key %q held by two shards", op.Key)
			}
			got[op.Key] = op.Val
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// TestFollowerAdoptsPrimaryShape: a follower built with another shard
// count than its primary's reshapes to the primary's routing table at
// the same epoch, reaches streaming, and holds every primary key
// exactly once. A durable follower's directory reopens with the adopted
// table, whatever count the reopening store is built with.
func TestFollowerAdoptsPrimaryShape(t *testing.T) {
	for _, tc := range []struct {
		name              string
		primary, follower int
		durable           bool
	}{
		{"volatile-4to1", 4, 1, false},
		{"volatile-1to4", 1, 4, false},
		{"durable-4to1", 4, 1, true},
		{"durable-2to4", 2, 4, true},
		{"durable-1to3", 1, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const keys = 200
			psrv, paddr := startReplServer(t, Config{StoreShards: tc.primary},
				&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1}, &ReplConfig{})
			for i := 0; i < keys; i++ {
				execOK(t, psrv.Store(), &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte(fmt.Sprintf("v%d", i))})
			}
			want := scanAll(t, psrv.Store())

			fdir := t.TempDir()
			fstore := New(Config{StoreShards: tc.follower}).Store()
			defer fstore.StopTTLReaper()
			if tc.durable {
				if _, err := fstore.EnableDurability(Durability{Dir: fdir, Fsync: wal.ModeOff, CheckpointEvery: -1}); err != nil {
					t.Fatal(err)
				}
			}
			fstore.BecomeFollower(paddr)
			fl, err := repl.StartFollower(repl.FollowerConfig{
				Primary: paddr,
				Store:   fstore,
				Backoff: repl.Backoff{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			waitCond(t, 10*time.Second, "a streaming follower", func() bool { return fl.State() == repl.StateStreaming })
			fl.Close()

			ptab, ftab := psrv.Store().tab(), fstore.tab()
			if len(ftab.shards) != len(ptab.shards) {
				t.Fatalf("follower has %d shards, primary %d", len(ftab.shards), len(ptab.shards))
			}
			for i, sh := range ptab.shards {
				if ftab.shards[i].idx != sh.idx || ftab.slices[i] != ptab.slices[i] {
					t.Fatalf("follower shard %d is id %d slice %v, primary's id %d slice %v",
						i, ftab.shards[i].idx, ftab.slices[i], sh.idx, ptab.slices[i])
				}
			}
			check := func(st *Store) {
				t.Helper()
				got := keysHeldOnce(t, st)
				if len(got) != len(want) {
					t.Fatalf("follower holds %d keys, primary %d", len(got), len(want))
				}
				for k, v := range want {
					if got[k] != v {
						t.Fatalf("follower key %q = %q, primary %q", k, got[k], v)
					}
				}
			}
			check(fstore)
			if !tc.durable {
				return
			}
			if err := fstore.CloseDurability(); err != nil {
				t.Fatal(err)
			}
			reopened, _ := newShardedDurable(t, fdir, tc.follower, wal.ModeOff)
			defer reopened.CloseDurability()
			if reopened.NumShards() != tc.primary {
				t.Fatalf("follower directory reopened with %d shards, want %d", reopened.NumShards(), tc.primary)
			}
			check(reopened)
		})
	}
}
