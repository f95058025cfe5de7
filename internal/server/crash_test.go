package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"polytm/internal/core"
	"polytm/internal/repl"
	"polytm/internal/server/client"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// The kill gates run a victim: the test binary re-executed with
// victimEnv set, so that only the named test runs and, seeing the
// variable, plays the process that dies. The value is the victim's
// argument — its WAL directory, and for a boundary victim also the
// scenario and the record to die at. A victim reports on stdout, one
// line at a time, and a "CHILD-ERR" line is a failure.
const victimEnv = "POLYSERVE_VICTIM"

// runVictim re-executes the current top-level test as a victim with
// arg and hands watch every line it prints until it exits. watch
// returning true SIGKILLs it — no shutdown path runs — and the lines
// already in the pipe still arrive. A victim alive after a minute is
// killed.
func runVictim(t *testing.T, arg string, watch func(line string) (kill bool)) {
	t.Helper()
	name, _, _ := strings.Cut(t.Name(), "/")
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.v")
	cmd.Env = append(os.Environ(), victimEnv+"="+arg)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait() // a killed victim makes this an error by design
	defer cmd.Process.Kill()
	watchdog := time.AfterFunc(time.Minute, func() { cmd.Process.Kill() })
	defer watchdog.Stop()
	for sc := bufio.NewScanner(stdout); sc.Scan(); {
		if line := sc.Text(); strings.HasPrefix(line, "CHILD-ERR") {
			t.Fatalf("victim failed: %s", line)
		} else if watch(line) {
			cmd.Process.Kill()
		}
	}
}

// killAtAck runs a victim that prints "ACK i" as its client sees write
// i acknowledged, and SIGKILLs it at "ACK n". It returns the last ACK
// printed — those already in the pipe count, the client saw them — and
// hands every other line to other.
func killAtAck(t *testing.T, dir string, n int, other func(line string)) int {
	t.Helper()
	last := 0
	runVictim(t, dir, func(line string) bool {
		v, ok := strings.CutPrefix(line, "ACK ")
		if !ok {
			other(line)
			return false
		}
		last, _ = strconv.Atoi(v)
		return last == n
	})
	if last < n {
		t.Fatalf("victim died after only %d acks (wanted >= %d)", last, n)
	}
	t.Logf("killed the victim after ACK %d", last)
	return last
}

// check ends a victim with a CHILD-ERR line when err is not nil.
func check(what string, err error) {
	if err != nil {
		fmt.Printf("CHILD-ERR %s: %v\n", what, err)
		os.Exit(1)
	}
}

// serveVictim serves srv on loopback and returns a client of it and
// its address.
func serveVictim(srv *Server) (*client.Client, string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check("listen", err)
	go srv.Serve(ln)
	cl, err := client.Dial(ln.Addr().String())
	check("dial", err)
	return cl, ln.Addr().String()
}

// ackLoop runs write(i) for i = 1, 2, … and prints "ACK i" after each,
// until the victim is killed.
func ackLoop(write func(i int) error) {
	for i := 1; ; i++ {
		check(fmt.Sprintf("write %d", i), write(i))
		fmt.Printf("ACK %d\n", i)
	}
}

// checkPrefix asserts that got holds exactly the writes 1..n of a
// sequential load, key(i) = i, for some n of at least lastAck: nothing
// acknowledged lost, nothing beyond the next write present.
func checkPrefix(t *testing.T, got map[string]string, key func(int) string, lastAck int) {
	t.Helper()
	n := len(got)
	if n < lastAck {
		t.Fatalf("recovered %d keys < %d acknowledged — acknowledged writes lost", n, lastAck)
	}
	for i := 1; i <= n; i++ {
		if v, ok := got[key(i)]; !ok || v != strconv.Itoa(i) {
			t.Fatalf("recovered state is not a prefix of %d writes: %s = %q (present %v)", n, key(i), v, ok)
		}
	}
}

// recoverDir reopens dir as a one-shard store, which adopts whatever
// table the MANIFEST pins, with diag (nil for none) as its diagnostics
// sink. The store stays open for the caller and closes when the test
// ends; closing it earlier as well is harmless.
func recoverDir(t *testing.T, dir string, diag func(string, ...any)) (*Store, *RecoverSummary) {
	t.Helper()
	st := NewStore(core.NewDefault())
	st.diag = diag
	res, err := st.EnableDurability(Durability{Dir: dir, Fsync: wal.ModeAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	t.Cleanup(func() { st.CloseDurability() })
	t.Logf("recovery: %s", res)
	return st, res
}

// crashKey formats the i-th sequential key of the crash workload.
func crashKey(i int) string { return fmt.Sprintf("key-%08d", i) }

// TestCrashRecoveryKill9 is the acceptance experiment for the
// durability pipeline: a real server process is SIGKILLed mid-load,
// background checkpoints racing the kill, then the same WAL directory
// is recovered and the store must contain EXACTLY the keys 1..N of a
// durable prefix, with N at least the last acknowledgement the client
// observed. With -fsync=always every acknowledged write is on stable
// storage.
func TestCrashRecoveryKill9(t *testing.T) {
	if dir, ok := os.LookupEnv(victimEnv); ok {
		srv := New(Config{Shards: 1})
		_, err := srv.Store().EnableDurability(Durability{Dir: dir, Fsync: wal.ModeAlways, CheckpointEvery: 20 * time.Millisecond})
		check("durability", err)
		cl, _ := serveVictim(srv)
		ackLoop(func(i int) error { return cl.Set([]byte(crashKey(i)), []byte(strconv.Itoa(i))) })
	}
	dir := t.TempDir()
	lastAck := killAtAck(t, dir, 200, func(string) {})
	st, _ := recoverDir(t, dir, nil)
	checkPrefix(t, scanAll(t, st), crashKey, lastAck)
	// The recovered store must be live: it accepts and persists writes.
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("post-crash"), Val: []byte("ok")})
}

// ckptCrashWindow is the churn keyspace width of the checkpoint-chain
// victim: write i lands on slot i % window, so every checkpoint cycle
// exercises the delta path.
const ckptCrashWindow = 512

// ckptCrashKey formats churn slot s.
func ckptCrashKey(s int) string { return fmt.Sprintf("churn-%04d", s) }

// TestCheckpointChainCrash is the crash-safety acceptance experiment
// for incremental checkpoints: SIGKILL a server whose base + delta chain
// is cut, compacted and cleaned on a 5ms cadence with a chain bound of
// 2, then recover through that chain and demand the state of an exact
// durable prefix — every slot holding precisely the last value the
// prefix wrote to it, nothing stale resurrected from a dead delta,
// nothing lost below the last acknowledgement.
func TestCheckpointChainCrash(t *testing.T) {
	if dir, ok := os.LookupEnv(victimEnv); ok {
		srv := New(Config{Shards: 1})
		_, err := srv.Store().EnableDurability(Durability{Dir: dir, Fsync: wal.ModeAlways, CheckpointEvery: 5 * time.Millisecond, MaxChain: 2})
		check("durability", err)
		cl, _ := serveVictim(srv)
		ackLoop(func(i int) error { return cl.Set([]byte(ckptCrashKey(i%ckptCrashWindow)), []byte(strconv.Itoa(i))) })
	}
	// Wrap the churn window a couple of times first, so real overwrites
	// flow through deltas.
	dir := t.TempDir()
	lastAck := killAtAck(t, dir, 2*ckptCrashWindow+100, func(string) {})
	st, _ := recoverDir(t, dir, nil)

	// The recovered state must be EXACTLY prefix 1..N for some N >=
	// lastAck: slot s holds the largest i <= N with i == s (mod W), or
	// is absent when that i would be below 1.
	got := scanAll(t, st)
	n := 0
	for k, v := range got {
		i, err := strconv.Atoi(v)
		if err != nil || i < 1 || k != ckptCrashKey(i%ckptCrashWindow) {
			t.Fatalf("recovered %s = %q: not a sequence number of that slot", k, v)
		}
		n = max(n, i)
	}
	if n < lastAck {
		t.Fatalf("recovered prefix ends at %d < %d acknowledged — durable writes lost", n, lastAck)
	}
	for s := 0; s < ckptCrashWindow; s++ {
		want := ""
		if i := n - (n-s)%ckptCrashWindow; i >= 1 { // largest i <= n, i == s (mod W)
			want = strconv.Itoa(i)
		}
		if v := got[ckptCrashKey(s)]; v != want {
			t.Fatalf("slot %d = %q, want %q (prefix %d)", s, v, want, n)
		}
	}
	// The recovered chain must be live: it accepts writes and can cut
	// the next checkpoint on top of whatever it loaded.
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("post-crash"), Val: []byte("ok")})
	if err := st.Checkpoint(context.Background()); err != nil {
		t.Fatalf("post-recovery checkpoint: %v", err)
	}
}

// TestTTLCrashRecoveryKill9: SIGKILL a server mid-expiry-storm, recover
// its WAL, and verify no expired-and-reaped key is resurrected — the
// reaper's deletes are ordinary durable WAL records, so the recovered
// keyspace agrees with everything the victim acknowledged. The victim
// SETEXes short-lived keys under a fast reaper and prints "ACK i" only
// once STATS shows keys_expired >= i: it writes sequentially, so by
// then every key it wrote is reaped and the deletes are durable.
func TestTTLCrashRecoveryKill9(t *testing.T) {
	key := func(i int) string { return fmt.Sprintf("boom-%06d", i) }
	if dir, ok := os.LookupEnv(victimEnv); ok {
		srv := New(Config{Shards: 1, TTLReapEvery: 5 * time.Millisecond})
		_, err := srv.Store().EnableDurability(Durability{Dir: dir, Fsync: wal.ModeAlways, CheckpointEvery: -1})
		check("durability", err)
		cl, _ := serveVictim(srv)
		ackLoop(func(i int) error {
			if err := cl.SetEx([]byte(key(i)), []byte("x"), time.Millisecond); err != nil {
				return err
			}
			for {
				st, err := cl.Stats()
				if err != nil || st["keys_expired"] >= uint64(i) {
					return err
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
	dir := t.TempDir()
	lastAck := killAtAck(t, dir, 25, func(string) {})
	st, _ := recoverDir(t, dir, nil)
	got := scanAll(t, st)
	for i := 1; i <= lastAck; i++ {
		if v, ok := got[key(i)]; ok {
			t.Fatalf("reaped key %s resurrected by recovery (value %q)", key(i), v)
		}
	}
}

// failoverKey formats the i-th sequential key of the failover workload.
func failoverKey(i int) string { return fmt.Sprintf("fo-%08d", i) }

// TestFailoverKill9 is the failover acceptance experiment: a real
// sync-ack primary is SIGKILLed mid-load while replicating to an
// in-process follower; the follower is promoted and must hold EXACTLY
// the keys 1..N of a prefix with N at least the last acknowledgement the
// client saw — then take new writes as primary. The victim prints "ADDR
// <addr>" and loads itself only once the follower is attached: sync
// acks degrade to local-durability acks while no follower is connected,
// and the contract here is "acked ⟹ follower applied".
// POLYSERVE_FAILOVER_ITERS sets the iteration count (CI runs 20).
func TestFailoverKill9(t *testing.T) {
	if dir, ok := os.LookupEnv(victimEnv); ok {
		srv := New(Config{StoreShards: 2})
		_, err := srv.Store().EnableDurability(Durability{Dir: dir, Fsync: wal.ModeAlways, CheckpointEvery: -1})
		check("durability", err)
		check("replication", srv.EnableReplication(ReplConfig{SyncAck: true}))
		cl, addr := serveVictim(srv)
		fmt.Printf("ADDR %s\n", addr)
		for deadline := time.Now().Add(20 * time.Second); !followerAttached(srv); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				check("attach", fmt.Errorf("no follower subscribed"))
			}
		}
		ackLoop(func(i int) error { return cl.Set([]byte(failoverKey(i)), []byte(strconv.Itoa(i))) })
	}
	iters := 5
	if v := os.Getenv("POLYSERVE_FAILOVER_ITERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad POLYSERVE_FAILOVER_ITERS=%q", v)
		}
		iters = n
	}
	if testing.Short() {
		iters = 2
	}
	for i := 0; i < iters; i++ {
		t.Run(fmt.Sprintf("iter%02d", i), runFailoverIteration)
	}
}

// followerAttached reports whether srv's hub has a follower subscribed.
func followerAttached(srv *Server) bool {
	for _, c := range srv.Hub().Counters() {
		if c.Name == "repl_followers" {
			return c.Value >= 1
		}
	}
	return false
}

func runFailoverIteration(t *testing.T) {
	// The follower is volatile: promotion is what is under test, and the
	// replication apply path is the same either way.
	fstore := NewShardedStore([]*core.TM{core.NewDefault(), core.NewDefault()})
	var fl *repl.Follower
	defer func() {
		if fl != nil {
			fl.Close()
		}
	}()
	lastAck := killAtAck(t, t.TempDir(), 60, func(line string) {
		addr, ok := strings.CutPrefix(line, "ADDR ")
		if !ok {
			return
		}
		fstore.BecomeFollower(addr)
		var err error
		fl, err = repl.StartFollower(repl.FollowerConfig{
			Primary: addr,
			Store:   fstore,
			Backoff: repl.Backoff{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("follower: %v", err)
		}
	})
	if fl == nil {
		t.Fatal("victim never printed its address")
	}
	// Promote: the link stops, the follower becomes the primary, and it
	// holds the acknowledged prefix.
	if _, err := fl.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	fstore.BecomePrimary()
	checkPrefix(t, scanAll(t, fstore), failoverKey, lastAck)
	execOK(t, fstore, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("post-failover"), Val: []byte("ok")})
}
