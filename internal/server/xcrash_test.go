package server

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"polytm/internal/wal"
	"polytm/internal/wire"
)

// Cross-shard crash atomicity: SIGKILL a durable sharded store at each
// durable-record boundary of the commit protocol and prove recovery
// never surfaces a half-applied multi-shard TXN.
//
//   - "prepare" window: the process dies the instant the first PREPARE
//     record is durable — before the coordinator's DECISION exists.
//     Recovery must roll the whole transaction back (no client was
//     acknowledged).
//   - "decision" window: the process dies the instant the DECISION
//     record is durable — before any participant's COMMIT mark.
//     Recovery must commit the whole transaction (the commit point was
//     reached), resolving the participants' in-doubt prepares against
//     the coordinator's decision set.
//   - "commit" window: the process dies the instant the first COMMIT
//     mark is durable — one participant marked, the coordinator's
//     frame not yet unwound, no client acknowledged. The commit point
//     is behind it, so recovery must commit the whole transaction: the
//     marked participant replays by its own log, the coordinator by
//     its DECISION.
//
// The kill is injected through the WAL's OnDurableRecord hook, which
// runs on the flusher goroutine after the record is on stable storage
// and before any appender is acknowledged — exactly the instant the
// crash window opens.

const (
	xcrashChildEnv = "POLYSERVE_XCRASH_DIR"
	xcrashModeEnv  = "POLYSERVE_XCRASH_MODE"
	xcrashShards   = 4
)

// xcrashPair deterministically picks two keys on different shards of
// st — identical in the child (writer) and the parent (verifier).
func xcrashPair(st *Store) (a, b []byte) {
	a = tkey(0)
	for i := 1; ; i++ {
		if st.shardIdx(tkey(i)) != st.shardIdx(a) {
			return a, tkey(i)
		}
	}
}

// xcrashChild seeds a cross-shard pair, arms the kill hook, then runs
// a cross-shard TXN moving both keys — and dies mid-protocol.
func xcrashChild(dir, mode string) {
	target := map[string]byte{"prepare": recPrepare, "decision": recDecision, "commit": recCommit}[mode]
	var armed atomic.Bool
	st := newSharded(xcrashShards)
	_, err := st.EnableDurability(Durability{
		Dir: dir, Fsync: wal.ModeAlways, CheckpointEvery: -1,
		onDurableRecord: func(first byte) {
			if armed.Load() && first == target {
				syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
				select {} // never acknowledge past the kill point
			}
		},
	})
	if err != nil {
		fmt.Printf("CHILD-ERR enable durability: %v\n", err)
		os.Exit(1)
	}
	a, b := xcrashPair(st)
	seed := st.Execute(&wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
		{Op: wire.OpSet, Key: a, Val: []byte("init")},
		{Op: wire.OpSet, Key: b, Val: []byte("init")},
	}})
	if seed.Status != wire.StatusOK {
		fmt.Printf("CHILD-ERR seed: %s\n", seed.Msg)
		os.Exit(1)
	}
	fmt.Println("SEEDED")
	armed.Store(true)
	st.Execute(&wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
		{Op: wire.OpSet, Key: a, Val: []byte("after")},
		{Op: wire.OpSet, Key: b, Val: []byte("after")},
	}})
	fmt.Println("CHILD-ERR survived the kill window")
	os.Exit(1)
}

// TestCrossShardCrashAtomicity kills a child process in each window
// and verifies the recovered pair moved in lockstep. CI runs it
// -count=10 per mode for the 30-kill acceptance gate.
func TestCrossShardCrashAtomicity(t *testing.T) {
	if dir := os.Getenv(xcrashChildEnv); dir != "" {
		xcrashChild(dir, os.Getenv(xcrashModeEnv)) // never returns
	}
	for _, mode := range []string{"prepare", "decision", "commit"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=TestCrossShardCrashAtomicity$", "-test.v")
			cmd.Env = append(os.Environ(), xcrashChildEnv+"="+dir, xcrashModeEnv+"="+mode)
			timer := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
			out, _ := cmd.CombinedOutput() // dies by SIGKILL: error by design
			timer.Stop()
			if s := string(out); strings.Contains(s, "CHILD-ERR") || !strings.Contains(s, "SEEDED") {
				t.Fatalf("crash child (mode=%s):\n%s", mode, s)
			}

			st := newSharded(xcrashShards)
			res, err := st.EnableDurability(Durability{Dir: dir, Fsync: wal.ModeAlways, CheckpointEvery: -1})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer st.CloseDurability()
			t.Logf("recovery: %s", res)

			got := scanAll(t, st)
			a, b := xcrashPair(st)
			va, vb := got[string(a)], got[string(b)]
			if va != vb {
				t.Fatalf("HALF-APPLIED cross-shard txn after crash: %s=%q %s=%q", a, va, b, vb)
			}
			switch mode {
			case "prepare":
				// No decision was ever durable: the transaction must roll
				// back, and nothing was acknowledged so nothing is lost.
				if va != "init" {
					t.Fatalf("prepare-window crash surfaced the unacknowledged txn: %q", va)
				}
			case "decision", "commit":
				// The commit point was durable: recovery must finish the
				// transaction.
				if va != "after" {
					t.Fatalf("decision was durable but recovery rolled back: %q", va)
				}
				// Killed at the decision, the other participant's prepare
				// ends its log: only the coordinator's decision set can
				// commit it. Killed at the mark, every prepare is resolved
				// by its own log.
				if mode == "decision" && res.Committed == 0 {
					t.Fatalf("expected at least one in-doubt prepare committed via the decision set: %s", res)
				}
			}
		})
	}
}
