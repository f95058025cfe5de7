package server

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"polytm/internal/wal"
	"polytm/internal/wire"
)

// Online-resharding crash windows: SIGKILL a durable store inside the
// two windows of the split protocol and the two of the merge protocol,
// and prove recovery restores the exact acknowledged prefix in all four.
//
//   - "begin" windows: the process dies the instant the RESHARD BEGIN
//     record is durable — no routing change was ever visible. Recovery
//     must roll the reshard back: the table and epoch it started from,
//     a split's new shard directory gone, every acknowledged key intact.
//   - "commit" windows: the process dies the instant the RESHARD COMMIT
//     record is durable — the cutover reached its commit point but the
//     crash beat the MANIFEST rewrite. Recovery must roll the reshard
//     forward: adopt the journaled table (grown by a split, shrunk by a
//     merge, the absorbed shard's directory removed), rewrite the
//     manifest, and surface every acknowledged key.
//
// The merge modes first SPLIT shard 0 to completion (three shards,
// epoch 1) and then die inside the MERGE that would fold the new shard
// back. Rolling a committed merge forward removes an entry from the
// per-shard recovery state while recovery is walking it, which once
// indexed past the end (ROADMAP item 0).
//
// Like the 2PC gate, the kill is injected through the WAL's
// OnDurableRecord hook — on the flusher goroutine, after the record is
// on stable storage and before any appender is acknowledged.

const (
	reshardCrashDirEnv  = "POLYSERVE_RESHARD_CRASH_DIR"
	reshardCrashModeEnv = "POLYSERVE_RESHARD_CRASH_MODE"
	reshardCrashShards  = 2
	reshardCrashKeys    = 96
)

// reshardCrashMode is one kill window with the state recovery must
// reach from it: pinned is the manifest's shard count as the crash left
// it, shards/epoch the recovered table, and goneDir a shard directory
// recovery must have removed.
type reshardCrashMode struct {
	name    string
	merge   bool
	record  byte // first byte of the journal record the kill waits for
	pinned  int
	shards  int
	epoch   uint64
	goneDir string
}

var reshardCrashModes = []reshardCrashMode{
	{name: "begin", record: 0x13, pinned: 2, shards: 2, epoch: 0, goneDir: "shard-0002"},
	{name: "commit", record: 0x14, pinned: 2, shards: 3, epoch: 1},
	{name: "merge-begin", merge: true, record: 0x13, pinned: 3, shards: 3, epoch: 1},
	{name: "merge-commit", merge: true, record: 0x14, pinned: 3, shards: 2, epoch: 2, goneDir: "shard-0002"},
}

// reshardCrashChild seeds an acknowledged keyspace (and, for a merge
// window, completes the split the merge will undo), arms the kill hook
// on the journal record for its window, then starts the reshard — and
// dies mid-protocol.
func reshardCrashChild(dir, mode string) {
	var target byte
	merge := false
	for _, m := range reshardCrashModes {
		if m.name == mode {
			target, merge = m.record, m.merge
		}
	}
	var armed atomic.Bool
	st := newSharded(reshardCrashShards)
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
	for i := 0; i < reshardCrashKeys; i++ {
		resp := st.Execute(&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte(fmt.Sprintf("v%d", i))})
		if resp.Status != wire.StatusOK {
			fmt.Printf("CHILD-ERR seed %d: %s\n", i, resp.Msg)
			os.Exit(1)
		}
	}
	if merge {
		if _, err := st.Split(context.Background(), 0, 0); err != nil {
			fmt.Printf("CHILD-ERR split before merge: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Println("SEEDED")
	armed.Store(true)
	if merge {
		st.Merge(context.Background(), 1, 0, 2)
	} else {
		st.Split(context.Background(), 0, 0)
	}
	fmt.Println("CHILD-ERR survived the kill window")
	os.Exit(1)
}

// TestReshardCrashRecovery kills a child process in each window and
// verifies the recovered directory. CI runs it -count=10 for the
// 40-kill acceptance gate.
func TestReshardCrashRecovery(t *testing.T) {
	if dir := os.Getenv(reshardCrashDirEnv); dir != "" {
		reshardCrashChild(dir, os.Getenv(reshardCrashModeEnv)) // never returns
	}
	for _, mode := range reshardCrashModes {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=TestReshardCrashRecovery$", "-test.v")
			cmd.Env = append(os.Environ(), reshardCrashDirEnv+"="+dir, reshardCrashModeEnv+"="+mode.name)
			timer := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
			out, _ := cmd.CombinedOutput() // dies by SIGKILL: error by design
			timer.Stop()
			if s := string(out); strings.Contains(s, "CHILD-ERR") || !strings.Contains(s, "SEEDED") {
				t.Fatalf("crash child (mode=%s):\n%s", mode.name, s)
			}

			// The crash in EVERY window beat the MANIFEST rewrite, so the
			// pinned count is still the pre-reshard one — recovery itself
			// decides whether the table changes.
			if pinned := pinnedShards(t, dir); pinned != mode.pinned {
				t.Fatalf("pinned shard count = %d, want %d", pinned, mode.pinned)
			}
			st, _, _ := recoverReshardCrash(t, dir, &mode)
			manifest, entries := reshardCrashLayout(t, dir)
			if err := st.CloseDurability(); err != nil {
				t.Fatal(err)
			}

			// Recovery is idempotent: a second pass over the directory the
			// first one left finds the same table and the same keys, heals
			// nothing (same MANIFEST bytes, same shard directories), resolves
			// no prepare, and rolls nothing forward — a roll-forward moved
			// the MANIFEST to the journal's epoch, which settles the journal.
			// (A BEGIN without COMMIT stays in its log until a checkpoint
			// truncates it, so the begin windows plan the same rollback
			// again; it has nothing left to remove.)
			st, res, logged := recoverReshardCrash(t, dir, &mode)
			defer st.CloseDurability()
			if res.Committed != 0 || res.RolledBack != 0 {
				t.Fatalf("second recovery resolved prepares: committed=%d rolled back=%d", res.Committed, res.RolledBack)
			}
			if strings.Contains(logged, "rolled forward") {
				t.Fatalf("second recovery rolled forward again:\n%s", logged)
			}
			if m, e := reshardCrashLayout(t, dir); m != manifest || !reflect.DeepEqual(e, entries) {
				t.Fatalf("second recovery changed the directory:\nMANIFEST %q -> %q\nentries %v -> %v", manifest, m, entries, e)
			}
			// And the recovered store serves writes on every shard.
			for i := 0; i < 32; i++ {
				execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(1000 + i), Val: []byte("post")})
			}
		})
	}
}

// recoverReshardCrash opens dir with a one-shard store, which adopts
// the table its MANIFEST pins, and checks the state the mode's window
// must resolve to: the table, a manifest that says the same, the
// removed directory, and the exact acknowledged prefix — no more, no
// less. It returns the open store,
// the recovery summary and everything recovery logged.
func recoverReshardCrash(t *testing.T, dir string, mode *reshardCrashMode) (*Store, *RecoverSummary, string) {
	t.Helper()
	var mu sync.Mutex // the shards' logs recover, and log, in parallel
	var logged strings.Builder
	st := newSharded(1)
	st.diag = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&logged, format+"\n", args...)
	}
	res, err := st.EnableDurability(Durability{Dir: dir, Fsync: wal.ModeAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	t.Logf("recovery: %s", res)
	if st.NumShards() != mode.shards || st.RoutingEpoch() != mode.epoch {
		t.Fatalf("recovered to shards=%d epoch=%d, want shards=%d epoch=%d", st.NumShards(), st.RoutingEpoch(), mode.shards, mode.epoch)
	}
	if n := pinnedShards(t, dir); n != mode.shards {
		t.Fatalf("manifest after recovery pins %d shards, want %d", n, mode.shards)
	}
	if mode.goneDir != "" && fileExists(filepath.Join(dir, mode.goneDir)) {
		t.Fatalf("recovery left %s behind", mode.goneDir)
	}
	got := scanAll(t, st)
	if len(got) != reshardCrashKeys {
		t.Fatalf("recovered %d keys, want %d", len(got), reshardCrashKeys)
	}
	for i := 0; i < reshardCrashKeys; i++ {
		if got[string(tkey(i))] != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q", i, got[string(tkey(i))])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return st, res, logged.String()
}

// reshardCrashLayout reads what a recovery may heal: the MANIFEST's
// bytes and the names in the store directory.
func reshardCrashLayout(t *testing.T, dir string) (string, []string) {
	t.Helper()
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return string(manifest), names
}
