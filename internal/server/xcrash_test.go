package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"polytm/internal/wal"
	"polytm/internal/wire"
)

// The boundary gates kill a durable store at every durable record of a
// multi-step protocol — a cross-shard TXN, a FLUSH, a SPLIT, a MERGE —
// instead of at windows picked by hand. A counting run, in process,
// records the kinds of the records the protocol writes (n of them) and
// an image of the store before and after it. Then for each k in 1..n a
// victim runs the same setup and protocol and SIGKILLs itself from the
// log's durable-record hook at the k-th record — on the flusher, after
// the record is on stable storage and before any appender is
// acknowledged. One rule judges every recovery: the store must equal the
// before-image, unless the protocol's commit point (a 2PC DECISION, a
// RESHARD COMMIT) was durable, and then the after-image. A second
// recovery must leave everything as the first left it, commit no
// in-doubt prepare and roll nothing forward.

// crashScenario is one protocol a boundary gate kills at every record:
// op runs it on a store of shards shards seeded with crashKeys keys and
// prepared by setup, and commit is the kind of its commit-point record.
// name prefixes the names of its kills; a gate's first scenario has
// none, so its kills keep the names the hand-picked windows had.
type crashScenario struct {
	name   string
	shards int
	commit byte
	setup  func(st *Store) error
	op     func(st *Store) error
}

const (
	recReshardBegin  = 0x13
	recReshardCommit = 0x14
	crashKeys        = 96
)

// xcrashPair deterministically picks two keys on different shards of
// st.
func xcrashPair(st *Store) (a, b []byte) {
	a = tkey(0)
	for i := 1; ; i++ {
		if st.shardIdx(tkey(i)) != st.shardIdx(a) {
			return a, tkey(i)
		}
	}
}

// execErr runs req and returns its error reply as an error.
func execErr(st *Store, req *wire.Request) error {
	if resp := st.Execute(req); resp.Status == wire.StatusErr {
		return errors.New(resp.Msg)
	}
	return nil
}

// run builds sc's store on dir, seeds and sets it up, and runs its op
// with onRecord armed: it sees the first byte of each record that
// becomes durable meanwhile, one at a time — a record on another log
// waits until onRecord returns. look, when set, sees the store before
// and after the op.
func (sc *crashScenario) run(dir string, onRecord func(byte), look func(*Store)) error {
	var armed atomic.Bool
	var mu sync.Mutex
	st := newSharded(sc.shards)
	_, err := st.EnableDurability(Durability{Dir: dir, Fsync: wal.ModeAlways, CheckpointEvery: -1,
		onDurableRecord: func(first byte) {
			if armed.Load() {
				mu.Lock()
				defer mu.Unlock()
				onRecord(first)
			}
		}})
	if err != nil {
		return err
	}
	defer st.CloseDurability()
	for i := 0; i < crashKeys && err == nil; i++ {
		err = execErr(st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	if err == nil && sc.setup != nil {
		err = sc.setup(st)
	}
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if look != nil {
		look(st)
	}
	armed.Store(true)
	err = sc.op(st)
	armed.Store(false)
	if look != nil {
		look(st)
	}
	return err
}

// crashImage is what a crash may leave changed and recovery must
// settle: the routed keyspace, the table, the MANIFEST's bytes and the
// names in the store directory.
type crashImage struct {
	Keys     map[string]string
	Epoch    uint64
	Table    []wire.ReplShardSlice
	Manifest string
	Entries  []string
}

func imageOf(t *testing.T, st *Store, dir string) crashImage {
	t.Helper()
	im := crashImage{Keys: scanAll(t, st)}
	im.Epoch, im.Table = st.Routing()
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	im.Manifest = string(raw)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		im.Entries = append(im.Entries, e.Name())
	}
	return im
}

// diff lists where im departs from want, "" when nowhere.
func (im crashImage) diff(want crashImage) string {
	var d []string
	for k, v := range want.Keys {
		if got, ok := im.Keys[k]; !ok || got != v {
			d = append(d, fmt.Sprintf("%s = %q, want %q", k, got, v))
		}
	}
	for k, v := range im.Keys {
		if _, ok := want.Keys[k]; !ok {
			d = append(d, fmt.Sprintf("%s = %q, want absent", k, v))
		}
	}
	slices.Sort(d)
	if im.Epoch != want.Epoch || !slices.Equal(im.Table, want.Table) {
		d = append(d, fmt.Sprintf("table epoch %d %v, want epoch %d %v", im.Epoch, im.Table, want.Epoch, want.Table))
	}
	if im.Manifest != want.Manifest {
		d = append(d, fmt.Sprintf("MANIFEST %q, want %q", im.Manifest, want.Manifest))
	}
	if !slices.Equal(im.Entries, want.Entries) {
		d = append(d, fmt.Sprintf("directory %v, want %v", im.Entries, want.Entries))
	}
	return strings.Join(d, "\n")
}

// recordNames names a durable record by its first byte: an operation
// record by its first op, a control record by its kind.
var recordNames = map[byte]string{byte(wal.OpSet): "set", byte(wal.OpDel): "del",
	recPrepare: "prepare", recDecision: "decision", recCommit: "commit", recReshardBegin: "begin", recReshardCommit: "commit"}

// crashAtEveryRecord is the boundary gate over scenarios. Each kill is a
// subtest named after its scenario and the record it dies at — the TXN's
// are prepare, prepare-2, decision and commit, the FLUSH's flush-prepare
// and on. In a victim it runs the scenario and record its argument
// names, and never returns.
func crashAtEveryRecord(t *testing.T, scenarios []crashScenario) {
	if arg, ok := os.LookupEnv(victimEnv); ok {
		f := strings.SplitN(arg, " ", 3)
		i, _ := strconv.Atoi(f[0])
		k, _ := strconv.Atoi(f[1])
		var seen []byte
		check("run", scenarios[i].run(f[2], func(first byte) {
			if seen = append(seen, first); len(seen) == k {
				fmt.Printf("DIED %x\n", seen)
				syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
				select {} // never acknowledge past the kill point
			}
		}, nil))
		check("run", fmt.Errorf("survived all %d records, wanted to die at %d", len(seen), k))
	}
	for i, sc := range scenarios {
		var kinds []byte
		var images []crashImage
		dir := t.TempDir()
		if err := sc.run(dir, func(first byte) { kinds = append(kinds, first) }, func(st *Store) {
			images = append(images, imageOf(t, st, dir))
		}); err != nil {
			t.Fatalf("counting run of scenario %d: %v", i, err)
		}
		names, count := make([]string, len(kinds)), map[string]int{}
		for k, kind := range kinds {
			names[k] = strings.TrimPrefix(sc.name+"-"+recordNames[kind], "-")
			if count[names[k]]++; count[names[k]] > 1 {
				names[k] += fmt.Sprintf("-%d", count[names[k]])
			}
		}
		t.Logf("%d durable records: %s", len(kinds), strings.Join(names, " "))
		for k := 1; k <= len(kinds); k++ {
			t.Run(names[k-1], func(t *testing.T) {
				dir := t.TempDir()
				var seen []byte
				runVictim(t, fmt.Sprintf("%d %d %s", i, k, dir), func(line string) bool {
					if h, ok := strings.CutPrefix(line, "DIED "); ok {
						seen, _ = hex.DecodeString(h)
					}
					return false
				})
				if !bytes.Equal(seen, kinds[:k]) {
					t.Fatalf("victim saw records %x, the counting run %x", seen, kinds[:k])
				}
				checkRecovered(t, dir, images, seen, sc.commit)
			})
		}
	}
}

// checkRecovered recovers dir, where a victim died having seen the
// records seen, twice. The first recovery must reach the before-image
// images[0] — or images[1], the after-image, once the commit record was
// seen — and, killed at the commit point itself, finish the protocol
// from its journal: commit an in-doubt prepare or roll a reshard
// forward. The second must change nothing, commit no in-doubt prepare
// and roll nothing forward; a rolled-back BEGIN or PREPARE stays in its
// log until a checkpoint truncates it, so it may be planned again. The
// store it leaves serves writes.
func checkRecovered(t *testing.T, dir string, images []crashImage, seen []byte, commit byte) {
	t.Helper()
	want, which := images[0], "before-image"
	if slices.Contains(seen, commit) {
		want, which = images[1], "after-image"
	}
	var got crashImage
	for pass := 1; pass <= 2; pass++ {
		var mu sync.Mutex // the shards' logs recover, and log, in parallel
		var logged strings.Builder
		st, res := recoverDir(t, dir, func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&logged, format+"\n", args...)
		})
		im := imageOf(t, st, dir)
		mu.Lock()
		diag := logged.String()
		mu.Unlock()
		finished := res.Committed > 0 || strings.Contains(diag, "rolled forward")
		switch {
		case pass == 1 && im.diff(want) != "":
			t.Fatalf("recovery departs from the %s:\n%s", which, im.diff(want))
		case pass == 1 && seen[len(seen)-1] == commit && !finished:
			t.Fatalf("killed at the commit point, recovery finished nothing: %s", res)
		case pass == 2 && im.diff(got) != "":
			t.Fatalf("second recovery changed the store:\n%s", im.diff(got))
		case pass == 2 && finished:
			t.Fatalf("second recovery finished a protocol again: %s\n%s", res, diag)
		case pass == 2:
			for i := 0; i < 32; i++ {
				execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(1000 + i), Val: []byte("post")})
			}
		}
		got = im
		if err := st.CloseDurability(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrossShardCrashAtomicity kills a durable 4-shard store at every
// durable record of a cross-shard TXN and of a FLUSH: recovery never
// surfaces a half-applied multi-shard commit. Killed before the
// coordinator's DECISION is durable, recovery rolls every prepare back
// (no client was acknowledged); from the DECISION on it commits them
// all, a participant whose log ends in its PREPARE by the coordinator's
// decision set.
func TestCrossShardCrashAtomicity(t *testing.T) {
	crashAtEveryRecord(t, []crashScenario{
		{shards: 4, commit: recDecision, op: func(st *Store) error {
			a, b := xcrashPair(st)
			return execErr(st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
				{Op: wire.OpSet, Key: a, Val: []byte("after")},
				{Op: wire.OpSet, Key: b, Val: []byte("after")},
			}})
		}},
		{name: "flush", shards: 4, commit: recDecision, op: func(st *Store) error {
			return execErr(st, &wire.Request{Op: wire.OpFlush, Sem: wire.SemDefault})
		}},
	})
}

// TestReshardCrashRecovery kills a durable store at every durable
// record of a SPLIT of a 2-shard store, and of the MERGE that undoes
// it. Killed before the RESHARD COMMIT is durable, recovery rolls the
// reshard back — the table and epoch it started from, a split's new
// shard directory gone; from the COMMIT on it rolls forward — the
// journaled table adopted, the MANIFEST rewritten, a merge's absorbed
// directory gone. Either way every acknowledged key is there. Rolling a
// committed merge forward removes an entry from the per-shard recovery
// state while recovery walks it, which once indexed past the end.
func TestReshardCrashRecovery(t *testing.T) {
	split := func(st *Store) error {
		_, err := st.Split(context.Background(), 0, 0)
		return err
	}
	crashAtEveryRecord(t, []crashScenario{
		{shards: 2, commit: recReshardCommit, op: split},
		{name: "merge", shards: 2, commit: recReshardCommit, setup: split, op: func(st *Store) error {
			_, err := st.Merge(context.Background(), 1, 0, 2)
			return err
		}},
	})
}
