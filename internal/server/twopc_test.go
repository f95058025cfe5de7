package server

import (
	"context"
	"errors"
	"maps"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"polytm/internal/core"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// The first payload byte of the cross-shard control records, as the
// OnDurableRecord hook reports them (see internal/wal/record.go).
const (
	recPrepare  = 0x10
	recDecision = 0x11
	recCommit   = 0x12
)

// TestCrossShardAbortLeavesNoTrace drives crossShard directly with
// synthetic shares over a durable 4-shard store: the LAST participant's
// share fails, after the three before it have applied theirs. Every
// earlier share must roll back, the caller must get that very error, no
// PREPARE may reach any log (all shares apply before the first PREPARE
// is queued), xshard_aborts moves by one, and every token is free
// again. The same shares without the failure then commit, which also
// proves the record counting is not vacuous.
func TestCrossShardAbortLeavesNoTrace(t *testing.T) {
	const shards = 4
	var seen [256]atomic.Uint64
	dir := t.TempDir()
	open := func() *Store {
		st := newSharded(shards)
		_, err := st.EnableDurability(Durability{
			Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1,
			onDurableRecord: func(first byte) { seen[first].Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	tab := st.tab()
	// One key per shard.
	keyOf := map[*shard][]byte{}
	for i := 0; len(keyOf) < shards; i++ {
		if sh := tab.shards[st.shardIdx(tkey(i))]; keyOf[sh] == nil {
			keyOf[sh] = tkey(i)
		}
	}
	for _, k := range keyOf {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: k, Val: []byte("init")})
	}
	want := func(v string) {
		t.Helper()
		got := scanAll(t, st)
		for _, k := range keyOf {
			if got[string(k)] != v {
				t.Fatalf("contents = %v, want every key %q", got, v)
			}
		}
	}
	boom := errors.New("the last share says no")
	share := func(val string, fail *shard) xshare {
		return func(tx *core.Tx, sh *shard, cp *walCapture) error {
			if sh == fail {
				return boom
			}
			_, err := sh.applyOp(tx, cp, wal.OpSet, keyOf[sh], []byte(val), effect{})
			return err
		}
	}

	aborts := st.xshardAborts.Load()
	err := st.crossShard(context.Background(), tab.shards, share("torn", tab.shards[shards-1]), "test-abort")
	if err != boom {
		t.Fatalf("crossShard = %v, want the failing share's own error", err)
	}
	if got := st.xshardAborts.Load() - aborts; got != 1 {
		t.Fatalf("xshard_aborts moved by %d, want 1", got)
	}
	want("init")
	// Every token is free: a single-shard write commits on each shard.
	for _, k := range keyOf {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: k, Val: []byte("free")})
	}
	want("free")
	// Each write above was acknowledged durable, so everything queued
	// before it on its shard's log has been through the hook.
	for _, b := range []byte{recPrepare, recDecision, recCommit} {
		if n := seen[b].Load(); n != 0 {
			t.Fatalf("the aborted commit left %d records of kind %#x", n, b)
		}
	}

	if err := st.crossShard(context.Background(), tab.shards, share("whole", nil), "test-commit"); err != nil {
		t.Fatal(err)
	}
	want("whole")
	if p, d, c := seen[recPrepare].Load(), seen[recDecision].Load(), seen[recCommit].Load(); p != shards || d != 1 || c != shards-1 {
		t.Fatalf("the commit logged %d PREPARE, %d DECISION, %d COMMIT; want %d, 1, %d", p, d, c, shards, shards-1)
	}
	if st.xshardAborts.Load()-aborts != 1 {
		t.Fatal("the commit counted as an abort")
	}
	if err := st.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	st = open()
	defer st.CloseDurability()
	want("whole")
}

// TestCrossShardReadOnlyTxnLogsNothing pins the no-record half of a
// read-only batch: a TXN of four GETs over both shards of a durable
// store answers every value and logs nothing. No record reaches either
// log's durable hook, and no wal_records row of STATS moves. A SET on
// each shard afterwards, acknowledged durable, puts everything queued
// before it through the hook, and the hook then counts those two alone.
func TestCrossShardReadOnlyTxnLogsNothing(t *testing.T) {
	var logged atomic.Uint64
	st := newSharded(2)
	if _, err := st.EnableDurability(Durability{
		Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1,
		onDurableRecord: func(byte) { logged.Add(1) },
	}); err != nil {
		t.Fatal(err)
	}
	defer st.CloseDurability()
	// Two keys per shard; fence holds one of each shard's.
	var keys, fence [][]byte
	for i, per := 0, [2]int{}; len(keys) < 4; i++ {
		if sh := st.shardIdx(tkey(i)); per[sh] < 2 {
			if per[sh]++; per[sh] == 1 {
				fence = append(fence, tkey(i))
			}
			keys = append(keys, tkey(i))
			execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte("v" + string(tkey(i)))})
		}
	}
	walRows := func() map[string]uint64 {
		rows := map[string]uint64{}
		for name, v := range statsMap(t, st) {
			if strings.HasSuffix(name, "wal_records") {
				rows[name] = v
			}
		}
		return rows
	}
	before, hooked := walRows(), logged.Load()
	if len(before) < 3 || hooked != 4 {
		t.Fatalf("set-up: wal_records rows %v, %d records through the hook; want the total and both shards', and 4", before, hooked)
	}

	req := &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault}
	for _, k := range keys {
		req.Batch = append(req.Batch, wire.Request{Op: wire.OpGet, Key: k})
	}
	resp := execOK(t, st, req)
	if len(resp.Batch) != len(keys) {
		t.Fatalf("TXN answered %d results, want %d", len(resp.Batch), len(keys))
	}
	for i, k := range keys {
		if r := resp.Batch[i]; r.Status != wire.StatusOK || string(r.Val) != "v"+string(k) {
			t.Fatalf("GET %s = %v %q, want v%s", k, r.Status, r.Val, k)
		}
	}
	if after := walRows(); !maps.Equal(after, before) {
		t.Fatalf("the read-only TXN moved wal_records: %v, was %v", after, before)
	}
	for _, k := range fence {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: k, Val: []byte("fence")})
	}
	if n := logged.Load() - hooked; n != 2 {
		t.Fatalf("%d records through the hook after the TXN and two SETs, want the SETs' 2", n)
	}
}

// TestCrossShardPreparesOverlap: under ModeAlways a two-shard commit
// queues both PREPAREs before it waits for either, so the two logs
// fsync side by side. Each log's flusher calls the hook once its
// PREPARE is durable and before anyone waiting on it is released; the
// hook holds the first flusher there until the second arrives. A commit
// that waited for one PREPARE before queueing the next could never
// bring the second one in.
func TestCrossShardPreparesOverlap(t *testing.T) {
	var (
		arrived atomic.Int32
		serial  atomic.Bool
		both    = make(chan struct{})
	)
	st := newSharded(2)
	_, err := st.EnableDurability(Durability{
		Dir: t.TempDir(), Fsync: wal.ModeAlways, CheckpointEvery: -1,
		onDurableRecord: func(first byte) {
			if first != recPrepare {
				return
			}
			if arrived.Add(1) == 2 {
				close(both)
			}
			select {
			case <-both:
			case <-time.After(10 * time.Second):
				serial.Store(true)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.CloseDurability()
	a, b := xcrashPair(st)
	fsyncs := func() (n uint64) {
		for _, sh := range st.tab().shards {
			_, _, f, _ := sh.wal.Stats()
			n += f
		}
		return n
	}
	before := fsyncs()
	execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
		{Op: wire.OpSet, Key: a, Val: []byte("v")},
		{Op: wire.OpSet, Key: b, Val: []byte("v")},
	}})
	if serial.Load() || arrived.Load() != 2 {
		t.Fatalf("PREPAREs were not in flight together (%d arrived)", arrived.Load())
	}
	// Two PREPAREs, one DECISION, one COMMIT mark: one fsync each.
	if got := fsyncs() - before; got != 4 {
		t.Fatalf("the commit cost %d fsyncs, want 4", got)
	}
}
