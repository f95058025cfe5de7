package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"polytm/internal/core"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// execOK runs one request against st and fails the test on StatusErr.
func execOK(t *testing.T, st *Store, req *wire.Request) *wire.Response {
	t.Helper()
	resp := st.Execute(req)
	if resp.Status == wire.StatusErr {
		t.Fatalf("%v: %s", req.Op, resp.Msg)
	}
	return resp
}

// scanAll returns the store's full contents via a SCAN.
func scanAll(t *testing.T, st *Store) map[string]string {
	t.Helper()
	resp := execOK(t, st, &wire.Request{Op: wire.OpScan, Sem: wire.SemDefault})
	out := map[string]string{}
	for _, kv := range resp.Pairs {
		out[string(kv.Key)] = string(kv.Val)
	}
	return out
}

// newDurable builds a durable store on dir with background
// checkpoints off (tests drive Checkpoint explicitly).
func newDurable(t *testing.T, dir string, mode wal.Mode) (*Store, *wal.RecoverResult) {
	t.Helper()
	st := NewStore(core.NewDefault())
	res, err := st.EnableDurability(Durability{Dir: dir, Fsync: mode, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	return st, res.Shards[0]
}

// TestDurableRoundTrip: every mutation class survives a close/reopen.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, res := newDurable(t, dir, wal.ModeAlways)
	if res.CheckpointSeq != 0 || res.Records != 0 {
		t.Fatalf("fresh recovery: %+v", res)
	}

	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("a"), Val: []byte("1")})
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("b"), Val: []byte("2")})
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("c"), Val: []byte("3")})
	// CAS success mutates; CAS mismatch and miss must log nothing.
	if r := execOK(t, st, &wire.Request{Op: wire.OpCAS, Sem: wire.SemDefault, Key: []byte("a"), Old: []byte("1"), Val: []byte("1x")}); r.Status != wire.StatusOK {
		t.Fatalf("cas: %v", r.Status)
	}
	if r := execOK(t, st, &wire.Request{Op: wire.OpCAS, Sem: wire.SemDefault, Key: []byte("a"), Old: []byte("wrong"), Val: []byte("zz")}); r.Status != wire.StatusCASMismatch {
		t.Fatalf("cas mismatch: %v", r.Status)
	}
	if r := execOK(t, st, &wire.Request{Op: wire.OpCAS, Sem: wire.SemDefault, Key: []byte("nope"), Old: []byte("x"), Val: []byte("y")}); r.Status != wire.StatusNotFound {
		t.Fatalf("cas miss: %v", r.Status)
	}
	// DEL hit logs, DEL miss does not.
	execOK(t, st, &wire.Request{Op: wire.OpDel, Sem: wire.SemDefault, Key: []byte("b")})
	execOK(t, st, &wire.Request{Op: wire.OpDel, Sem: wire.SemDefault, Key: []byte("ghost")})
	// A TXN batch is one atomic record.
	execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
		{Op: wire.OpSet, Key: []byte("t1"), Val: []byte("x")},
		{Op: wire.OpDel, Key: []byte("c")},
		{Op: wire.OpGet, Key: []byte("a")},
	}})

	want := scanAll(t, st)
	if err := st.CloseDurability(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, res2 := newDurable(t, dir, wal.ModeAlways)
	defer st2.CloseDurability()
	// set×3 + cas-success + del-hit + txn = 6 records.
	if res2.Records != 6 {
		t.Fatalf("replayed %d records, want 6", res2.Records)
	}
	got := scanAll(t, st2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d: %v vs %v", len(got), len(want), got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q: recovered %q, want %q", k, got[k], v)
		}
	}
	if got["a"] != "1x" || got["t1"] != "x" {
		t.Fatalf("recovered state wrong: %v", got)
	}
}

// TestDurableFlushAndCheckpoint: FLUSH is logged, checkpoints compact
// the log, and recovery = checkpoint + tail.
func TestDurableFlushAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, _ := newDurable(t, dir, wal.ModeBatch)
	for i := 0; i < 10; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault,
			Key: []byte(fmt.Sprintf("k%02d", i)), Val: []byte("v")})
	}
	execOK(t, st, &wire.Request{Op: wire.OpFlush, Sem: wire.SemDefault})
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("post"), Val: []byte("flush")})

	if err := st.Checkpoint(context.Background()); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// The pre-checkpoint segment must be gone.
	if _, err := os.Stat(filepath.Join(dir, "wal-00000001.log")); !os.IsNotExist(err) {
		t.Fatalf("segment 1 survived the checkpoint: %v", err)
	}
	// Writes after the checkpoint land in the tail.
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("tail"), Val: []byte("1")})
	if err := st.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	st2, res := newDurable(t, dir, wal.ModeBatch)
	defer st2.CloseDurability()
	if res.CheckpointSeq == 0 || res.CheckpointKeys != 1 || res.Records != 1 {
		t.Fatalf("recovery: %+v", res)
	}
	got := scanAll(t, st2)
	if len(got) != 2 || got["post"] != "flush" || got["tail"] != "1" {
		t.Fatalf("recovered: %v", got)
	}
}

// TestDurableTornTail writes through the store, then tears the log's
// last record on disk: recovery must surface exactly the durable
// prefix — the torn record's transaction never half-applies.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	st, _ := newDurable(t, dir, wal.ModeAlways)
	for i := 0; i < 6; i++ {
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault,
			Key: []byte(fmt.Sprintf("k%d", i)), Val: []byte("v")})
	}
	// A multi-op record at the tail: tearing it must drop ALL of it.
	execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
		{Op: wire.OpSet, Key: []byte("x"), Val: []byte("1")},
		{Op: wire.OpSet, Key: []byte("y"), Val: []byte("2")},
	}})
	if err := st.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-00000001.log")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	st2, res := newDurable(t, dir, wal.ModeAlways)
	defer st2.CloseDurability()
	if res.Records != 6 || res.TruncatedSeg != 1 {
		t.Fatalf("recovery: %+v", res)
	}
	got := scanAll(t, st2)
	if len(got) != 6 {
		t.Fatalf("recovered %d keys, want 6: %v", len(got), got)
	}
	if _, ok := got["x"]; ok {
		t.Fatal("torn TXN record half-applied")
	}
	if _, ok := got["y"]; ok {
		t.Fatal("torn TXN record half-applied")
	}
}

// TestDurableConcurrent hammers a durable store from many goroutines
// and checks recovery equals the final state — the log's total order
// must match the commit order even under contention.
func TestDurableConcurrent(t *testing.T) {
	dir := t.TempDir()
	st, _ := newDurable(t, dir, wal.ModeBatch)
	const workers, per = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := []byte(fmt.Sprintf("w%d-k%d", w, i%8))
				resp := st.Execute(&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault,
					Key: key, Val: []byte(fmt.Sprintf("%d", i))})
				if resp.Status != wire.StatusOK {
					t.Errorf("set: %v %s", resp.Status, resp.Msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := scanAll(t, st)
	if err := st.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	st2, res := newDurable(t, dir, wal.ModeBatch)
	defer st2.CloseDurability()
	if res.Records != workers*per {
		t.Fatalf("replayed %d records, want %d", res.Records, workers*per)
	}
	got := scanAll(t, st2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q: %q != %q (log order diverged from commit order)", k, got[k], v)
		}
	}
}

// TestDurableCheckpointUnderLoad checkpoints while writers run: the
// recovered state must equal the live state afterwards (checkpoint +
// tail overlap replays idempotently). Each writer churns its own keys,
// preloaded first, so the first cut's base walk fits one chunk or spans
// four.
func TestDurableCheckpointUnderLoad(t *testing.T) {
	for _, per := range []int{16, walkChunk} {
		t.Run(fmt.Sprintf("%d-keys-per-writer", per), func(t *testing.T) { durableCheckpointUnderLoad(t, per) })
	}
}

func durableCheckpointUnderLoad(t *testing.T, per int) {
	dir := t.TempDir()
	st, _ := newDurable(t, dir, wal.ModeBatch)
	key := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-%d", w, i)) }
	for w := 0; w < 4; w++ {
		reqs := make([]wire.Request, per)
		for i := range reqs {
			reqs[i] = wire.Request{Op: wire.OpSet, Key: key(w, i), Val: []byte("0")}
		}
		execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: reqs})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.Execute(&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault,
					Key: key(w, i%per), Val: []byte(fmt.Sprintf("%d", i))})
				i++
			}
		}(w)
	}
	for c := 0; c < 3; c++ {
		time.Sleep(10 * time.Millisecond)
		if err := st.Checkpoint(context.Background()); err != nil {
			t.Fatalf("checkpoint %d: %v", c, err)
		}
	}
	close(stop)
	wg.Wait()
	want := scanAll(t, st)
	if len(want) != 4*per {
		t.Fatalf("live store holds %d keys, want %d", len(want), 4*per)
	}
	if err := st.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	st2, res := newDurable(t, dir, wal.ModeBatch)
	defer st2.CloseDurability()
	if res.CheckpointSeq == 0 {
		t.Fatalf("no checkpoint loaded: %+v", res)
	}
	got := scanAll(t, st2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q: %q != %q", k, got[k], v)
		}
	}
}

// TestDurableStats: the STATS surface exposes the wal counters.
func TestDurableStats(t *testing.T) {
	dir := t.TempDir()
	st, _ := newDurable(t, dir, wal.ModeAlways)
	defer st.CloseDurability()
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("k"), Val: []byte("v")})
	if err := st.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := execOK(t, st, &wire.Request{Op: wire.OpStats, Sem: wire.SemDefault})
	got := map[string]uint64{}
	for _, c := range resp.Counters {
		got[c.Name] = c.Value
	}
	for _, name := range []string{"wal_bytes", "wal_records", "wal_fsyncs", "wal_checkpoints", "wal_segment"} {
		if _, ok := got[name]; !ok {
			t.Fatalf("STATS missing %s: %v", name, got)
		}
	}
	if got["wal_records"] != 1 || got["wal_checkpoints"] != 1 || got["wal_bytes"] == 0 || got["wal_fsyncs"] == 0 {
		t.Fatalf("wal counters: %v", got)
	}
	// Non-durable stores must not grow the counters.
	plain := NewStore(core.NewDefault())
	resp = execOK(t, plain, &wire.Request{Op: wire.OpStats, Sem: wire.SemDefault})
	for _, c := range resp.Counters {
		if c.Name == "wal_bytes" {
			t.Fatal("non-durable store reports wal counters")
		}
	}
}

// TestDurableAbortNotLogged: a transaction that fails mid-body (bad
// TXN sub-op after a successful write) must leave nothing in the log
// and nothing in the store.
func TestDurableAbortNotLogged(t *testing.T) {
	dir := t.TempDir()
	st, _ := newDurable(t, dir, wal.ModeAlways)
	resp := st.Execute(&wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
		{Op: wire.OpSet, Key: []byte("doomed"), Val: []byte("1")},
		{Op: wire.OpScan}, // not a legal sub-op: the body errors after the write
	}})
	if resp.Status != wire.StatusErr {
		t.Fatalf("bad batch accepted: %v", resp.Status)
	}
	if got := scanAll(t, st); len(got) != 0 {
		t.Fatalf("aborted txn left writes: %v", got)
	}
	if err := st.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	st2, res := newDurable(t, dir, wal.ModeAlways)
	defer st2.CloseDurability()
	if res.Records != 0 {
		t.Fatalf("aborted transaction reached the log: %+v", res)
	}
}

// TestSnapshotWriteRejectedAtProtocol: a hand-built frame overriding a
// write opcode to snapshot semantics is rejected before any
// transaction starts — one clean StatusErr, no retry loop, no engine
// activity, no visible writes.
func TestSnapshotWriteRejectedAtProtocol(t *testing.T) {
	st := NewStore(core.NewDefault())
	before := st.TM().Stats()
	for _, op := range []wire.Op{wire.OpSet, wire.OpCAS, wire.OpDel, wire.OpTxn, wire.OpFlush} {
		req := &wire.Request{Op: op, Sem: byte(core.Snapshot), Key: []byte("k"), Val: []byte("v"), Old: []byte("o")}
		if op == wire.OpTxn {
			req.Batch = []wire.Request{{Op: wire.OpSet, Key: []byte("k"), Val: []byte("v")}}
		}
		resp := st.Execute(req)
		if resp.Status != wire.StatusErr {
			t.Fatalf("%v under snapshot accepted: %v", op, resp.Status)
		}
		wantErr := (&wire.SnapshotWriteError{Op: op}).Error()
		if resp.Msg != wantErr {
			t.Fatalf("%v: Msg = %q, want %q", op, resp.Msg, wantErr)
		}
	}
	// The typed error is matchable.
	_, err := resolveSemantics(&wire.Request{Op: wire.OpSet, Sem: byte(core.Snapshot)})
	if !errors.Is(err, wire.ErrSnapshotWriteOp) {
		t.Fatalf("err = %v, want ErrSnapshotWriteOp", err)
	}
	var typed *wire.SnapshotWriteError
	if !errors.As(err, &typed) || typed.Op != wire.OpSet {
		t.Fatalf("err not typed: %v", err)
	}
	// No transaction ever started, let alone retried; nothing visible.
	after := st.TM().Stats()
	if after.Starts != before.Starts {
		t.Fatalf("rejection started %d transactions", after.Starts-before.Starts)
	}
	if got := scanAll(t, st); len(got) != 0 {
		t.Fatalf("rejected writes visible: %v", got)
	}
	// Snapshot on READ opcodes stays legal.
	if resp := st.Execute(&wire.Request{Op: wire.OpGet, Sem: byte(core.Snapshot), Key: []byte("k")}); resp.Status != wire.StatusNotFound {
		t.Fatalf("snapshot GET: %v %s", resp.Status, resp.Msg)
	}
}

// TestAppendSubScrubPoisonedReuse is the regression test for the
// appendSub reuse bug: fill EVERY Response field with poison, reuse
// the Response for MGET and TXN answers, and assert the re-encoded
// bytes are identical to a fresh encode — no stale Msg/N/Pairs/
// Counters/nested-Batch may leak through a reused Batch slot.
func TestAppendSubScrubPoisonedReuse(t *testing.T) {
	st := NewStore(core.NewDefault())
	execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("a"), Val: []byte("va")})

	poisonSub := wire.Response{
		Status:   wire.StatusErr,
		Val:      []byte("stale-val"),
		Pairs:    []wire.KV{{Key: []byte("pk"), Val: []byte("pv")}},
		Batch:    []wire.Response{{Status: wire.StatusErr, Msg: "nested"}},
		Counters: []wire.Counter{{Name: "stale", Value: 9}},
		N:        77,
		Msg:      "stale-msg",
		SubOp:    wire.OpScan,
	}
	poisoned := &wire.Response{
		Status:   wire.StatusErr,
		Val:      []byte("top-val"),
		Pairs:    []wire.KV{{Key: []byte("k"), Val: []byte("v")}},
		Batch:    []wire.Response{poisonSub, poisonSub, poisonSub},
		Counters: []wire.Counter{{Name: "x", Value: 1}},
		N:        42,
		Msg:      "top-msg",
		SubOp:    wire.OpCAS,
	}

	reqs := []*wire.Request{
		{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: [][]byte{[]byte("a"), []byte("miss")}},
		{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
			{Op: wire.OpGet, Key: []byte("a")},
			{Op: wire.OpCAS, Key: []byte("a"), Old: []byte("wrong"), Val: []byte("x")},
			{Op: wire.OpDel, Key: []byte("miss")},
		}},
	}
	for _, req := range reqs {
		fresh := new(wire.Response)
		st.ExecuteInto(req, fresh)
		freshBytes, err := wire.AppendResponseFrame(nil, req.Op, fresh)
		if err != nil {
			t.Fatalf("%v fresh encode: %v", req.Op, err)
		}

		reused := poisoned // the same poisoned Response, reused in place
		st.ExecuteInto(req, reused)
		reusedBytes, err := wire.AppendResponseFrame(nil, req.Op, reused)
		if err != nil {
			t.Fatalf("%v reused encode: %v", req.Op, err)
		}
		if !bytes.Equal(freshBytes, reusedBytes) {
			t.Fatalf("%v: poisoned reuse leaked onto the wire:\nfresh  %x\nreused %x", req.Op, freshBytes, reusedBytes)
		}
		// Belt and braces: the scrub is visible on the struct too.
		for i := range reused.Batch {
			sub := &reused.Batch[i]
			if sub.Msg != "" && sub.Status != wire.StatusErr {
				t.Fatalf("%v sub %d kept stale Msg %q", req.Op, i, sub.Msg)
			}
			if sub.N != 0 || len(sub.Pairs) != 0 || len(sub.Counters) != 0 || len(sub.Batch) != 0 {
				t.Fatalf("%v sub %d kept stale fields: %+v", req.Op, i, sub)
			}
		}
	}
}
