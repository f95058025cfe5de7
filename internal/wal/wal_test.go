package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// memStore replays into a plain map, recording every record group so
// tests can assert both final state and replay order/atomicity.
type memStore struct {
	m       map[string]string
	records [][]Op
}

func newMemStore() *memStore { return &memStore{m: map[string]string{}} }

func (s *memStore) apply(ops []Op) error {
	cp := make([]Op, len(ops))
	copy(cp, ops)
	s.records = append(s.records, cp)
	for _, op := range ops {
		switch op.Kind {
		case OpSet:
			s.m[op.Key] = op.Val
		case OpDel:
			delete(s.m, op.Key)
		case OpFlush:
			s.m = map[string]string{}
		default:
			return fmt.Errorf("unknown kind %v", op.Kind)
		}
	}
	return nil
}

func openT(t *testing.T, dir string, opts Options) (*Log, *RecoverResult, *memStore) {
	t.Helper()
	st := newMemStore()
	l, res, err := Open(dir, opts, st.apply)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, res, st
}

// TestOpsRoundTrip: an operation group decodes through DecodeRecord,
// the decoder replay uses, as one RecordOps record.
func TestOpsRoundTrip(t *testing.T) {
	var p []byte
	p = AppendSet(p, []byte("k1"), []byte("v1"))
	p = AppendDel(p, []byte("k2"))
	p = AppendFlush(p)
	p = AppendSet(p, []byte(""), []byte("")) // empty key/val legal
	rec, err := DecodeRecord(nil, p)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	want := []Op{
		{Kind: OpSet, Key: "k1", Val: "v1"},
		{Kind: OpDel, Key: "k2"},
		{Kind: OpFlush},
		{Kind: OpSet},
	}
	if rec.Kind != RecordOps || !reflect.DeepEqual(rec.Ops, want) {
		t.Fatalf("record %v with ops %+v, want %v with %+v", rec.Kind, rec.Ops, RecordOps, want)
	}
	if _, err := DecodeRecord(nil, nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := DecodeRecord(nil, []byte{99}); err == nil || !IsCorrupt(err) {
		t.Fatalf("unknown kind: err = %v, want corrupt", err)
	}
	if _, err := DecodeRecord(nil, []byte{byte(OpSet), 200}); err == nil || !IsCorrupt(err) {
		t.Fatalf("truncated field: err = %v, want corrupt", err)
	}
}

// TestRetiredKindReplaysAsNoOp: kind 4 (REBUILD) is never written any
// more, but a log from before its retirement holds it, inside a record
// and as a record of its own. Reopening replays every SET around it and
// truncates nothing: a decode error there would end the durable prefix
// and drop every later record.
func TestRetiredKindReplaysAsNoOp(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{Mode: ModeAlways})
	for _, p := range [][]byte{
		append(append(AppendSet(nil, []byte("a"), []byte("1")), 4), AppendSet(nil, []byte("b"), []byte("2"))...),
		{4},
		AppendSet(nil, []byte("c"), []byte("3")),
	} {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, res, st := openT(t, dir, Options{})
	defer l2.Close()
	if res.Records != 3 || res.TruncatedSeg != 0 {
		t.Fatalf("recover: %+v, want 3 records and nothing truncated", res)
	}
	if want := map[string]string{"a": "1", "b": "2", "c": "3"}; !reflect.DeepEqual(st.m, want) {
		t.Fatalf("recovered %v, want %v", st.m, want)
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, res, _ := openT(t, dir, Options{Mode: ModeAlways})
	if res.CheckpointSeq != 0 || res.Records != 0 {
		t.Fatalf("fresh dir recovered %+v", res)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(AppendSet(nil, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Append(AppendDel(nil, []byte("k03"))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, res2, st := openT(t, dir, Options{})
	defer l2.Close()
	if res2.Records != 11 || res2.TruncatedSeg != 0 {
		t.Fatalf("recover: %+v", res2)
	}
	if len(st.m) != 9 {
		t.Fatalf("recovered %d keys, want 9: %v", len(st.m), st.m)
	}
	if st.m["k05"] != "v5" {
		t.Fatalf("k05 = %q", st.m["k05"])
	}
	if _, ok := st.m["k03"]; ok {
		t.Fatal("deleted key survived recovery")
	}
}

// TestGroupCommit drives concurrent appenders through one log and
// checks every acknowledged record is present after recovery, in a
// per-key order consistent with reservation order.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{Mode: ModeAlways})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("w%d", w)
				if err := l.Append(AppendSet(nil, []byte(key), []byte(fmt.Sprintf("%d", i)))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	_, _, fsyncs, _ := l.Stats()
	if fsyncs == 0 {
		t.Fatal("ModeAlways performed no fsyncs")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res, st := openT(t, dir, Options{})
	defer l2.Close()
	if res.Records != workers*per {
		t.Fatalf("recovered %d records, want %d", res.Records, workers*per)
	}
	// Each worker appended its values in order; the last must win.
	for w := 0; w < workers; w++ {
		if got := st.m[fmt.Sprintf("w%d", w)]; got != fmt.Sprintf("%d", per-1) {
			t.Fatalf("w%d = %q, want %d", w, got, per-1)
		}
	}
}

// TestCancelledRecordSkipped reserves records and cancels some; the
// cancelled ones must neither reach disk nor block later acks.
func TestCancelledRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{Mode: ModeAlways})
	s1 := l.Reserve(AppendSet(nil, []byte("a"), []byte("1")))
	s2 := l.Reserve(AppendSet(nil, []byte("b"), []byte("2")))
	s3 := l.Reserve(AppendSet(nil, []byte("c"), []byte("3")))
	l.Commit(s1)
	l.Cancel(s2)
	l.Commit(s3)
	for _, s := range []uint64{s1, s2, s3} {
		if err := l.WaitDurable(s); err != nil {
			t.Fatalf("wait %d: %v", s, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, res, st := openT(t, dir, Options{})
	defer l2.Close()
	if res.Records != 2 {
		t.Fatalf("recovered %d records, want 2 (cancelled skipped)", res.Records)
	}
	if _, ok := st.m["b"]; ok {
		t.Fatal("cancelled record reached the log")
	}
}

// TestTornTailTruncated simulates a crash mid-record: the log's last
// record is cut short on disk; recovery must keep the prefix, truncate
// the tear, and leave an appendable log.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 5, recHeader + 1} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, _, _ := openT(t, dir, Options{})
			for i := 0; i < 5; i++ {
				if err := l.Append(AppendSet(nil, []byte(fmt.Sprintf("k%d", i)), []byte("v"))); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// Tear the tail: chop `cut` bytes off the segment.
			seg := filepath.Join(dir, segName(1))
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, fi.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}

			l2, res, st := openT(t, dir, Options{})
			if res.Records != 4 || res.TruncatedSeg != 1 {
				t.Fatalf("recover after tear: %+v", res)
			}
			if len(st.m) != 4 {
				t.Fatalf("recovered %d keys, want 4", len(st.m))
			}
			if _, ok := st.m["k4"]; ok {
				t.Fatal("torn record half-applied")
			}
			// The log must accept appends and recover them on top.
			if err := l2.Append(AppendSet(nil, []byte("after"), []byte("tear"))); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			_, res3, st3 := openT(t, dir, Options{})
			if res3.Records != 5 || st3.m["after"] != "tear" || len(st3.m) != 5 {
				t.Fatalf("post-tear append lost: %+v %v", res3, st3.m)
			}
		})
	}
}

// TestCorruptRecordTruncates flips a byte inside a middle record: the
// durable prefix ends there and everything after is discarded.
func TestCorruptRecordTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{})
	var offsets []int64
	off := int64(0)
	for i := 0; i < 5; i++ {
		payload := AppendSet(nil, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
		offsets = append(offsets, off)
		off += int64(recHeader + len(payload))
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of record 2.
	seg := filepath.Join(dir, segName(1))
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[offsets[2]+recHeader] ^= 0xFF
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	_, res, st := openT(t, dir, Options{})
	if res.Records != 2 || res.TruncatedSeg != 1 || res.TruncatedAt != offsets[2] {
		t.Fatalf("recover after corruption: %+v (want truncation at %d)", res, offsets[2])
	}
	if len(st.m) != 2 {
		t.Fatalf("recovered %d keys, want 2", len(st.m))
	}
}

// TestBatchRecordAtomic: a multi-op record replays as one group.
func TestBatchRecordAtomic(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{})
	var p []byte
	p = AppendSet(p, []byte("x"), []byte("1"))
	p = AppendDel(p, []byte("y"))
	p = AppendSet(p, []byte("z"), []byte("3"))
	if err := l.Append(p); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, res, st := openT(t, dir, Options{})
	if res.Records != 1 {
		t.Fatalf("records = %d, want 1", res.Records)
	}
	if len(st.records[0]) != 3 {
		t.Fatalf("batch delivered as %d groups", len(st.records[0]))
	}
}

// TestCheckpointTruncatesLog: rotate + checkpoint supersedes old
// segments; recovery loads the checkpoint then replays only the tail.
func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{})
	state := map[string]string{}
	for i := 0; i < 20; i++ {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)
		state[k] = v
		if err := l.Append(AppendSet(nil, []byte(k), []byte(v))); err != nil {
			t.Fatal(err)
		}
	}
	seg, cover, err := l.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if seg != 2 {
		t.Fatalf("rotate → segment %d, want 2", seg)
	}
	if err := l.WriteCheckpoint(seg, cover, func(emit func(Op) error) error {
		for k, v := range state {
			if err := emit(Op{Kind: OpSet, Key: k, Val: v}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Old segment must be gone.
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 not truncated away: %v", err)
	}
	// Tail writes after the checkpoint.
	if err := l.Append(AppendSet(nil, []byte("tail"), []byte("t"))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, res, st := openT(t, dir, Options{})
	if res.CheckpointSeq != 2 || res.CheckpointKeys != 20 || res.Records != 1 {
		t.Fatalf("recover: %+v", res)
	}
	if len(st.m) != 21 || st.m["k07"] != "v7" || st.m["tail"] != "t" {
		t.Fatalf("state: %d keys", len(st.m))
	}
}

// TestCorruptCheckpointFallsBack: a trashed newest checkpoint is
// skipped; recovery falls back to the older one plus the log tail.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{})
	if err := l.Append(AppendSet(nil, []byte("a"), []byte("1"))); err != nil {
		t.Fatal(err)
	}
	seg, cover, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(seg, cover, func(emit func(Op) error) error {
		return emit(Op{Kind: OpSet, Key: "a", Val: "1"})
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(AppendSet(nil, []byte("b"), []byte("2"))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Forge a corrupt "newer" checkpoint.
	if err := os.WriteFile(filepath.Join(dir, ckptName(9)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, res, st := openT(t, dir, Options{})
	if res.BadCheckpoints != 1 || res.CheckpointSeq != seg {
		t.Fatalf("recover: %+v", res)
	}
	if !reflect.DeepEqual(st.m, map[string]string{"a": "1", "b": "2"}) {
		t.Fatalf("state: %v", st.m)
	}
}

// TestModes smoke-tests each fsync mode end to end.
func TestModes(t *testing.T) {
	for _, mode := range []Mode{ModeAlways, ModeBatch, ModeOff} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _, _ := openT(t, dir, Options{Mode: mode})
			for i := 0; i < 20; i++ {
				if err := l.Append(AppendSet(nil, []byte("k"), []byte{byte('0' + i%10)})); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, res, st := openT(t, dir, Options{})
			if res.Records != 20 || st.m["k"] != "9" {
				t.Fatalf("mode %v: %+v %v", mode, res, st.m)
			}
		})
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"always": ModeAlways, "batch": ModeBatch, "off": ModeOff} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("sometimes"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// TestRecordFraming pins the on-disk framing against hostile lengths.
func TestRecordFraming(t *testing.T) {
	rec := appendRecord(nil, []byte{byte(OpFlush)})
	if p, rest, ok := nextRecord(rec); !ok || len(rest) != 0 || !bytes.Equal(p, []byte{byte(OpFlush)}) {
		t.Fatalf("round trip failed: %v %v %v", p, rest, ok)
	}
	// Absurd length header: must not allocate or panic, just stop.
	bad := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	if _, _, ok := nextRecord(bad); ok {
		t.Fatal("absurd length accepted")
	}
	// Zero-length record is corrupt (payloads are non-empty).
	zero := []byte{0, 0, 0, 0, 0, 0, 0, 0}
	if _, _, ok := nextRecord(zero); ok {
		t.Fatal("zero-length record accepted")
	}
}

// TestRefusesPartialHistory: recovery must never reconstruct a state
// the keyspace was never in. Both amputation cases — the only
// checkpoint rotting after its install already truncated the older
// history, and a missing middle segment — must fail Open loudly
// rather than replay a suffix onto an empty store.
func TestRefusesPartialHistory(t *testing.T) {
	t.Run("rotted only checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		l, _, _ := openT(t, dir, Options{})
		for i := 0; i < 4; i++ {
			if err := l.Append(AppendSet(nil, []byte(fmt.Sprintf("k%d", i)), []byte("v"))); err != nil {
				t.Fatal(err)
			}
		}
		seg, cover, err := l.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WriteCheckpoint(seg, cover, func(emit func(Op) error) error {
			for i := 0; i < 4; i++ {
				if err := emit(Op{Kind: OpSet, Key: fmt.Sprintf("k%d", i), Val: "v"}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(AppendDel(nil, []byte("k0"))); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Rot the (only) checkpoint: segment 1 is already gone, so the
		// surviving segment-2 suffix (a lone DEL) must not replay onto
		// an empty store.
		path := filepath.Join(dir, ckptName(seg))
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)/2] ^= 0xFF
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}, newMemStore().apply); err == nil {
			t.Fatal("Open reconstructed a partial keyspace from a suffix")
		}
	})
	t.Run("missing first segment", func(t *testing.T) {
		dir := t.TempDir()
		l, _, _ := openT(t, dir, Options{})
		if err := l.Append(AppendSet(nil, []byte("a"), []byte("1"))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(AppendSet(nil, []byte("b"), []byte("2"))); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, segName(1))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}, newMemStore().apply); err == nil {
			t.Fatal("Open accepted a history missing its first segment")
		}
	})
	t.Run("missing middle segment", func(t *testing.T) {
		dir := t.TempDir()
		l, _, _ := openT(t, dir, Options{})
		if err := l.Append(AppendSet(nil, []byte("a"), []byte("1"))); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, _, err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(AppendSet(nil, []byte(fmt.Sprintf("r%d", i)), []byte("x"))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, segName(2))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}, newMemStore().apply); err == nil {
			t.Fatal("Open accepted a history with a missing middle segment")
		}
	})
}

// TestCheckpointBatchedApply: checkpoint entries arrive in batched
// atomic groups, and every entry arrives exactly once.
func TestCheckpointBatchedApply(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{})
	const n = 600 // > 2 apply batches
	for i := 0; i < n; i++ {
		if err := l.Append(AppendSet(nil, []byte(fmt.Sprintf("k%04d", i)), []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	seg, cover, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(seg, cover, func(emit func(Op) error) error {
		for i := 0; i < n; i++ {
			if err := emit(Op{Kind: OpSet, Key: fmt.Sprintf("k%04d", i), Val: "v"}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, res, st := openT(t, dir, Options{})
	if res.CheckpointKeys != n || len(st.m) != n {
		t.Fatalf("checkpoint replay: keys=%d map=%d, want %d", res.CheckpointKeys, len(st.m), n)
	}
	if len(st.records) >= n {
		t.Fatalf("checkpoint applied %d groups for %d entries — batching is off", len(st.records), n)
	}
}

// TestCloseAcknowledgesDecidedRecords: Close flushes every decided
// record, so a waiter it overtakes — blocked in WaitDurable when Close
// begins — gets its record's verdict, not ErrClosed. (A connection holds
// its acknowledgement waits back to its flush, so a MERGE retiring the
// shard can close the log under a waiter.) The flusher is held inside
// the hook after writing the first record; both records are committed.
func TestCloseAcknowledgesDecidedRecords(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	l, _, _ := openT(t, t.TempDir(), Options{Mode: ModeBatch, OnDurableRecord: func(byte) {
		once.Do(func() { close(entered); <-release })
	}})
	first := l.Reserve([]byte{0x01, 'a'})
	l.Commit(first)
	<-entered
	second := l.Reserve([]byte{0x01, 'b'})
	l.Commit(second)
	waited, closed := make(chan error, 1), make(chan error, 1)
	go func() { waited <- l.WaitDurable(second) }()
	go func() { closed <- l.Close() }()
	// Not a synchronisation: it only gives Close the time to overtake the
	// waiter, which is the order that used to answer ErrClosed.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-waited; err != nil {
		t.Fatalf("WaitDurable of a committed record across Close: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.WaitDurable(second + 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitDurable of a record never reserved, after Close: %v, want ErrClosed", err)
	}
}

// TestAppendBesideInflightFsync: under ModeBatch an acknowledgement
// needs only the write, so an append must not queue behind a background
// fsync it never asked for. The test holds the sync side of the file
// lock, as syncDirty does across f.Sync: an Append is acknowledged
// meanwhile, and Rotate, which swaps the descriptor, waits for the sync.
func TestAppendBesideInflightFsync(t *testing.T) {
	// A window this long keeps the real syncer out of the way.
	l, _, _ := openT(t, t.TempDir(), Options{Mode: ModeBatch, BatchWindow: time.Hour})
	l.fileMu.RLock() // an fsync in flight
	appended := make(chan error, 1)
	go func() { appended <- l.Append([]byte{0x01, 'a'}) }()
	select {
	case err := <-appended:
		if err != nil {
			l.fileMu.RUnlock()
			t.Fatalf("Append beside an in-flight fsync: %v", err)
		}
	case <-time.After(5 * time.Second):
		l.fileMu.RUnlock()
		t.Fatal("Append was not acknowledged while an fsync was in flight")
	}
	rotated := make(chan error, 1)
	go func() { _, _, err := l.Rotate(); rotated <- err }()
	select {
	case <-rotated:
		l.fileMu.RUnlock()
		t.Fatal("Rotate swapped the segment under an in-flight fsync")
	case <-time.After(50 * time.Millisecond):
	}
	l.fileMu.RUnlock()
	if err := <-rotated; err != nil {
		t.Fatalf("Rotate after the fsync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
