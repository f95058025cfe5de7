package wal

import (
	"reflect"
	"testing"
)

// TestControlRecordRoundTrip: the three control payloads decode back
// to what was appended, and plain op payloads still decode as
// RecordOps.
func TestControlRecordRoundTrip(t *testing.T) {
	var ops []byte
	ops = AppendSet(ops, []byte("k"), []byte("v"))
	ops = AppendDel(ops, []byte("d"))

	rec, err := DecodeRecord(nil, AppendPrepare(nil, 42, 3, ops))
	if err != nil {
		t.Fatalf("decode prepare: %v", err)
	}
	want := Record{Kind: RecordPrepare, Epoch: 42, Coord: 3,
		Ops: []Op{{Kind: OpSet, Key: "k", Val: "v"}, {Kind: OpDel, Key: "d"}}}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("prepare = %+v, want %+v", rec, want)
	}

	rec, err = DecodeRecord(nil, AppendDecision(nil, 1<<40))
	if err != nil {
		t.Fatalf("decode decision: %v", err)
	}
	if rec.Kind != RecordDecision || rec.Epoch != 1<<40 || rec.Ops != nil {
		t.Fatalf("decision = %+v", rec)
	}

	rec, err = DecodeRecord(nil, AppendCommitMark(nil, 7))
	if err != nil {
		t.Fatalf("decode commit: %v", err)
	}
	if rec.Kind != RecordCommit || rec.Epoch != 7 {
		t.Fatalf("commit = %+v", rec)
	}

	rec, err = DecodeRecord(nil, AppendOps(nil, want.Ops))
	if err != nil {
		t.Fatalf("decode ops: %v", err)
	}
	if rec.Kind != RecordOps || !reflect.DeepEqual(rec.Ops, want.Ops) {
		t.Fatalf("ops = %+v", rec)
	}

	// Truncated/garbage control payloads are corrupt, not panics.
	for _, bad := range [][]byte{
		{0x10},            // prepare with no epoch
		{0x10, 42},        // prepare with no coord
		{0x10, 42, 0},     // prepare with empty ops (empty group is invalid)
		{0x11},            // decision with no epoch
		{0x11, 42, 9},     // decision with trailing bytes
		{0x12, 0x80},      // commit with torn uvarint
		{0x12, 42, 1},     // commit with trailing bytes
		{0x10, 42, 0, 99}, // prepare with bad op kind
	} {
		if _, err := DecodeRecord(nil, bad); err == nil || !IsCorrupt(err) {
			t.Fatalf("payload %v: err = %v, want corrupt", bad, err)
		}
	}
}

// TestRecoverPrepareCommit: a PREPARE followed by its COMMIT mark
// replays; the operations apply exactly once, at the prepare's
// position in the log order.
func TestRecoverPrepareCommit(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{Mode: ModeAlways})
	mustAppend(t, l, AppendSet(nil, []byte("a"), []byte("1")))
	var ops []byte
	ops = AppendSet(ops, []byte("b"), []byte("2"))
	mustAppend(t, l, AppendPrepare(nil, 5, 0, ops))
	mustAppend(t, l, AppendCommitMark(nil, 5))
	mustAppend(t, l, AppendSet(nil, []byte("c"), []byte("3")))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res, st := openT(t, dir, Options{Mode: ModeAlways})
	defer l2.Close()
	if res.Records != 4 || res.InDoubt != nil || res.AbortedPrepares != 0 {
		t.Fatalf("recover: %+v", res)
	}
	if res.MaxEpoch != 5 {
		t.Fatalf("MaxEpoch = %d, want 5", res.MaxEpoch)
	}
	want := map[string]string{"a": "1", "b": "2", "c": "3"}
	if !reflect.DeepEqual(st.m, want) {
		t.Fatalf("state = %v, want %v", st.m, want)
	}
	// The prepare's group applied as its own atomic record, between a and c.
	if len(st.records) != 3 || st.records[1][0].Key != "b" {
		t.Fatalf("replay groups = %+v", st.records)
	}
}

// TestRecoverDecisionResolvesOwnPrepare: on the coordinator shard the
// DECISION record doubles as the commit mark for its own prepare, and
// lands in the decision set.
func TestRecoverDecisionResolvesOwnPrepare(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{Mode: ModeAlways})
	mustAppend(t, l, AppendPrepare(nil, 9, 0, AppendSet(nil, []byte("x"), []byte("y"))))
	mustAppend(t, l, AppendDecision(nil, 9))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res, st := openT(t, dir, Options{Mode: ModeAlways})
	defer l2.Close()
	if st.m["x"] != "y" {
		t.Fatalf("prepare not applied: %v", st.m)
	}
	if !reflect.DeepEqual(res.Decisions, []uint64{9}) {
		t.Fatalf("decisions = %v", res.Decisions)
	}
	if res.InDoubt != nil {
		t.Fatalf("in-doubt: %+v", res.InDoubt)
	}
}

// TestRecoverOrphanedPrepare: a PREPARE followed by an unrelated
// record was aborted live — its operations must NOT apply.
func TestRecoverOrphanedPrepare(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{Mode: ModeAlways})
	mustAppend(t, l, AppendPrepare(nil, 3, 1, AppendSet(nil, []byte("ghost"), []byte("1"))))
	mustAppend(t, l, AppendSet(nil, []byte("real"), []byte("2")))
	// A commit mark for a DIFFERENT epoch must not resurrect a prepare.
	mustAppend(t, l, AppendPrepare(nil, 4, 1, AppendSet(nil, []byte("ghost2"), []byte("1"))))
	mustAppend(t, l, AppendCommitMark(nil, 99))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res, st := openT(t, dir, Options{Mode: ModeAlways})
	defer l2.Close()
	if _, ok := st.m["ghost"]; ok {
		t.Fatal("aborted prepare applied")
	}
	if _, ok := st.m["ghost2"]; ok {
		t.Fatal("epoch-mismatched prepare applied")
	}
	if st.m["real"] != "2" {
		t.Fatalf("state = %v", st.m)
	}
	if res.AbortedPrepares != 2 {
		t.Fatalf("AbortedPrepares = %d, want 2", res.AbortedPrepares)
	}
}

// TestRecoverInDoubtPrepare: a PREPARE ending the log is surfaced, not
// applied — the caller resolves it against the coordinator.
func TestRecoverInDoubtPrepare(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{Mode: ModeAlways})
	mustAppend(t, l, AppendSet(nil, []byte("a"), []byte("1")))
	mustAppend(t, l, AppendPrepare(nil, 12, 2, AppendDel(nil, []byte("a"))))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res, st := openT(t, dir, Options{Mode: ModeAlways})
	defer l2.Close()
	if st.m["a"] != "1" {
		t.Fatalf("in-doubt prepare applied: %v", st.m)
	}
	pp := res.InDoubt
	if pp == nil || pp.Epoch != 12 || pp.Coord != 2 {
		t.Fatalf("InDoubt = %+v", pp)
	}
	if !reflect.DeepEqual(pp.Ops, []Op{{Kind: OpDel, Key: "a"}}) {
		t.Fatalf("InDoubt ops = %+v", pp.Ops)
	}
	if res.MaxEpoch != 12 {
		t.Fatalf("MaxEpoch = %d", res.MaxEpoch)
	}
}

func mustAppend(t *testing.T, l *Log, payload []byte) {
	t.Helper()
	if err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
}

// TestReplayKeepsNewestDecisions: a stream stepped without end keeps a
// bounded decision set, and it is the newest decisions that stay — the
// only ones an in-doubt prepare can still ask for.
func TestReplayKeepsNewestDecisions(t *testing.T) {
	var coord, part Replay
	const n = 3*maxDecisions + 7
	for e := uint64(1); e <= n; e++ {
		coord.Step(Record{Kind: RecordDecision, Epoch: e})
	}
	if len(coord.Decisions) > maxDecisions || len(coord.Decisions) < maxDecisions/2 {
		t.Fatalf("kept %d decisions, want between %d and %d", len(coord.Decisions), maxDecisions/2, maxDecisions)
	}
	if last := coord.Decisions[len(coord.Decisions)-1]; last != n || coord.MaxEpoch != n {
		t.Fatalf("newest decision kept = %d, MaxEpoch = %d, want %d", last, coord.MaxEpoch, n)
	}
	part.Step(Record{Kind: RecordPrepare, Epoch: n, Coord: 4, Ops: []Op{{Kind: OpSet, Key: "k", Val: "v"}}})
	streams := []Stream{{ID: 9, Replay: &part}, {ID: 4, Replay: &coord}}
	committed, rolledBack, err := ResolveInDoubt(streams, func(i int, pp *PendingPrepare, commit bool) error {
		if i != 0 || pp.Epoch != n || !commit {
			t.Fatalf("resolve(%d, epoch %d, commit=%v), want stream 0, epoch %d, commit", i, pp.Epoch, commit, n)
		}
		return nil
	})
	if err != nil || committed != 1 || rolledBack != 0 {
		t.Fatalf("ResolveInDoubt = %d committed, %d rolled back, err %v", committed, rolledBack, err)
	}
}
