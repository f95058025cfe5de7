package repl

import (
	"reflect"
	"slices"
	"testing"

	"polytm/internal/wal"
	"polytm/internal/wire"
)

// recordingFollower is a fakeFollower that also keeps every applied
// operation group, per shard, in application order.
type recordingFollower struct {
	*fakeFollower
	groups map[int][][]wal.Op
}

func newRecordingFollower(shards int) *recordingFollower {
	return &recordingFollower{fakeFollower: newFakeFollower(shards), groups: make(map[int][][]wal.Op)}
}

func (rf *recordingFollower) ApplyShardOps(shard int, ops []wal.Op) error {
	rf.groups[shard] = append(rf.groups[shard], slices.Clone(ops))
	return rf.fakeFollower.ApplyShardOps(shard, ops)
}

// idleFollower builds a Follower whose link goroutine never ran, so
// frames can be fed to it by hand and Promote's halt returns at once.
func idleFollower(store FollowerStore) *Follower {
	f := newFollower(FollowerConfig{Primary: "unused", Store: store})
	close(f.done)
	return f
}

// feedWAL ships payloads to shard as one WAL-BATCH frame, through the
// frame codec, the way the link loop hands them over.
func feedWAL(t *testing.T, f *Follower, shard int, payloads ...[]byte) {
	t.Helper()
	out := wire.ReplFrame{Kind: wire.ReplWALBatch, Shard: uint64(shard)}
	for i, p := range payloads {
		out.Recs = append(out.Recs, wire.ReplRec{Seq: uint64(i + 1), Payload: p})
	}
	buf, err := wire.AppendReplFrame(nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	var in wire.ReplFrame
	if err := wire.DecodeReplFrame(&in, buf[4:]); err != nil {
		t.Fatal(err)
	}
	var ops []wal.Op
	if err := f.applyWALBatch(&in, &ops); err != nil {
		t.Fatal(err)
	}
}

func set(k, v string) []byte { return wal.AppendSet(nil, []byte(k), []byte(v)) }

// streamOutcome is what one consumer made of a record stream.
type streamOutcome struct {
	Groups    [][]wal.Op
	InDoubt   *wal.PendingPrepare
	Decisions []uint64
	MaxEpoch  uint64
}

func outcomeOf(groups [][]wal.Op, r *wal.Replay) streamOutcome {
	return streamOutcome{Groups: groups, InDoubt: r.InDoubt, Decisions: r.Decisions, MaxEpoch: r.MaxEpoch}
}

// TestStreamEquivalence holds the three consumers of a shard's record
// stream to one meaning: the bare wal.Replay stepper, wal.Open
// replaying the records from a log, and a Follower applying them from
// WAL-BATCH frames must release the same operation groups in the same
// order and end with the same in-doubt prepare, decision set and 2PC
// epoch floor — which is also the floor a promotion hands the store.
func TestStreamEquivalence(t *testing.T) {
	split := &wal.Reshard{Op: wal.ReshardSplit, Src: 0, Dst: 2, Mod: 4, Res: 0, Mod2: 4, Res2: 2, Dir: "shard-0002"}
	rows := []struct {
		name string
		recs [][]byte
		want streamOutcome
	}{
		{"ops", [][]byte{set("a", "1"), wal.AppendDel(nil, []byte("a"))},
			streamOutcome{Groups: [][]wal.Op{{{Kind: wal.OpSet, Key: "a", Val: "1"}}, {{Kind: wal.OpDel, Key: "a"}}}}},
		{"prepare-commit", [][]byte{set("a", "1"), wal.AppendPrepare(nil, 5, 1, set("b", "2")), wal.AppendCommitMark(nil, 5), set("c", "3")},
			streamOutcome{MaxEpoch: 5, Groups: [][]wal.Op{
				{{Kind: wal.OpSet, Key: "a", Val: "1"}}, {{Kind: wal.OpSet, Key: "b", Val: "2"}}, {{Kind: wal.OpSet, Key: "c", Val: "3"}}}}},
		{"prepare-decision", [][]byte{wal.AppendPrepare(nil, 9, 0, set("x", "y")), wal.AppendDecision(nil, 9)},
			streamOutcome{MaxEpoch: 9, Decisions: []uint64{9}, Groups: [][]wal.Op{{{Kind: wal.OpSet, Key: "x", Val: "y"}}}}},
		{"prepare-superseded-by-ops", [][]byte{wal.AppendPrepare(nil, 3, 1, set("ghost", "1")), set("real", "2")},
			streamOutcome{MaxEpoch: 3, Groups: [][]wal.Op{{{Kind: wal.OpSet, Key: "real", Val: "2"}}}}},
		{"prepare-wrong-epoch-commit", [][]byte{wal.AppendPrepare(nil, 4, 1, set("ghost", "1")), wal.AppendCommitMark(nil, 99)},
			streamOutcome{MaxEpoch: 99}},
		{"prepare-reshard-begin", [][]byte{wal.AppendPrepare(nil, 3, 1, set("ghost", "1")), wal.AppendReshardBegin(nil, 1, split)},
			streamOutcome{MaxEpoch: 3}},
		{"trailing-prepare", [][]byte{set("a", "1"), wal.AppendPrepare(nil, 12, 2, wal.AppendDel(nil, []byte("a")))},
			streamOutcome{MaxEpoch: 12, Groups: [][]wal.Op{{{Kind: wal.OpSet, Key: "a", Val: "1"}}},
				InDoubt: &wal.PendingPrepare{Epoch: 12, Coord: 2, Ops: []wal.Op{{Kind: wal.OpDel, Key: "a"}}}}},
		// Reshard records carry ROUTING epochs, a counter of their own:
		// they must not raise the 2PC epoch floor on either side.
		{"reshard-epoch-above-2pc", [][]byte{wal.AppendPrepare(nil, 2, 0, set("k", "v")), wal.AppendDecision(nil, 2),
			wal.AppendReshardBegin(nil, 700, split), set("m", "1"), wal.AppendReshardCommit(nil, 700)},
			streamOutcome{MaxEpoch: 2, Decisions: []uint64{2}, Groups: [][]wal.Op{
				{{Kind: wal.OpSet, Key: "k", Val: "v"}}, {{Kind: wal.OpSet, Key: "m", Val: "1"}}}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// (a) the bare stepper
			var rp wal.Replay
			var groups [][]wal.Op
			for _, p := range row.recs {
				rec, err := wal.DecodeRecord(nil, p)
				if err != nil {
					t.Fatal(err)
				}
				if g := rp.Step(rec); g != nil {
					groups = append(groups, g)
				}
			}
			if got := outcomeOf(groups, &rp); !reflect.DeepEqual(got, row.want) {
				t.Fatalf("stepper:\n got %+v\nwant %+v", got, row.want)
			}

			// (b) a log holding the records, reopened
			dir := t.TempDir()
			l, _, err := wal.Open(dir, wal.Options{Mode: wal.ModeOff}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range row.recs {
				if err := l.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			groups = nil
			l, res, err := wal.Open(dir, wal.Options{Mode: wal.ModeOff}, func(ops []wal.Op) error {
				groups = append(groups, slices.Clone(ops))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			if got := outcomeOf(groups, &res.Replay); !reflect.DeepEqual(got, row.want) {
				t.Fatalf("wal.Open:\n got %+v\nwant %+v", got, row.want)
			}
			if !reflect.DeepEqual(res.Reshards, rp.Reshards) {
				t.Fatalf("reshard journal: wal.Open %+v, stepper %+v", res.Reshards, rp.Reshards)
			}

			// (c) a follower fed the records as a WAL-BATCH frame
			store := newRecordingFollower(1)
			f := idleFollower(store)
			feedWAL(t, f, 0, row.recs...)
			if got := outcomeOf(store.groups[0], &f.shards[0].replay); !reflect.DeepEqual(got, row.want) {
				t.Fatalf("follower:\n got %+v\nwant %+v", got, row.want)
			}
			pr, err := f.Promote()
			if err != nil {
				t.Fatal(err)
			}
			if pr.MaxEpoch != res.MaxEpoch || store.epoch != res.MaxEpoch {
				t.Fatalf("promotion epoch floor = %d (store resumed at %d), recovery of the same log reports %d", pr.MaxEpoch, store.epoch, res.MaxEpoch)
			}
		})
	}
}

// TestPromoteResolvesByStableID: promotion settles pending prepares by
// the rule recovery uses, keyed by the coordinator's STABLE shard id.
// After an adopted TOPOLOGY the ids no longer equal table positions:
// a two-shard store that split shard 1 and then shard 0 has id 3 at
// position 2 and id 2 at position 3.
func TestPromoteResolvesByStableID(t *testing.T) {
	store := newRecordingFollower(2)
	f := idleFollower(store)
	topo := &wire.ReplFrame{Kind: wire.ReplTopology, Epoch: 2, Topo: []wire.ReplShardSlice{
		{ID: 0, Mod: 4, Res: 0}, {ID: 1, Mod: 4, Res: 1}, {ID: 3, Mod: 4, Res: 2}, {ID: 2, Mod: 4, Res: 3}}}
	if err := f.adoptTopology(topo); err != nil {
		t.Fatal(err)
	}

	// Position 2 (id 3) coordinated epoch 7 and decided it. Position 3
	// (id 2) prepared under it and the stream stopped there: commits.
	// A position-keyed lookup would ask position 3 itself and roll back.
	feedWAL(t, f, 2, wal.AppendPrepare(nil, 7, 3, set("c", "coord")), wal.AppendDecision(nil, 7))
	feedWAL(t, f, 3, wal.AppendPrepare(nil, 7, 3, set("p", "part")))
	// Position 0 prepared under epoch 8, which its coordinator (id 1)
	// never decided: rolls back.
	feedWAL(t, f, 0, wal.AppendPrepare(nil, 8, 1, set("lost", "1")))

	res, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 1 || res.RolledBack != 1 || res.MaxEpoch != 8 {
		t.Fatalf("Promote = %+v, want 1 committed, 1 rolled back, epoch floor 8", res)
	}
	if got := store.snapshot(3); !reflect.DeepEqual(got, map[string]string{"p": "part"}) {
		t.Fatalf("participant shard = %v, want the committed prepare applied", got)
	}
	if got := store.snapshot(0); len(got) != 0 {
		t.Fatalf("undecided prepare applied: %v", got)
	}
	if store.epoch != 8 {
		t.Fatalf("store resumed at epoch %d, want 8", store.epoch)
	}
	for i := range f.shards {
		if f.shards[i].replay.InDoubt != nil {
			t.Fatalf("shard %d still holds a pending prepare after promotion", i)
		}
	}
}

// TestCatchUpRecordsHoldNoPosition: a catch-up record (seq 0) steps
// through the same stream as a live one and leaves its shard with no
// position until SNAP-DONE sets the cover seq — so a link cut anywhere
// in a catch-up reconnects into a full one. Its bytes are not acked
// (the hub's lag counts live bytes only), and SNAP-DONE restarts the
// shard's stream whichever catch-up it ends.
func TestCatchUpRecordsHoldNoPosition(t *testing.T) {
	store := newRecordingFollower(1)
	f := idleFollower(store)
	feedWAL(t, f, 0, set("stale", "1"), wal.AppendPrepare(nil, 4, 0, set("p", "1")))
	if f.shards[0].ackSeq != 2 || f.shards[0].replay.InDoubt == nil {
		t.Fatalf("after two live records: position %d, in doubt %v", f.shards[0].ackSeq, f.shards[0].replay.InDoubt)
	}
	live := f.shards[0].ackBytes

	catchUp := &wire.ReplFrame{Kind: wire.ReplWALBatch, Recs: []wire.ReplRec{
		{Payload: wal.AppendSet(wal.AppendFlush(nil), []byte("a"), []byte("1"))},
	}}
	var ops []wal.Op
	if err := f.applyWALBatch(catchUp, &ops); err != nil {
		t.Fatal(err)
	}
	if f.shards[0].ackSeq != 0 || f.shards[0].ackBytes != live {
		t.Fatalf("during catch-up: position %d, acked bytes %d, want 0 and the %d live bytes", f.shards[0].ackSeq, f.shards[0].ackBytes, live)
	}
	if got := store.snapshot(0); !reflect.DeepEqual(got, map[string]string{"a": "1"}) {
		t.Fatalf("shard after the catch-up record = %v", got)
	}

	f.finishCatchUp(&wire.ReplFrame{Kind: wire.ReplSnapDone, CoverSeq: 9, Mode: wire.ReplCatchupSnap, Incarnation: 5})
	if sh := f.shards[0]; sh.ackSeq != 9 || sh.ackBytes != 0 || sh.replay.InDoubt != nil || f.primaryInc != 5 {
		t.Fatalf("after SNAP-DONE: position %d, bytes %d, in doubt %v, incarnation %d", sh.ackSeq, sh.ackBytes, sh.replay.InDoubt, f.primaryInc)
	}
}
