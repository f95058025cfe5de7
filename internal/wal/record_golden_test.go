package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenRecords is every record kind, pinned as payload bytes under
// testdata/records/<name>.rec, beside the Record each decodes to.
func goldenRecords() []struct {
	name    string
	payload []byte
	want    Record
} {
	split := Reshard{Op: ReshardSplit, Src: 1, Dst: 4, Mod: 4, Res: 1, Mod2: 4, Res2: 3, Dir: "shard-0004"}
	merge := Reshard{Op: ReshardMerge, Src: 4, Dst: 1, Mod: 2, Res: 1, Dir: "shard-0004"}
	ops := AppendFlush(AppendDel(AppendSet(nil, []byte("k"), []byte("value")), []byte("gone")))
	return []struct {
		name    string
		payload []byte
		want    Record
	}{
		{"ops", ops, Record{Kind: RecordOps, Ops: []Op{
			{Kind: OpSet, Key: "k", Val: "value"}, {Kind: OpDel, Key: "gone"}, {Kind: OpFlush},
		}}},
		{"prepare", AppendPrepare(nil, 300, 2, AppendSet(nil, []byte("x"), []byte("1"))), Record{
			Kind: RecordPrepare, Epoch: 300, Coord: 2, Ops: []Op{{Kind: OpSet, Key: "x", Val: "1"}},
		}},
		{"decision", AppendDecision(nil, 300), Record{Kind: RecordDecision, Epoch: 300}},
		{"commit", AppendCommitMark(nil, 300), Record{Kind: RecordCommit, Epoch: 300}},
		{"reshard-begin-split", AppendReshardBegin(nil, 7, &split), Record{Kind: RecordReshardBegin, Epoch: 7, Reshard: split}},
		{"reshard-begin-merge", AppendReshardBegin(nil, 8, &merge), Record{Kind: RecordReshardBegin, Epoch: 8, Reshard: merge}},
		{"reshard-commit", AppendReshardCommit(nil, 8), Record{Kind: RecordReshardCommit, Epoch: 8}},
	}
}

// TestGoldenRecords: every record kind re-encodes to the bytes it was
// pinned with, and those bytes decode to the Record they were encoded
// from. The files were written by the encoders that preceded the shared
// field reader; they are never regenerated from new code.
func TestGoldenRecords(t *testing.T) {
	for _, c := range goldenRecords() {
		t.Run(c.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "records", c.name+".rec"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c.payload, golden) {
				t.Fatalf("encoded %x, golden %x", c.payload, golden)
			}
			got, err := DecodeRecord(nil, golden)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("decoded %+v, want %+v", got, c.want)
			}
		})
	}
}
