package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The fuzz targets below cover the two decoders that read what a disk
// hands back — snapshot files and record payloads. Seeds are the golden
// snapshot files, the hostile shapes of TestSnapshotCorruptFiles and the
// payloads of TestControlRecordRoundTrip; CI runs each target for a
// short -fuzztime as a smoke test.

// FuzzReadSnapshotFile feeds arbitrary files to the snapshot reader as
// either variant: it must never panic, never emit an entry from a file
// that fails validation, never hold an entry larger than the file, and
// anything it accepts the writer must round-trip.
func FuzzReadSnapshotFile(f *testing.F) {
	for _, name := range goldenSnapshots {
		buf, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	hdr := deltaPreamble(snapHeader{Self: 3, Base: 2, Parent: 2})
	f.Add(cat(ckptMagic[:], hostileLength))
	f.Add(cat(hdr, hostileLength))
	f.Add(hdr)
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		collect := func(into *[]deltaEntry) func(Op) error {
			return func(op Op) error {
				if len(op.Key)+len(op.Val) > len(data) {
					t.Fatalf("entry of %d bytes from a %d-byte file", len(op.Key)+len(op.Val), len(data))
				}
				*into = append(*into, entryOf(op))
				return nil
			}
		}
		for _, delta := range []bool{false, true} {
			var got []deltaEntry
			hdr, err := decodeSnapshot(bytes.NewReader(data), int64(len(data)), delta, collect(&got))
			if err != nil {
				if len(got) != 0 {
					t.Fatalf("emitted %d entries from a file that failed with %v", len(got), err)
				}
				if !IsCorrupt(err) {
					t.Fatalf("unexpected error class: %v", err)
				}
				continue
			}
			var wh *snapHeader
			if delta {
				wh = &hdr
			}
			var out bytes.Buffer
			if err := encodeSnapshot(&out, wh, func(emit func(Op) error) error {
				for _, e := range got {
					if err := emit(e.op()); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var again []deltaEntry
			hdr2, err := decodeSnapshot(bytes.NewReader(out.Bytes()), int64(out.Len()), delta, collect(&again))
			if err != nil || hdr2 != hdr || !reflect.DeepEqual(again, got) {
				t.Fatalf("rewrite does not round-trip: err=%v header %+v → %+v, %d → %d entries", err, hdr, hdr2, len(got), len(again))
			}
		}
	})
}

// encodeRecord re-encodes a decoded record with the Append builders.
func encodeRecord(rec Record) []byte {
	switch rec.Kind {
	case RecordPrepare:
		return AppendPrepare(nil, rec.Epoch, rec.Coord, AppendOps(nil, rec.Ops))
	case RecordDecision:
		return AppendDecision(nil, rec.Epoch)
	case RecordCommit:
		return AppendCommitMark(nil, rec.Epoch)
	case RecordReshardBegin:
		return AppendReshardBegin(nil, rec.Epoch, &rec.Reshard)
	case RecordReshardCommit:
		return AppendReshardCommit(nil, rec.Epoch)
	default:
		return AppendOps(nil, rec.Ops)
	}
}

// FuzzDecodeRecord throws arbitrary payloads at the record decoder: it
// must never panic, and whatever it accepts must re-encode to a payload
// that decodes to the same record — unless its operation group is made
// only of retired kind-4 ops, which decodes to no operations and has no
// encoding of its own.
func FuzzDecodeRecord(f *testing.F) {
	ops := AppendDel(AppendSet(nil, []byte("k"), []byte("v")), []byte("d"))
	f.Add(ops)
	f.Add([]byte{3, 4}) // FLUSH, then a retired kind-4 op
	f.Add(AppendPrepare(nil, 42, 3, ops))
	f.Add(AppendDecision(nil, 1<<40))
	f.Add(AppendCommitMark(nil, 7))
	f.Add(AppendReshardBegin(nil, 9, &Reshard{Op: ReshardSplit, Src: 1, Dst: 4, Mod: 4, Res: 1, Mod2: 4, Res2: 3, Dir: "shard-0004"}))
	f.Add(AppendReshardCommit(nil, 9))
	for _, bad := range [][]byte{{}, {0x10}, {0x10, 42}, {0x10, 42, 0}, {0x11, 42, 9}, {0x12, 0x80}, {0x10, 42, 0, 99}, {0x13, 1, 7}} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(nil, payload)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if len(rec.Ops) == 0 && (rec.Kind == RecordOps || rec.Kind == RecordPrepare) {
			if rec.Kind == RecordOps && len(bytes.Trim(payload, "\x04")) != 0 {
				t.Fatalf("%x decoded to no operations", payload)
			}
			return
		}
		again, err := DecodeRecord(nil, encodeRecord(rec))
		if err != nil || !reflect.DeepEqual(again, rec) {
			t.Fatalf("re-encode does not round-trip: %+v → %+v (%v)", rec, again, err)
		}
	})
}
