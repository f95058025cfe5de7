package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"polytm/internal/raceflag"
)

// goldenFiles are the snapshot files (and the tail segment) under
// testdata/golden. They were written by the code at commit dec55cf — the
// last one with separate checkpoint and delta writers — running
// buildGoldenDir, and pin the on-disk bytes of both magics.
var (
	goldenSnapshots = []string{ckptName(2), deltaName(3), deltaName(4)}
	goldenFiles     = append(goldenSnapshots[:3:3], segName(4))
)

// goldenBig is the >64 KiB value: it crosses the writer's and the
// reader's 64 KiB buffers.
var goldenBig = strings.Repeat("0123456789abcdef", 70000/16)

// goldenBase, goldenDelta3 and goldenDelta4 are the fixed entry lists:
// an empty value, the big value, a tombstone and an overwrite.
var (
	goldenBase = []deltaEntry{
		{k: "a", v: "1"}, {k: "big", v: goldenBig}, {k: "empty", v: ""},
		{k: "gone", v: "soon"}, {k: "z", v: "26"},
	}
	goldenDelta3 = []deltaEntry{
		{k: "a", v: "2"}, {k: "gone", del: true}, {k: "new", v: ""},
	}
	goldenDelta4 = []deltaEntry{
		{k: "big", v: "small"}, {k: "new", del: true}, {k: "z", v: goldenBig[:300]},
	}
	goldenWant = map[string]string{
		"a": "2", "big": "small", "empty": "", "z": goldenBig[:300], "tail": "t",
	}
)

// buildGoldenDir writes the golden directory through the public
// writers: checkpoint-2, delta-3, delta-4 and one tail record in wal-4.
func buildGoldenDir(t *testing.T, dir string) {
	t.Helper()
	l, _, _ := openT(t, dir, Options{})
	appendT(t, l, "a", "1")
	seg, cover := rotateT(t, l)
	if err := l.WriteCheckpoint(seg, cover, func(emit func(Op) error) error {
		for _, e := range goldenBase {
			if err := emit(e.op()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	appendT(t, l, "a", "2")
	seg, cover = rotateT(t, l)
	deltaT(t, l, seg, cover, goldenDelta3)
	appendT(t, l, "z", "x")
	seg, cover = rotateT(t, l)
	deltaT(t, l, seg, cover, goldenDelta4)
	appendT(t, l, "tail", "t")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotFileGolden: today's writer reproduces the files the
// pre-merge writers produced byte for byte, and today's reader recovers
// the directory those writers left behind.
func TestSnapshotFileGolden(t *testing.T) {
	fresh := t.TempDir()
	buildGoldenDir(t, fresh)
	old := t.TempDir()
	for _, name := range goldenFiles {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: writer output differs from the golden file (%d vs %d bytes)", name, len(got), len(want))
		}
		if err := os.WriteFile(filepath.Join(old, name), want, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	l, res, st := openT(t, old, Options{})
	defer l.Close()
	if res.CheckpointSeq != 2 || res.CheckpointKeys != len(goldenBase) ||
		res.DeltasLoaded != 2 || res.DeltaKeys != len(goldenDelta3)+len(goldenDelta4) ||
		res.Records != 1 || res.BadCheckpoints+res.BadDeltas+res.StaleDeltas != 0 {
		t.Fatalf("recovery of the golden directory: %+v", res)
	}
	if !reflect.DeepEqual(st.m, goldenWant) {
		t.Fatalf("recovered keys %v, want %v", keysOf(st.m), keysOf(goldenWant))
	}
	var got []deltaEntry
	if err := l.ReadDelta(3, func(op Op) error {
		got = append(got, entryOf(op))
		return nil
	}); err != nil || !reflect.DeepEqual(got, goldenDelta3) {
		t.Fatalf("ReadDelta(golden delta-3) = %v, %v", got, err)
	}
}

// keysOf lists a map's keys (the big values make %v of the map useless).
func keysOf(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// hostileLength is an entry section whose first key claims 2^63 bytes:
// a 10-byte uvarint that converts to a negative int64. The padding keeps
// the length inside the entry section once the last four bytes are
// taken for the trailer.
var hostileLength = cat([]byte{snapSet}, bytes.Repeat([]byte{0x80}, 9), []byte{0x01, 0, 0, 0, 0, 0, 0, 0, 0})

// cat concatenates byte slices into a fresh one.
func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// deltaPreamble is a delta file's magic plus a valid chain header.
func deltaPreamble(h snapHeader) []byte {
	buf := cat(deltaMagic[:])
	for _, v := range []uint64{h.Self, h.Base, h.Parent, h.Cover} {
		buf = binary.AppendUvarint(buf, v)
	}
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// TestSnapshotCorruptFiles: every malformed shape is rejected as
// corrupt — never a panic, never a plain I/O error that would abort
// recovery — under both magics, and nothing is emitted from it.
func TestSnapshotCorruptFiles(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", deltaName(3)))
	if err != nil {
		t.Fatal(err)
	}
	flipped := cat(golden)
	flipped[len(flipped)-6] ^= 0x40 // inside the last entry
	hdr := deltaPreamble(snapHeader{Self: 3, Base: 2, Parent: 2})
	cases := []struct {
		name  string
		delta bool
		file  []byte
	}{
		{"ckpt/length 2^63", false, cat(ckptMagic[:], hostileLength)},
		{"delta/length 2^63", true, cat(hdr, hostileLength)},
		{"ckpt/tombstone marker", false, cat(ckptMagic[:], []byte{snapDel, 1, 'k', snapEnd, 0, 0, 0, 0})},
		{"ckpt/delta magic", false, golden},
		{"delta/ckpt magic", true, cat(ckptMagic[:], []byte{snapEnd, 0, 0, 0, 0})},
		{"delta/bit flip", true, flipped},
		{"delta/truncated", true, golden[:len(golden)-5]},
		{"delta/trailing byte", true, cat(golden, []byte{0})},
		{"delta/header only", true, hdr},
		{"delta/bad header checksum", true, cat(deltaMagic[:], golden[9:])},
		{"ckpt/short", false, []byte("garbage")},
		{"ckpt/empty", false, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f.ckpt")
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			emitted := 0
			_, _, err := readSnapshot(path, tc.delta, func(Op) error {
				emitted++
				return nil
			})
			if !IsCorrupt(err) || emitted != 0 {
				t.Fatalf("err = %v (corrupt: %v), emitted %d entries", err, IsCorrupt(err), emitted)
			}
		})
	}
}

// TestOpenSurvivesHostileCheckpoint: a newest checkpoint carrying the
// 2^63 length — which panicked the loader before the bound was compared
// unsigned — is skipped like any other corrupt file, and the directory
// recovers from the older base.
func TestOpenSurvivesHostileCheckpoint(t *testing.T) {
	dir := t.TempDir()
	buildGoldenDir(t, dir)
	hostile := cat(ckptMagic[:], hostileLength)
	if err := os.WriteFile(filepath.Join(dir, ckptName(9)), hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	l, res, st := openT(t, dir, Options{})
	defer l.Close()
	if res.BadCheckpoints != 1 || res.CheckpointSeq != 2 || res.DeltasLoaded != 2 {
		t.Fatalf("recovery: %+v", res)
	}
	if !reflect.DeepEqual(st.m, goldenWant) {
		t.Fatalf("recovered keys %v, want %v", keysOf(st.m), keysOf(goldenWant))
	}
}

// TestInstallFile: the installed size is reported, a failed write leaves
// the previous file byte-identical, and no tmp file survives either way.
func TestInstallFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	size, err := InstallFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "first")
		return err
	})
	if err != nil || size != 5 {
		t.Fatalf("install: size=%d err=%v", size, err)
	}
	boom := errors.New("boom")
	if _, err := InstallFile(path, func(w io.Writer) error {
		io.WriteString(w, "half of the sec")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed install: err = %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" {
		t.Fatalf("failed install changed the file: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
}

// TestSnapshotEncodeAllocs: encoding a checkpoint allocates a constant
// amount, whatever its entry count. Every key and value is written and
// checksummed where it lies, never copied to a []byte first: a full
// checkpoint writes two strings per live key.
func TestSnapshotEncodeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts; budgets are asserted in the non-race CI step")
	}
	keys := make([]string, 10_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%012d-with-a-value-past-the-stack-buffer", i)
	}
	encode := func(n int, hdr *snapHeader) float64 {
		return testing.AllocsPerRun(5, func() {
			err := encodeSnapshot(io.Discard, hdr, func(emit func(Op) error) error {
				for _, k := range keys[:n] {
					if err := emit(Op{Kind: OpSet, Key: k, Val: k}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, hdr := range []*snapHeader{nil, {Self: 3, Base: 2, Parent: 2, Cover: 9}} {
		small, large := encode(10, hdr), encode(len(keys), hdr)
		if large > small {
			t.Errorf("delta %v: %d entries cost %.0f allocs, 10 entries %.0f; want the same", hdr != nil, len(keys), large, small)
		}
	}
}
