package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// appendT appends one SET record or fails the test.
func appendT(t *testing.T, l *Log, k, v string) {
	t.Helper()
	if err := l.Append(AppendSet(nil, []byte(k), []byte(v))); err != nil {
		t.Fatalf("append %s: %v", k, err)
	}
}

// rotateT rotates or fails the test.
func rotateT(t *testing.T, l *Log) (seg, cover uint64) {
	t.Helper()
	seg, cover, err := l.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	return seg, cover
}

// fullT writes a full checkpoint of state at the given cut.
func fullT(t *testing.T, l *Log, seg, cover uint64, state map[string]string) {
	t.Helper()
	if err := l.WriteCheckpoint(seg, cover, func(emit func(Op) error) error {
		for k, v := range state {
			if err := emit(Op{Kind: OpSet, Key: k, Val: v}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("checkpoint %d: %v", seg, err)
	}
}

// deltaEntry is one test-authored delta entry.
type deltaEntry struct {
	k, v string
	del  bool
}

// op is the entry as the operation a snapshot file's walk streams.
func (e deltaEntry) op() Op {
	if e.del {
		return Op{Kind: OpDel, Key: e.k}
	}
	return Op{Kind: OpSet, Key: e.k, Val: e.v}
}

// entryOf is op's inverse.
func entryOf(op Op) deltaEntry { return deltaEntry{op.Key, op.Val, op.Kind == OpDel} }

// deltaT writes a delta checkpoint with the given entries.
func deltaT(t *testing.T, l *Log, seg, cover uint64, entries []deltaEntry) {
	t.Helper()
	if err := l.WriteDeltaCheckpoint(seg, cover, func(emit func(Op) error) error {
		for _, e := range entries {
			if err := emit(e.op()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("delta %d: %v", seg, err)
	}
}

// TestDeltaChainRoundTrip: base + two deltas (updates, a new key, a
// tombstone) + a tail record recover to exactly the expected state, and
// the reopened log carries the recovered chain.
func TestDeltaChainRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{})
	state := map[string]string{}
	for i := 0; i < 10; i++ {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)
		state[k] = v
		appendT(t, l, k, v)
	}
	seg, cover := rotateT(t, l)
	fullT(t, l, seg, cover, state) // base = checkpoint-2

	// Churn 1: overwrite, create, delete — then cut delta-3.
	appendT(t, l, "k00", "u0")
	appendT(t, l, "k10", "v10")
	if err := l.Append(AppendDel(nil, []byte("k03"))); err != nil {
		t.Fatal(err)
	}
	seg, cover = rotateT(t, l)
	deltaT(t, l, seg, cover, []deltaEntry{
		{k: "k00", v: "u0"},
		{k: "k10", v: "v10"},
		{k: "k03", del: true},
	})

	// Churn 2: one new key — delta-4.
	appendT(t, l, "k11", "v11")
	seg, cover = rotateT(t, l)
	deltaT(t, l, seg, cover, []deltaEntry{{k: "k11", v: "v11"}})

	// Tail past the chain head.
	appendT(t, l, "k12", "v12")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Superseded segments must be gone, the base and chain present.
	for _, gone := range []string{segName(1), segName(2), segName(3)} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Fatalf("%s not cleaned up: %v", gone, err)
		}
	}
	for _, keep := range []string{ckptName(2), deltaName(3), deltaName(4), segName(4)} {
		if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
			t.Fatalf("%s missing: %v", keep, err)
		}
	}

	l2, res, st := openT(t, dir, Options{})
	defer l2.Close()
	if res.CheckpointSeq != 2 || res.CheckpointKeys != 10 {
		t.Fatalf("base recovery: %+v", res)
	}
	if res.DeltasLoaded != 2 || res.DeltaKeys != 4 {
		t.Fatalf("delta recovery: %+v", res)
	}
	if res.Records != 1 || res.Segments != 1 {
		t.Fatalf("tail recovery: %+v", res)
	}
	want := map[string]string{
		"k00": "u0", "k01": "v1", "k02": "v2", "k04": "v4",
		"k05": "v5", "k06": "v6", "k07": "v7", "k08": "v8", "k09": "v9",
		"k10": "v10", "k11": "v11", "k12": "v12",
	}
	if !reflect.DeepEqual(st.m, want) {
		t.Fatalf("state = %v, want %v", st.m, want)
	}
	if s := res.String(); !strings.Contains(s, "2 deltas (4 keys)") {
		t.Fatalf("String() = %q", s)
	}

	// The reopened log knows its chain (covers read 0: per-process seqs).
	chain := l2.Chain()
	if chain.BaseSeg != 2 || len(chain.Deltas) != 2 ||
		chain.Deltas[0].Seg != 3 || chain.Deltas[1].Seg != 4 {
		t.Fatalf("recovered chain = %+v", chain)
	}
	if chain.BaseCover != 0 || chain.Deltas[0].Cover != 0 {
		t.Fatalf("recovered covers must read 0: %+v", chain)
	}
	if got := l2.LastCheckpointKind(); got != CkptDelta {
		t.Fatalf("LastCheckpointKind = %v, want delta", got)
	}
}

// TestDeltaRequiresBase: a delta without a full base is refused.
func TestDeltaRequiresBase(t *testing.T) {
	l, _, _ := openT(t, t.TempDir(), Options{})
	defer l.Close()
	appendT(t, l, "a", "1")
	seg, cover := rotateT(t, l)
	err := l.WriteDeltaCheckpoint(seg, cover, func(emit func(Op) error) error {
		return emit(Op{Kind: OpSet, Key: "a", Val: "1"})
	})
	if err == nil {
		t.Fatal("delta checkpoint accepted without a base")
	}
}

// TestFullCheckpointRefusesDel: a full checkpoint holds no tombstones,
// so a DEL (or a FLUSH) handed to one fails the install instead of being
// written, and the log keeps no base.
func TestFullCheckpointRefusesDel(t *testing.T) {
	for _, bad := range []Op{{Kind: OpDel, Key: "a"}, {Kind: OpFlush}} {
		l, _, _ := openT(t, t.TempDir(), Options{})
		appendT(t, l, "a", "1")
		seg, cover := rotateT(t, l)
		err := l.WriteCheckpoint(seg, cover, func(emit func(Op) error) error {
			if err := emit(Op{Kind: OpSet, Key: "b", Val: "2"}); err != nil {
				return err
			}
			return emit(bad)
		})
		if err == nil {
			t.Fatalf("full checkpoint accepted a %v", bad.Kind)
		}
		if chain := l.Chain(); chain.BaseSeg != 0 {
			t.Fatalf("after a refused %v the chain is %+v, want no base", bad.Kind, chain)
		}
		l.Close()
	}
}

// TestDeltaStaleAfterCompaction simulates the crash window between a
// compaction's base install and its cleanup: an old chain delta — whose
// cover predates the surviving base — must be skipped as stale, never
// applied over the fresher base.
func TestDeltaStaleAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{})
	appendT(t, l, "a", "1")
	seg, cover := rotateT(t, l)
	fullT(t, l, seg, cover, map[string]string{"a": "1"})

	appendT(t, l, "stale-key", "boom")
	seg, cover = rotateT(t, l)
	deltaT(t, l, seg, cover, []deltaEntry{{k: "stale-key", v: "boom"}})
	staleDelta := filepath.Join(dir, deltaName(seg))
	staleBuf, err := os.ReadFile(staleDelta)
	if err != nil {
		t.Fatal(err)
	}

	// Compaction: the key was deleted live, the fresh base reflects it,
	// and install-time cleanup removes the old chain.
	if err := l.Append(AppendDel(nil, []byte("stale-key"))); err != nil {
		t.Fatal(err)
	}
	appendT(t, l, "b", "2")
	seg, cover = rotateT(t, l)
	fullT(t, l, seg, cover, map[string]string{"a": "1", "b": "2"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Resurrect the old delta, as a crash before cleanup would leave it.
	if err := os.WriteFile(staleDelta, staleBuf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, res, st := openT(t, dir, Options{})
	if res.CheckpointSeq != seg || res.StaleDeltas != 1 || res.DeltasLoaded != 0 {
		t.Fatalf("recover: %+v", res)
	}
	if !reflect.DeepEqual(st.m, map[string]string{"a": "1", "b": "2"}) {
		t.Fatalf("stale delta leaked into state: %v", st.m)
	}
}

// buildChain builds base(2) + delta-3 + delta-4 + tail, then restores
// the segments listed in keep (each delta's install removed the segment
// it covered: delta-3 removed segment 2, delta-4 removed segment 3) —
// simulating a crash landing before that cleanup. Returns the expected
// fully-recovered state.
func buildChain(t *testing.T, dir string, keep ...uint64) map[string]string {
	t.Helper()
	l, _, _ := openT(t, dir, Options{})
	state := map[string]string{}
	for i := 0; i < 5; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		state[k] = v
		appendT(t, l, k, v)
	}
	seg, cover := rotateT(t, l)
	fullT(t, l, seg, cover, state)

	segBufs := map[uint64][]byte{}
	snapSeg := func(n uint64) {
		buf, err := os.ReadFile(filepath.Join(dir, segName(n)))
		if err != nil {
			t.Fatal(err)
		}
		segBufs[n] = buf
	}

	appendT(t, l, "k5", "v5") // lands in segment 2
	snapSeg(2)
	seg, cover = rotateT(t, l)
	deltaT(t, l, seg, cover, []deltaEntry{{k: "k5", v: "v5"}})

	appendT(t, l, "k6", "v6") // lands in segment 3
	snapSeg(3)
	seg, cover = rotateT(t, l)
	deltaT(t, l, seg, cover, []deltaEntry{{k: "k6", v: "v6"}})

	appendT(t, l, "k7", "v7")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range keep {
		if err := os.WriteFile(filepath.Join(dir, segName(n)), segBufs[n], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	state["k5"], state["k6"], state["k7"] = "v5", "v6", "v7"
	return state
}

// TestDeltaCorruptTruncatesChain: a delta that fails validation cuts
// the chain there; recovery falls back to the surviving prefix and
// replays the segments the broken link was covering. Both corruption
// sites — the chain header (rejected at assembly) and the entry body
// (rejected by the full-file checksum at load) — degrade the same way.
func TestDeltaCorruptTruncatesChain(t *testing.T) {
	corruptions := map[string]func(buf []byte){
		"header": func(buf []byte) { buf[9] ^= 0xFF },          // inside the header varints
		"body":   func(buf []byte) { buf[len(buf)-1] ^= 0xFF }, // file checksum trailer
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			want := buildChain(t, dir, 3)

			path := filepath.Join(dir, deltaName(4))
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			corrupt(buf)
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}

			_, res, st := openT(t, dir, Options{})
			if res.BadDeltas != 1 || res.DeltasLoaded != 1 {
				t.Fatalf("recover: %+v", res)
			}
			// k6's record replays from the preserved segment; k7 from the
			// tail. Nothing is lost.
			if res.Records != 2 {
				t.Fatalf("replayed %d records, want 2: %+v", res.Records, res)
			}
			if !reflect.DeepEqual(st.m, want) {
				t.Fatalf("state = %v, want %v", st.m, want)
			}
		})
	}
}

// TestDeltaRenamedFileRejected: a delta file whose name does not match
// its header's self field (cross-bred or renamed) is rejected, without
// disturbing the legitimate chain.
func TestDeltaRenamedFileRejected(t *testing.T) {
	dir := t.TempDir()
	want := buildChain(t, dir, 3)
	buf, err := os.ReadFile(filepath.Join(dir, deltaName(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, deltaName(5)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, res, st := openT(t, dir, Options{})
	if res.BadDeltas != 1 || res.DeltasLoaded != 2 {
		t.Fatalf("recover: %+v", res)
	}
	if !reflect.DeepEqual(st.m, want) {
		t.Fatalf("state = %v, want %v", st.m, want)
	}
}

// TestDeltaMissingParent: with a middle chain link gone, deltas past
// the hole are unreachable. If the segments the hole covered survive,
// recovery degrades to base + replay; if they were already truncated
// away, Open must refuse loudly rather than fabricate a partial
// keyspace.
func TestDeltaMissingParent(t *testing.T) {
	t.Run("segments survive", func(t *testing.T) {
		dir := t.TempDir()
		want := buildChain(t, dir, 2, 3)
		if err := os.Remove(filepath.Join(dir, deltaName(3))); err != nil {
			t.Fatal(err)
		}
		_, res, st := openT(t, dir, Options{})
		// delta-4 hangs off the hole: unreachable, hence stale. The base
		// plus the full surviving segment replay reconstructs everything.
		if res.DeltasLoaded != 0 || res.StaleDeltas != 1 {
			t.Fatalf("recover: %+v", res)
		}
		if res.Records != 3 {
			t.Fatalf("replayed %d records, want 3: %+v", res.Records, res)
		}
		if !reflect.DeepEqual(st.m, want) {
			t.Fatalf("state = %v, want %v", st.m, want)
		}
	})
	t.Run("segments truncated away", func(t *testing.T) {
		dir := t.TempDir()
		buildChain(t, dir, 3)
		if err := os.Remove(filepath.Join(dir, deltaName(3))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}, newMemStore().apply); err == nil {
			t.Fatal("Open replayed a history with a hole where delta-3 was")
		}
	})
}

// TestDeltaTmpSwept: tmp files from a crash between create and rename —
// both checkpoint and delta flavors — are swept on open and never
// affect recovery.
func TestDeltaTmpSwept(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{})
	appendT(t, l, "a", "1")
	seg, cover := rotateT(t, l)
	fullT(t, l, seg, cover, map[string]string{"a": "1"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tmp := range []string{deltaName(7) + ".tmp", ckptName(9) + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, tmp), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l2, res, st := openT(t, dir, Options{})
	defer l2.Close()
	if res.TmpSwept != 2 {
		t.Fatalf("TmpSwept = %d, want 2: %+v", res.TmpSwept, res)
	}
	if res.BadCheckpoints != 0 || res.BadDeltas != 0 || st.m["a"] != "1" {
		t.Fatalf("tmp files disturbed recovery: %+v %v", res, st.m)
	}
	for _, tmp := range []string{deltaName(7) + ".tmp", ckptName(9) + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, tmp)); !os.IsNotExist(err) {
			t.Fatalf("%s not swept: %v", tmp, err)
		}
	}
}

// TestDeltaReadDelta pins the exported reader the replication hub uses:
// entries stream in file order with tombstones marked, and a damaged
// file yields an error before any entry is emitted.
func TestDeltaReadDelta(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir, Options{})
	appendT(t, l, "a", "1")
	seg, cover := rotateT(t, l)
	fullT(t, l, seg, cover, map[string]string{"a": "1"})
	appendT(t, l, "b", "2")
	seg, cover = rotateT(t, l)
	deltaT(t, l, seg, cover, []deltaEntry{
		{k: "b", v: "2"},
		{k: "a", del: true},
	})
	path := filepath.Join(dir, deltaName(seg))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []deltaEntry
	if err := l.ReadDelta(seg, func(op Op) error {
		got = append(got, entryOf(op))
		return nil
	}); err != nil {
		t.Fatalf("ReadDelta: %v", err)
	}
	want := []deltaEntry{{k: "b", v: "2"}, {k: "a", del: true}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("entries = %+v, want %+v", got, want)
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	emitted := 0
	if err := l.ReadDelta(seg, func(Op) error {
		emitted++
		return nil
	}); err == nil || emitted != 0 {
		t.Fatalf("corrupt delta: err=%v emitted=%d (want error, 0)", err, emitted)
	}
}
