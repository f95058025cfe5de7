package server

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"polytm/internal/core"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// TestFanOutBoundaries holds the edges the fan-out decides, on a store
// of one shard and of four, each durable so every record is counted:
//
//   - an empty TXN and an empty MGET answer OK with no slots;
//   - a TXN whose keys all land on one shard commits on that shard
//     alone: xshard_txns does not move;
//   - each shard's routing row counts exactly the keys routed to it by
//     a mix of MGETs and TXNs, cross-shard or not;
//   - FLUSH on one shard logs one plain FLUSH record, and on four a
//     cross-shard commit: four PREPAREs, one DECISION, three COMMITs;
//   - a TXN grouped under a table a SPLIT has since replaced, none of
//     whose keys moved, commits with one participant (keyOp re-checks
//     each key) and returns the moved-key signal with several (every
//     participant re-checks the table).
//
// TestWritePathEquivalence's "txn" route is the same one-shard TXN row
// with writes, checked against what every shard logged.
func TestFanOutBoundaries(t *testing.T) {
	for _, tc := range []struct {
		shards                              int
		flushes, prepares, decisions, marks uint64 // records one FLUSH logs
		stale                               error  // a TXN grouped under a replaced table
	}{
		{shards: 1, flushes: 1},
		{shards: 4, prepares: 4, decisions: 1, marks: 3, stale: errMovedKey},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			var seen [256]atomic.Uint64
			st := newSharded(tc.shards)
			if _, err := st.EnableDurability(Durability{
				Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1,
				onDurableRecord: func(first byte) { seen[first].Add(1) },
			}); err != nil {
				t.Fatal(err)
			}
			defer st.CloseDurability()
			last := tc.shards - 1

			for _, op := range []wire.Op{wire.OpTxn, wire.OpMGet} {
				got, err := wire.AppendResponseFrame(nil, op, st.Execute(&wire.Request{Op: op, Sem: wire.SemDefault}))
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := wire.AppendResponseFrame(nil, op, &wire.Response{}); !bytes.Equal(got, want) {
					t.Errorf("empty %v answered % x, want % x", op, got, want)
				}
			}

			xshard := st.xshardTxns.Load()
			execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
				{Op: wire.OpSet, Key: keyOn(st, last, 0), Val: []byte("v")},
				{Op: wire.OpGet, Key: keyOn(st, last, 1)},
				{Op: wire.OpSet, Key: keyOn(st, last, 2), Val: []byte("v")},
			}})
			if got := st.xshardTxns.Load() - xshard; got != 0 {
				t.Errorf("a TXN on one shard took %d cross-shard commits", got)
			}

			tab := st.tab()
			before := make([]uint64, tc.shards)
			for i, sh := range tab.shards {
				before[i] = sh.routed.Load()
			}
			want := make([]uint64, tc.shards)
			keys := func(n int) [][]byte {
				ks := make([][]byte, n)
				for j := range ks {
					ks[j] = keyOn(st, j%tc.shards, j)
					want[st.shardIdx(ks[j])]++
				}
				return ks
			}
			execOK(t, st, &wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: keys(5)})
			execOK(t, st, &wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: keys(1)})
			for _, ks := range [][][]byte{keys(6), keys(1)} {
				batch := make([]wire.Request, len(ks))
				for j, k := range ks {
					batch[j] = wire.Request{Op: wire.OpSet, Key: k, Val: []byte("w")}
				}
				execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: batch})
			}
			rows := statsMap(t, st)
			for i, sh := range tab.shards {
				if got := sh.routed.Load() - before[i]; got != want[i] {
					t.Errorf("position %d routed %d keys, want %d", i, got, want[i])
				}
				if row := rows[fmt.Sprintf("shard%d.ops", sh.idx)]; tc.shards > 1 && row != sh.routed.Load() {
					t.Errorf("shard%d.ops = %d, the shard routed %d", sh.idx, row, sh.routed.Load())
				}
			}

			kinds := []byte{byte(wal.OpFlush), recPrepare, recDecision, recCommit}
			var was [4]uint64
			for i, k := range kinds {
				was[i] = seen[k].Load()
			}
			execOK(t, st, &wire.Request{Op: wire.OpFlush, Sem: wire.SemDefault})
			for i, n := range []uint64{tc.flushes, tc.prepares, tc.decisions, tc.marks} {
				if got := seen[kinds[i]].Load() - was[i]; got != n {
					t.Errorf("FLUSH logged %d records of kind %#x, want %d", got, kinds[i], n)
				}
			}

			vst := newSharded(tc.shards)
			old := vst.tab()
			if _, err := vst.Split(t.Context(), 0, old.shards[0].idx); err != nil {
				t.Fatal(err)
			}
			var batch []wire.Request
			owners := map[*shard]bool{}
			for i := 0; len(batch) < 2; i++ {
				k := tkey(i)
				sh := old.shardFor(hashKey(k))
				if vst.tab().shardFor(hashKey(k)) != sh || (tc.shards > 1 && owners[sh]) {
					continue // moved by the split, or a second key on one shard
				}
				owners[sh] = true
				batch = append(batch, wire.Request{Op: wire.OpSet, Key: k, Val: []byte("s")})
			}
			if err := vst.txn(t.Context(), old, batch, core.Def, new(wire.Response)); !errors.Is(err, tc.stale) {
				t.Errorf("a TXN over %d shards grouped under the replaced table returned %v, want %v", len(owners), err, tc.stale)
			}
		})
	}
}
