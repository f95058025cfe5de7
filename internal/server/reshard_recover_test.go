package server

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"polytm/internal/wal"
)

func jBegin(epoch uint64, r wal.Reshard) wal.ReshardEvent {
	return wal.ReshardEvent{Kind: wal.RecordReshardBegin, Epoch: epoch, Reshard: r}
}

func jCommit(epoch uint64) wal.ReshardEvent {
	return wal.ReshardEvent{Kind: wal.RecordReshardCommit, Epoch: epoch}
}

// planRow is one planReshard case: a table (stable ids and hash slices
// in table order), the RESHARD records of each shard's log, and the
// verdict. after, for a roll-forward, is the table's id order once the
// verdict went through splitTable/mergeTable.
type planRow struct {
	name     string
	manEpoch uint64
	ids      []int
	slices   []hashSlice
	journals map[int][]wal.ReshardEvent
	want     reshardPlan
	wantErr  bool
	after    []int
}

func (row *planRow) input() []shardJournal {
	js := make([]shardJournal, len(row.ids))
	for i, id := range row.ids {
		js[i] = shardJournal{id: id, events: row.journals[id]}
	}
	return js
}

// planRows builds the table. Stable ids are 10, 11, … so that an id is
// never a valid position, and residues are spaced so a forged split can
// land its new shard on either side of any shard.
func planRows() []planRow {
	ids := []int{10, 11, 12, 13}
	slices := []hashSlice{{100, 10}, {100, 20}, {100, 30}, {100, 40}}
	base := func(name string) planRow {
		return planRow{name: name, manEpoch: 5, ids: ids, slices: slices, journals: map[int][]wal.ReshardEvent{}}
	}
	// A split keeps the source's residue; res2 places the new shard.
	split := func(src int, res2 uint64) wal.Reshard {
		r := wal.Reshard{Op: wal.ReshardSplit, Src: src, Dst: 99, Mod: 200, Mod2: 200, Res2: res2, Dir: "shard-0099"}
		for i, id := range ids {
			if id == src {
				r.Res = slices[i].res
			}
		}
		return r
	}
	merge := func(absorbed, survivor int) wal.Reshard {
		return wal.Reshard{Op: wal.ReshardMerge, Src: absorbed, Dst: survivor, Mod: 50, Res: 9, Dir: fmt.Sprintf("shard-%04d", absorbed)}
	}
	without := func(drop int) []int {
		var out []int
		for _, id := range ids {
			if id != drop {
				out = append(out, id)
			}
		}
		return out
	}

	var rows []planRow
	// Every arm with the journaling shard first, in the middle and last,
	// and the shard the reshard adds or absorbs on either side of it.
	for _, j := range []struct {
		pos   int
		where string
	}{{0, "first"}, {1, "middle"}, {3, "last"}} {
		jpos, where, id := j.pos, j.where, ids[j.pos]
		row := base("rollback-split/" + where)
		row.journals[id] = []wal.ReshardEvent{jBegin(6, split(id, 35))}
		row.want = reshardPlan{epoch: 6, r: split(id, 35)}
		rows = append(rows, row)

		other := ids[(jpos+1)%len(ids)]
		row = base("rollback-merge/" + where)
		row.journals[id] = []wal.ReshardEvent{jBegin(6, merge(other, id))}
		row.want = reshardPlan{epoch: 6, r: merge(other, id)}
		rows = append(rows, row)

		for _, side := range []string{"before", "after"} {
			res2 := slices[jpos].res + 5
			at := jpos + 1
			if side == "before" {
				res2, at = slices[jpos].res-5, jpos
			}
			row = base("forward-split/" + where + "/new-shard-" + side)
			row.journals[id] = []wal.ReshardEvent{jBegin(6, split(id, res2)), jCommit(6)}
			row.want = reshardPlan{epoch: 6, forward: true, r: split(id, res2), srcPos: jpos, dstPos: -1}
			row.after = append(append(append([]int(nil), ids[:at]...), 99), ids[at:]...)
			rows = append(rows, row)

			opos := jpos + 1
			if side == "before" {
				opos = jpos - 1
			}
			if opos < 0 || opos >= len(ids) {
				continue
			}
			row = base("forward-merge/" + where + "/absorbed-" + side)
			row.journals[id] = []wal.ReshardEvent{jBegin(6, merge(ids[opos], id)), jCommit(6)}
			row.want = reshardPlan{epoch: 6, forward: true, r: merge(ids[opos], id), srcPos: opos, dstPos: jpos}
			row.after = without(ids[opos])
			rows = append(rows, row)
		}
	}

	row := base("no-journal")
	rows = append(rows, row)

	row = base("begin-at-manifest-epoch/already-reflected")
	row.journals[11] = []wal.ReshardEvent{jBegin(5, split(11, 25)), jCommit(5)}
	row.journals[12] = []wal.ReshardEvent{jBegin(4, merge(13, 12))}
	rows = append(rows, row)

	row = base("commit-without-begin")
	row.journals[11] = []wal.ReshardEvent{jCommit(6)}
	rows = append(rows, row)

	row = base("commit-of-another-epoch")
	row.journals[11] = []wal.ReshardEvent{jBegin(6, split(11, 25)), jCommit(7)}
	row.want = reshardPlan{epoch: 6, r: split(11, 25)}
	rows = append(rows, row)

	row = base("two-journals-one-log/last-begin-committed")
	row.journals[11] = []wal.ReshardEvent{jBegin(6, merge(12, 11)), jBegin(6, split(11, 25)), jCommit(6)}
	row.want = reshardPlan{epoch: 6, forward: true, r: split(11, 25), srcPos: 1, dstPos: -1}
	row.after = []int{10, 11, 99, 12, 13}
	rows = append(rows, row)

	row = base("two-journals-one-log/last-begin-uncommitted")
	row.journals[11] = []wal.ReshardEvent{jBegin(6, split(11, 25)), jCommit(6), jBegin(7, merge(12, 11))}
	row.want = reshardPlan{epoch: 7, r: merge(12, 11)}
	rows = append(rows, row)

	// An attempt that gave up live leaves its BEGIN behind; the next
	// attempt reuses the epoch — and a split reuses the directory name.
	// Rolling the stale one back would delete the committed shard.
	row = base("stale-begin-beside-committed-journal-of-same-epoch")
	row.journals[10] = []wal.ReshardEvent{jBegin(6, split(10, 15))}
	row.journals[12] = []wal.ReshardEvent{jBegin(6, split(12, 35)), jCommit(6)}
	row.want = reshardPlan{epoch: 6, forward: true, r: split(12, 35), srcPos: 2, dstPos: -1}
	row.after = []int{10, 11, 12, 99, 13}
	rows = append(rows, row)

	row = base("two-committed-journals/lowest-epoch-first")
	row.journals[10] = []wal.ReshardEvent{jBegin(7, merge(11, 10)), jCommit(7)}
	row.journals[13] = []wal.ReshardEvent{jBegin(6, split(13, 45)), jCommit(6)}
	row.want = reshardPlan{epoch: 6, forward: true, r: split(13, 45), srcPos: 3, dstPos: -1}
	row.after = []int{10, 11, 12, 13, 99}
	rows = append(rows, row)

	for _, bad := range []struct {
		name string
		r    wal.Reshard
	}{
		{"split-of-unknown-shard", split(77, 25)},
		{"split-adding-existing-shard", wal.Reshard{Op: wal.ReshardSplit, Src: 11, Dst: 12, Mod: 200, Res: 20, Mod2: 200, Res2: 25}},
		{"merge-of-unknown-shard", merge(77, 11)},
		{"merge-into-unknown-shard", merge(11, 77)},
		{"merge-into-itself", merge(11, 11)},
		{"split-zero-modulus", wal.Reshard{Op: wal.ReshardSplit, Src: 11, Dst: 99, Mod: 0, Res: 0, Mod2: 200, Res2: 25}},
		{"split-residue-past-modulus", wal.Reshard{Op: wal.ReshardSplit, Src: 11, Dst: 99, Mod: 200, Res: 20, Mod2: 200, Res2: 200}},
		{"merge-residue-past-modulus", wal.Reshard{Op: wal.ReshardMerge, Src: 12, Dst: 11, Mod: 50, Res: 50}},
	} {
		row = base("journal-error/" + bad.name)
		row.journals[11] = []wal.ReshardEvent{jBegin(6, bad.r), jCommit(6)}
		row.wantErr = true
		rows = append(rows, row)
	}
	return rows
}

// tableOf builds a routing table of bare shards for the pure table
// edits.
func tableOf(epoch uint64, ids []int, slices []hashSlice) *routingTable {
	shards := make([]*shard, len(ids))
	for i, id := range ids {
		shards[i] = &shard{idx: id}
	}
	return newRoutingTable(epoch, shards, append([]hashSlice(nil), slices...))
}

// TestPlanReshard: every row's verdict; a roll-forward's positions put
// through the live cutover's table edits give the journaled table; and
// planning again from the epoch a roll-forward leaves the table at
// finds that journal settled.
func TestPlanReshard(t *testing.T) {
	for _, row := range planRows() {
		t.Run(row.name, func(t *testing.T) {
			plan, err := planReshard(row.manEpoch, row.input())
			if row.wantErr {
				var je *journalError
				if !errors.As(err, &je) {
					t.Fatalf("err = %v, want a *journalError", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan, row.want) {
				t.Fatalf("plan = %+v\nwant   %+v", plan, row.want)
			}
			if !plan.forward {
				return
			}
			again, err := planReshard(plan.epoch, row.input())
			if err != nil {
				t.Fatal(err)
			}
			if again.epoch != 0 && again.epoch <= plan.epoch {
				t.Fatalf("after rolling forward to epoch %d the plan is %+v, want nothing at or below it", plan.epoch, again)
			}

			tab := tableOf(row.manEpoch, row.ids, row.slices)
			r := plan.r
			if r.Op == wal.ReshardSplit {
				tab = splitTable(tab, plan.srcPos, &shard{idx: r.Dst}, r.Mod, r.Res, r.Mod2, r.Res2, plan.epoch)
			} else {
				tab = mergeTable(tab, plan.dstPos, plan.srcPos, r.Mod, r.Res, plan.epoch)
			}
			var got []int
			for i, sh := range tab.shards {
				got = append(got, sh.idx)
				want := hashSlice{r.Mod, r.Res}
				switch {
				case sh.idx == r.Dst && r.Op == wal.ReshardSplit:
					want = hashSlice{r.Mod2, r.Res2}
				case sh.idx == r.Src && r.Op == wal.ReshardSplit, sh.idx == r.Dst:
				default:
					continue
				}
				if tab.slices[i] != want {
					t.Fatalf("shard %d owns %+v after the roll-forward, want %+v", sh.idx, tab.slices[i], want)
				}
			}
			if !reflect.DeepEqual(got, row.after) || tab.epoch != plan.epoch {
				t.Fatalf("table after roll-forward: ids %v epoch %d, want %v epoch %d", got, tab.epoch, row.after, plan.epoch)
			}
		})
	}
}

// Fuzz encoding of a planReshard input, one byte per number: the
// manifest epoch, the shard count, the shard ids, then ten-byte records
// — the log it belongs to (by position), BEGIN or COMMIT, the epoch and
// the seven numbers of a wal.Reshard.
func encodePlanInput(row *planRow) []byte {
	out := []byte{byte(row.manEpoch), byte(len(row.ids))}
	for _, id := range row.ids {
		out = append(out, byte(id))
	}
	for pos, id := range row.ids {
		for _, ev := range row.journals[id] {
			r := ev.Reshard
			out = append(out, byte(pos), byte(ev.Kind), byte(ev.Epoch), byte(r.Op),
				byte(r.Src), byte(r.Dst), byte(r.Mod), byte(r.Res), byte(r.Mod2), byte(r.Res2))
		}
	}
	return out
}

func decodePlanInput(data []byte) (uint64, []shardJournal) {
	if len(data) < 2 {
		return 0, nil
	}
	manEpoch, n := uint64(data[0]), int(data[1]%8)
	data = data[2:]
	if len(data) < n {
		return manEpoch, nil
	}
	js := make([]shardJournal, n)
	for i := range js {
		js[i].id = int(data[i])
	}
	for data = data[n:]; n > 0 && len(data) >= 10; data = data[10:] {
		ev := wal.ReshardEvent{Kind: wal.RecordReshardBegin, Epoch: uint64(data[2]), Reshard: wal.Reshard{
			Op: wal.ReshardOp(data[3] % 2), Src: int(data[4]), Dst: int(data[5]),
			Mod: uint64(data[6]), Res: uint64(data[7]), Mod2: uint64(data[8]), Res2: uint64(data[9])}}
		if wal.RecordKind(data[1]) == wal.RecordReshardCommit {
			ev = jCommit(ev.Epoch)
		}
		j := &js[int(data[0])%n]
		j.events = append(j.events, ev)
	}
	return manEpoch, js
}

// FuzzPlanReshard: whatever the logs hold, planReshard answers with a
// verdict or a *journalError — never a panic — and a roll-forward names
// positions the table edits can take and is not planned twice.
func FuzzPlanReshard(f *testing.F) {
	for _, row := range planRows() {
		f.Add(encodePlanInput(&row))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		manEpoch, js := decodePlanInput(data)
		plan, err := planReshard(manEpoch, js)
		if err != nil {
			var je *journalError
			if !errors.As(err, &je) {
				t.Fatalf("err = %v, want a *journalError", err)
			}
			return
		}
		if plan.epoch != 0 && plan.epoch <= manEpoch {
			t.Fatalf("plan %+v at or below the manifest epoch %d", plan, manEpoch)
		}
		if !plan.forward {
			return
		}
		n, split := len(js), plan.r.Op == wal.ReshardSplit
		if plan.srcPos < 0 || plan.srcPos >= n || split != (plan.dstPos == -1) || plan.dstPos >= n || plan.dstPos == plan.srcPos {
			t.Fatalf("roll-forward %+v names positions outside a %d-shard table", plan, n)
		}
		if again, err := planReshard(plan.epoch, js); err == nil && again.epoch != 0 && again.epoch <= plan.epoch {
			t.Fatalf("planned again at epoch %d: %+v", plan.epoch, again)
		}
	})
}
