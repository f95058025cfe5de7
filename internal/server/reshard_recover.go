package server

import (
	"fmt"
	"slices"

	"polytm/internal/wal"
)

// Crash resolution of the reshard journal, as plan → execute. A crash
// inside a SPLIT/MERGE leaves a RESHARD BEGIN whose epoch is past the
// MANIFEST's in the log that hosts the journal. That log tells the
// outcome: a matching COMMIT means the cutover reached its commit point
// and the crash merely beat the MANIFEST rewrite; no COMMIT means the
// copy never finished. planReshard reads the verdict off the journals
// alone; execReshard carries it out with the table edits and the
// MANIFEST writer the live cutover uses.

// shardJournal is one shard's RESHARD records in log order, under the
// shard's stable id; planReshard takes them in table order.
type shardJournal struct {
	id     int
	events []wal.ReshardEvent
}

// reshardPlan is planReshard's verdict. epoch is the routing epoch the
// journaled reshard publishes; 0 means there is nothing to resolve.
// forward tells a committed reshard (roll forward) from an uncommitted
// one (roll back), r.Op a split from a merge. srcPos and dstPos are the
// table positions of r.Src and r.Dst, set for a forward verdict only
// (dstPos is -1 for a split: its Dst is the shard the split adds).
type reshardPlan struct {
	epoch          uint64
	forward        bool
	r              wal.Reshard
	srcPos, dstPos int
}

// journalError is a committed reshard journal the table cannot absorb.
type journalError struct {
	epoch uint64
	r     wal.Reshard
	why   string
}

func (e *journalError) Error() string {
	return fmt.Sprintf("server: %v journal epoch=%d (shard %d -> shard %d) %s", e.r.Op, e.epoch, e.r.Src, e.r.Dst, e.why)
}

// planReshard decides what the reshard journals ask of a directory whose
// MANIFEST is at manEpoch. Per log only the last BEGIN counts, committed
// iff a later COMMIT carries its epoch; a BEGIN at or below manEpoch is
// one the MANIFEST already reflects. Across logs the committed journal
// of the lowest epoch goes first — a BEGIN without COMMIT at that same
// epoch on another shard is the trace of an earlier attempt that gave up
// live, and the caller, planning again from the epoch it rolled forward
// to, no longer sees it. Only when nothing is committed is a reshard
// rolled back.
func planReshard(manEpoch uint64, journals []shardJournal) (reshardPlan, error) {
	var plan reshardPlan
	for _, j := range journals {
		var begin *wal.ReshardEvent
		committed := false
		for k := range j.events {
			switch ev := &j.events[k]; ev.Kind {
			case wal.RecordReshardBegin:
				begin, committed = ev, false
			case wal.RecordReshardCommit:
				if begin != nil && ev.Epoch == begin.Epoch {
					committed = true
				}
			}
		}
		if begin == nil || begin.Epoch <= manEpoch {
			continue
		}
		if plan.epoch == 0 || committed && (!plan.forward || begin.Epoch < plan.epoch) {
			plan = reshardPlan{epoch: begin.Epoch, forward: committed, r: begin.Reshard}
		}
	}
	if !plan.forward {
		return plan, nil
	}
	pos := func(id int) int {
		return slices.IndexFunc(journals, func(j shardJournal) bool { return j.id == id })
	}
	r := plan.r
	plan.srcPos, plan.dstPos = pos(r.Src), pos(r.Dst)
	split := r.Op == wal.ReshardSplit
	why := ""
	switch {
	case plan.srcPos < 0:
		why = "moves the keys of a shard the table does not hold"
	case split && plan.dstPos >= 0:
		why = "adds a shard the table already holds"
	case !split && (plan.dstPos < 0 || plan.dstPos == plan.srcPos):
		why = "folds into a shard that is no other shard of the table"
	case r.Mod == 0 || r.Res >= r.Mod || split && (r.Mod2 == 0 || r.Res2 >= r.Mod2):
		why = "carries an invalid hash slice"
	}
	if why != "" {
		return reshardPlan{}, &journalError{plan.epoch, r, why}
	}
	return plan, nil
}

// resolveReshard settles the reshard a crash interrupted, before
// traffic: plan, execute, and — after a roll-forward, which moves the
// table to the journal's epoch — plan again, until no journal is left
// past the table's epoch.
func (s *Store) resolveReshard(tab *routingTable, results map[int]*wal.RecoverResult) (*routingTable, error) {
	for {
		journals := make([]shardJournal, len(tab.shards))
		for i, sh := range tab.shards {
			journals[i] = shardJournal{id: sh.idx, events: results[sh.idx].Reshards}
		}
		plan, err := planReshard(tab.epoch, journals)
		if err != nil || plan.epoch == 0 {
			return tab, err
		}
		if tab, err = s.execReshard(tab, plan, results); err != nil || !plan.forward {
			return tab, err
		}
	}
}

// execReshard carries out one verdict and returns the table it leaves
// (on error too: whatever it opened is in there for the caller to
// close). Rolling back touches no table: a split's new shard never went
// live, so its directory — holding a partial copy nobody was
// acknowledged against — goes; a merge's copy appended ordinary records
// to the survivor's log, which the post-recovery scrub deletes again.
// Rolling forward rebuilds the journaled table and heals the MANIFEST:
// a split adopts the new shard's directory as a shard of its own; a
// merge drops the absorbed shard, whose keys were durably copied into
// the survivor's log before the COMMIT.
func (s *Store) execReshard(tab *routingTable, p reshardPlan, results map[int]*wal.RecoverResult) (*routingTable, error) {
	r := p.r
	fail := func(err error) (*routingTable, error) {
		return tab, fmt.Errorf("server: resolving %v journal epoch=%d: %w", r.Op, p.epoch, err)
	}
	switch {
	case !p.forward:
		if r.Op == wal.ReshardSplit {
			if err := s.removeLogDir(r.Dir); err != nil {
				return fail(err)
			}
		}
		s.logf("polyserve: rolled back uncommitted %v epoch=%d (shard %d keeps its keys)", r.Op, p.epoch, r.Src)
		return tab, nil
	case r.Op == wal.ReshardSplit:
		dst := s.newShard(r.Dst, s.mkTM())
		res, err := s.openShardLog(dst, r.Dir)
		if err != nil {
			return fail(err)
		}
		results[dst.idx] = res
		tab = splitTable(tab, p.srcPos, dst, r.Mod, r.Res, r.Mod2, r.Res2, p.epoch)
		s.nextID = max(s.nextID, r.Dst+1)
	default:
		b := tab.shards[p.srcPos]
		b.wal.Close() // its directory goes next: nothing in it is needed
		b.wal = nil
		if err := s.removeLogDir(b.walName); err != nil {
			return fail(err)
		}
		delete(results, b.idx)
		tab = mergeTable(tab, p.dstPos, p.srcPos, r.Mod, r.Res, p.epoch)
	}
	if err := writeStoreManifest(s.walDir, s.manifestFor(tab, s.nextID)); err != nil {
		return fail(err)
	}
	s.logf("polyserve: rolled forward committed %v epoch=%d (shard %d -> shard %d)", r.Op, p.epoch, r.Src, r.Dst)
	return tab, nil
}
