package main

import (
	"fmt"
	"sync"

	"polytm/internal/core"
	"polytm/internal/structures"
)

// libEnv drives a TSkipMap directly: no server, no codec, no log.
type libEnv struct {
	sp *spec
	p  *params

	tm   *core.TM
	m    *structures.TSkipMap
	keys []string
	vals []string // vals[k] is the one value key k ever holds

	// Per-client insert/delete tallies for the final Len check, padded
	// apart so the two clients do not share a cache line.
	tally []libTally
}

type libTally struct {
	inserted, deleted int64
	_                 [48]byte
}

func newLibEnv(sp *spec, p *params) (env, error) {
	e := &libEnv{sp: sp, p: p, tm: core.New(core.Config{}), tally: make([]libTally, numClients)}
	e.m = structures.NewTSkipMap(e.tm)
	tab := keyTable('k', p.keys)
	e.keys = make([]string, p.keys)
	e.vals = make([]string, p.keys)
	val := make([]byte, sp.valLen)
	for k := range e.keys {
		e.keys[k] = string(keyAt(tab, k))
		fillValue(val, k, 0)
		e.vals[k] = string(val)
	}
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c * p.keys / numClients; k < (c+1)*p.keys/numClients; k++ {
				e.m.Put(e.keys[k], e.vals[k], core.Def)
			}
		}(c)
	}
	wg.Wait()
	if n := e.m.Len(); n != p.keys {
		return nil, fmt.Errorf("preload: Len = %d, want %d", n, p.keys)
	}
	return e, nil
}

func (e *libEnv) do(c int, o op) bool {
	k := o.key()
	switch o.code() {
	case opGet:
		// A deleted key reads as absent; a present one carries its checksum.
		v, ok := e.m.Get(e.keys[k], core.Snapshot)
		return !ok || v == e.vals[k]
	case opScan:
		return rangeOK(e.m.Range(e.keys[k], "", e.sp.scanLimit, core.Weak), e.keys[k], e.sp.scanLimit)
	case opSet:
		if existed := e.m.Put(e.keys[k], e.vals[k], core.Def); !existed {
			e.tally[c].inserted++
		}
		return true
	case opDel:
		if e.m.Delete(e.keys[k], core.Def) {
			e.tally[c].deleted++
		}
		return true
	}
	return false
}

// rangeOK requires sorted output that starts at or after from. An empty
// result is legal only when deletes emptied the tail of the keyspace.
func rangeOK(kvs []structures.KV, from string, limit int) bool {
	if len(kvs) > limit {
		return false
	}
	prev := ""
	for i := range kvs {
		if kvs[i].Key < from || kvs[i].Key <= prev {
			return false
		}
		idx, ok := keyIndex([]byte(kvs[i].Key))
		if !ok || !valueOK([]byte(kvs[i].Val), idx) {
			return false
		}
		prev = kvs[i].Key
	}
	return true
}

func (e *libEnv) counters() (map[string]uint64, error) {
	s := e.tm.Stats()
	cs := map[string]uint64{
		"starts": s.Starts, "commits": s.Commits, "aborts": s.Aborts,
		"kills": s.Kills, "extensions": s.Extensions, "elastic_cuts": s.ElasticCuts,
		"reads": s.Reads, "writes": s.Writes,
	}
	for _, sem := range []core.Semantics{core.Def, core.Weak, core.Snapshot, core.Irrevocable} {
		cs["aborts."+sem.String()] = s.Sem(sem).Aborts
	}
	return cs, nil
}

func (e *libEnv) settle() error { return nil }

func (e *libEnv) verify() error {
	want := e.p.keys
	for i := range e.tally {
		want += int(e.tally[i].inserted - e.tally[i].deleted)
	}
	if n := e.m.Len(); n != want {
		return fmt.Errorf("final Len = %d, want preload + inserts - deletes = %d", n, want)
	}
	if n := e.tm.Stats().Sem(core.Snapshot).Aborts; n != 0 {
		return fmt.Errorf("snapshot-semantics transactions aborted %d times; they must never abort", n)
	}
	return nil
}

func (e *libEnv) close() error { return nil }
