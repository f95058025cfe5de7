package main

import (
	"fmt"
	"time"
)

type mixEntry struct {
	op  opcode
	pct int
}

// spec is one workload: what is preloaded, what traffic runs, and which
// layers that traffic is meant to load (see README.md for the reasons).
type spec struct {
	name string
	// keys is the frozen preload count (key pairs for txn-zipf-2pc),
	// sized so that set-up takes at least a second on the reference box.
	keys      int
	valLen    int
	mix       []mixEntry
	scanLimit int

	server    bool // loopback polyserve; false runs the library directly
	shards    int  // store shards
	durable   bool // WAL in batch mode with periodic checkpoints
	zipfian   bool // zipfian (theta 0.99) instead of uniform keys
	partition bool // each client draws keys from its own half
	counters  bool // one key in ten is an INCR counter
	pairs     bool // keys come in (a, b) pairs written together
}

// Durable-store settings, stated once so both sides of any comparison
// run the same flush policy.
const (
	durableBatchWindow = 2 * time.Millisecond
	durableCheckpoint  = 5 * time.Second
)

var specs = []*spec{
	{
		name: "kv-read-mostly", keys: 500_000, valLen: 64, server: true, shards: 1,
		mix:       []mixEntry{{opGet, 80}, {opScan, 10}, {opSet, 10}},
		scanLimit: 16,
	},
	{
		name: "kv-durable-write", keys: 200_000, valLen: 128, server: true, shards: 1,
		durable: true, partition: true, counters: true,
		mix: []mixEntry{{opSet, 90}, {opIncr, 10}},
	},
	{
		name: "txn-zipf-2pc", keys: 200_000, valLen: 64, server: true, shards: 4,
		zipfian: true, pairs: true,
		mix: []mixEntry{{opTxn, 70}, {opMGet, 30}},
	},
	{
		name: "lib-skipmap", keys: 500_000, valLen: 64, zipfian: true,
		mix:       []mixEntry{{opGet, 70}, {opScan, 10}, {opSet, 15}, {opDel, 5}},
		scanLimit: 32,
	},
}

func findSpec(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// numClients is the number of closed-loop clients: one per core of the
// reference box.
const numClients = 2

// params are the run-shape knobs; only -smoke and -seconds change them.
type params struct {
	keys      int
	streamLen int // operations pre-generated per client (the loop wraps)
	setups    int // timed set-ups per untraced run; the last one is measured
	warmup    time.Duration
	measure   time.Duration // measured phase of an untraced run
	segment   time.Duration // measured phase of a traced run, before the ladder
	window    time.Duration
	minWindow uint64 // samples every window must hold for its p99 to count
	replayOps int    // operations replayed per ladder rung in a traced run
	outDir    string
}

// env is a set-up workload: the program under test plus the clients'
// state. do executes one pre-generated operation for client c and checks
// the reply; a false return is a failed operation.
type env interface {
	do(c int, o op) bool
	// counters reads the program's public counters (STATS opcode for a
	// server, engine stats for the library).
	counters() (map[string]uint64, error)
	// settle brings background work to a defined point before the live
	// heap is read: a durable store completes a checkpoint, so the reading
	// does not depend on where the 5 s cycle stood when the phase ended.
	settle() error
	// verify runs the workload's end-of-run correctness checks.
	verify() error
	close() error
}

func setupEnv(sp *spec, p *params) (env, error) {
	if sp.server {
		return newServerEnv(sp, p)
	}
	return newLibEnv(sp, p)
}

// genStreams builds every client's operation stream for one run.
func genStreams(sp *spec, p *params, seed uint64) [][]op {
	var z *zipf
	if sp.zipfian {
		z = newZipf(uint64(p.keys))
	}
	streams := make([][]op, numClients)
	for c := range streams {
		streams[c] = genStream(sp, p.keys, z, seed, c, numClients, p.streamLen)
	}
	return streams
}
