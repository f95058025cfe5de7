package server

import (
	"sync"

	"polytm/internal/wal"
)

// dirtySet tracks the keys a shard has mutated since its last
// checkpoint cut — the working set an incremental (delta) checkpoint
// serializes instead of the whole keyspace, which is what bounds
// checkpoint I/O by churn rather than keyspace size.
//
// Marking is eager: the walCapture marks keys while the transaction
// body builds its record, before commit is certain. A body that errors
// out after marking leaves spurious entries behind, which is safe —
// the delta writes the key's CURRENT committed value (or a tombstone),
// so an unchanged key costs bytes but never correctness. Irrevocable
// bodies (every durable mutation) cannot abort after reserving anyway,
// so spurious marks are limited to pre-reserve error returns.
//
// The full flag says the next take is a full walk, so its keys are read
// by nobody: the checkpointer writes a full base, replication catch-up
// goes full, and a reshard walks the whole slice again. A FLUSH
// (ClearTx) raises it, since a clear cannot be expressed in the delta
// vocabulary — it would need a tombstone per previously-live key, which
// nobody tracks. So does a durable shard whose recovered chain has no
// base (a fresh store, an initial import). While it is up, mark records
// nothing; take lowers it inside the rotation's (or the reshard
// barrier's) token, so marks resume at exactly the cut.
type dirtySet struct {
	mu   sync.Mutex
	keys map[string]struct{}
	full bool
}

// mark records one mutated key. The set keeps key itself, so the caller
// passes a string that never changes and pins nothing: applyOp hands
// over the map's own copy of a written key, which makes a key's first
// mark in a checkpoint cycle (most durable writes) as free as a repeat,
// and a copy of a deleted one. Assigning a string key the map already
// holds stores the new string in its place, so a delete's copy replaces
// the written key, which views the node the delete unlinked. That is
// the Go runtime's behaviour, not a promise of the language spec; the
// one-cycle row of TestDeletedKeysPinNoNodes fails if it changes.
func (d *dirtySet) mark(key string) {
	d.mu.Lock()
	if !d.full {
		d.insert(key)
	}
	d.mu.Unlock()
}

// insert adds key to the set; the caller holds mu.
func (d *dirtySet) insert(key string) {
	if d.keys == nil {
		d.keys = make(map[string]struct{})
	}
	d.keys[key] = struct{}{}
}

// markFull records that the next cut must be a full walk — a
// whole-keyspace clear, or no base to hang a delta off — and drops the
// keys it makes moot.
func (d *dirtySet) markFull() {
	d.mu.Lock()
	d.keys, d.full = nil, true
	d.mu.Unlock()
}

// markOps records a recovered/re-logged operation group — the WAL
// replay tail and resolved in-doubt prepares feed the dirty set through
// it, so keys that changed past the checkpoint chain land in the next
// delta.
func (d *dirtySet) markOps(ops []wal.Op) {
	d.mu.Lock()
	for _, op := range ops {
		switch {
		case op.Kind == wal.OpFlush:
			d.keys, d.full = nil, true
		case !d.full && (op.Kind == wal.OpSet || op.Kind == wal.OpDel):
			d.insert(op.Key)
		}
	}
	d.mu.Unlock()
}

// peek reports the current size and full flag without consuming them.
func (d *dirtySet) peek() (n int, flushed bool) {
	d.mu.Lock()
	n, flushed = len(d.keys), d.full
	d.mu.Unlock()
	return n, flushed
}

// snapshotKeys copies the current key set without consuming it —
// replication delta catch-up reads the set but must leave it intact
// for the next checkpoint cut.
func (d *dirtySet) snapshotKeys() (keys []string, flushed bool) {
	d.mu.Lock()
	keys = make([]string, 0, len(d.keys))
	for k := range d.keys {
		keys = append(keys, k)
	}
	flushed = d.full
	d.mu.Unlock()
	return keys, flushed
}

// take consumes and returns the accumulated set and lowers the full
// flag. The checkpointer calls it inside the empty irrevocable rotation
// transaction, so the cut is the same commit-order boundary the
// rotation seals.
func (d *dirtySet) take() (keys map[string]struct{}, flushed bool) {
	d.mu.Lock()
	keys, flushed = d.keys, d.full
	d.keys, d.full = nil, false
	d.mu.Unlock()
	return keys, flushed
}

// restore merges a taken set back after a failed checkpoint write:
// losing taken keys would carve them out of every future delta.
func (d *dirtySet) restore(keys map[string]struct{}, flushed bool) {
	d.mu.Lock()
	for k := range keys {
		d.insert(k)
	}
	d.full = d.full || flushed
	d.mu.Unlock()
}
