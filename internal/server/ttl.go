package server

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ttlTable is one shard's expiry deadlines: key → absolute deadline
// (unix nanos). It is deliberately IN-MEMORY ONLY — expiry is decided
// exactly once, on the primary, by the reaper, and persists/replicates
// solely as the ordinary delete records the reaper logs. A restart or
// failover therefore loses un-reaped deadlines (those keys simply stop
// expiring) but can never resurrect a key whose expiry was reaped: the
// delete is in the WAL like any other.
//
// Reads consult the table lazily (an entry past its deadline reads as
// absent before any delete lands); n is the zero-cost gate that keeps
// the TTL-free hot path at a single atomic load.
type ttlTable struct {
	n  atomic.Int64 // live deadline count — the read-path fast gate
	mu sync.RWMutex
	m  map[string]int64
}

// Len reports the live deadline count (0 = the table costs nothing).
func (t *ttlTable) Len() int64 { return t.n.Load() }

// set arms or re-arms key's deadline.
func (t *ttlTable) set(key string, deadline int64) {
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]int64)
	}
	if _, ok := t.m[key]; !ok {
		t.n.Add(1)
	}
	t.m[key] = deadline
	t.mu.Unlock()
}

// clear disarms key's deadline, if any.
func (t *ttlTable) clear(key string) {
	t.mu.Lock()
	if _, ok := t.m[key]; ok {
		delete(t.m, key)
		t.n.Add(-1)
	}
	t.mu.Unlock()
}

// clearAll drops every deadline (FLUSH: the keys are gone, nothing is
// left to expire).
func (t *ttlTable) clearAll() {
	t.mu.Lock()
	if len(t.m) > 0 {
		t.n.Add(-int64(len(t.m)))
		clear(t.m)
	}
	t.mu.Unlock()
}

// deadline returns key's armed deadline.
func (t *ttlTable) deadline(key string) (int64, bool) {
	t.mu.RLock()
	d, ok := t.m[key]
	t.mu.RUnlock()
	return d, ok
}

// expired reports whether key has a deadline at or before now. Callers
// gate on Len() first so the TTL-free path never takes the lock.
func (t *ttlTable) expired(key string, now int64) bool {
	t.mu.RLock()
	d, ok := t.m[key]
	t.mu.RUnlock()
	return ok && d <= now
}

// collectExpired returns up to max keys whose deadline passed — the
// reaper's candidate batch. The deadlines stay armed: only delivery of
// the reaper's EventExpire (or a racing SET/DEL) clears them, so the
// reaper re-checks each candidate under its transaction.
func (t *ttlTable) collectExpired(now int64, max int) []string {
	if t.Len() == 0 {
		return nil
	}
	var keys []string
	t.mu.RLock()
	for k, d := range t.m {
		if d <= now {
			keys = append(keys, k)
			if len(keys) >= max {
				break
			}
		}
	}
	t.mu.RUnlock()
	return keys
}

// nowNanos is the read paths' single time source; a variable so crash
// and race tests can pin it.
var nowNanos = func() int64 { return time.Now().UnixNano() }

// maxTTL is the longest TTL a SETEX arms, half the Unix-nanosecond
// clock's range (≈ 146 years): a deadline now+maxTTL stays representable
// until the year 2116. A longer TTL saturates to it.
const maxTTL = time.Duration(math.MaxInt64 / 2)
