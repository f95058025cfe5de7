package server

import (
	"context"
	"time"

	"polytm/internal/core"
	"polytm/internal/wal"
)

// DefaultReapEvery is the background TTL reaper cadence when the
// server does not configure one.
const DefaultReapEvery = 250 * time.Millisecond

// reapBatch bounds one shard's deletions per reap pass: expiry runs as
// small def-class batches so a mass expiration never holds a shard's
// token for one giant transaction.
const reapBatch = 128

// StartTTLReaper runs the background expiry loop every `every`
// (0 picks DefaultReapEvery; negative disables). Pairs with
// StopTTLReaper. Lazy expiry keeps reads correct without the reaper —
// it exists so expired entries are physically deleted, their deletes
// durably logged and replicated, and their watchers told.
func (s *Store) StartTTLReaper(every time.Duration) {
	if every < 0 || s.reaper.cancel != nil {
		return
	}
	if every == 0 {
		every = DefaultReapEvery
	}
	// A pass runs to its end: it deletes at most reapBatch keys a shard.
	s.reaper.start(every, func(context.Context) {
		if _, err := s.ReapExpired(context.Background()); err != nil {
			s.logf("polyserve: ttl reap: %v", err)
		}
	})
}

// StopTTLReaper stops the background expiry loop, waiting for an
// in-flight pass to finish.
func (s *Store) StopTTLReaper() { s.reaper.stop() }

// ReapExpired runs one expiry pass over every shard, deleting up to
// reapBatch expired keys per shard, and reports how many it deleted.
// Exported so tests (and embedders without the background loop) can
// drive expiry deterministically.
//
// Expiry is decided here and ONLY here, and only on a primary: each
// deleted key becomes an ordinary delete record in the shard's WAL, so
// recovery and every follower converge on the same post-expiry
// keyspace without ever re-deciding a deadline. A follower's table is
// empty by construction (SETEX replicates as a plain set), and the
// role check keeps a just-demoted store from double-deciding.
func (s *Store) ReapExpired(ctx context.Context) (int, error) {
	if Role(s.role.Load()) == RoleFollower {
		return 0, nil
	}
	total := 0
	for _, sh := range s.tab().shards {
		n, err := s.reapShard(ctx, sh)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// reapShard deletes one batch of sh's expired keys inside a single
// captured transaction: the deletes reach the WAL and the watchers
// (EventExpire) exactly like client mutations, in commit order.
func (s *Store) reapShard(ctx context.Context, sh *shard) (int, error) {
	now := nowNanos()
	candidates := sh.ttl.collectExpired(now, reapBatch)
	if len(candidates) == 0 {
		return 0, nil
	}
	reaped := 0
	err := s.mutate(ctx, sh, core.Irrevocable, mutOpts{force: true}, func(tx *core.Tx, cp *walCapture) error {
		reaped = 0
		// A reshard may have retired or shrunk this shard since the pass
		// started: a merged-away shard's log is closing, and a split
		// source's moved keys belong to the new owner (which re-armed
		// their deadlines at cutover). Re-check membership under the
		// token and expire only keys the shard still owns.
		tab := s.tab()
		if tab.epoch > 0 && tab.posByID(sh.idx) < 0 {
			return nil
		}
		// Close the extension window: a SETEX that committed before this
		// body took the shard's token may still be delivering its new
		// deadline. Sync under the token (no new slots can be reserved
		// while we hold it; pending ones resolve without it) so the
		// re-check below sees every earlier commit's TTL effect.
		sh.notif.Sync()
		for _, k := range candidates {
			if tab.epoch > 0 && tab.shardFor(hashKey(viewBytes(k))) != sh {
				continue // moved by a split; the new owner expires it
			}
			if d, ok := sh.ttl.deadline(k); !ok || d > now {
				continue // re-armed or disarmed since collection
			}
			// Nothing removed means a deadline armed with no entry — a lost
			// race with a delete whose disarm is mid-delivery; the disarm
			// will land.
			n, err := sh.applyOp(tx, cp, wal.OpDel, viewBytes(k), nil, effect{expire: true})
			if err != nil {
				return err
			}
			reaped += n
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	// Counted only after the deletes are durable AND delivered: the
	// counter is the crash tests' "expiry committed" marker.
	s.keysExpired.Add(uint64(reaped))
	return reaped, nil
}
