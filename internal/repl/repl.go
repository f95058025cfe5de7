// Package repl is polyserve's replication subsystem: a primary streams
// its per-shard write-ahead logs to followers, which apply the records
// through the same machinery recovery uses and serve snapshot-class
// reads locally.
//
// The design rides what durability already guarantees. PR 5/6 made
// every mutating request an irrevocable transaction that reserves its
// WAL record under the shard's irrevocable token, so per-shard log
// order IS commit order — a follower that applies each shard's records
// in log order reconstructs, at every moment, a state the primary
// actually passed through (a prefix-consistent snapshot per shard).
// Catch-up reuses the checkpoint consistency argument: attach a log tap
// (wal.Log.AttachTap) first, stream a snapshot of the shard, then the
// live tail; every record is either covered by the snapshot (seq <=
// coverSeq) or shipped, and replaying the overlap is idempotent because
// records are absolute. The catch-up itself ships as WAL records too —
// seq 0, a FLUSH and then the snapshot's pairs as SETs, or a delta's
// SETs and DELs — so a follower applies one thing.
//
// Sync acks (Hub.WaitAcked) are keyed by a shard's stable id, never by
// its table position: a feed's ACK frames carry positions, and the
// topology the feed pinned at subscribe names each one. A reshard cuts
// every feed and resets the acked table to the new table's ids, so a
// waiter on a shard the reshard retired is released and no caller has
// to re-bind anything.
//
// The link discipline — explicit connection states, reconnection with
// configurable backoff, and a per-phase timeout taxonomy instead of one
// socket deadline — follows the HSMS pattern (secs4go): Connect bounds
// dial+handshake (T5-style), Reply bounds one expected frame exchange
// (T3-style), Idle bounds link silence before a heartbeat is owed
// (T6-style linktest). It is written once, in link.go, and the watch
// sessions of internal/server ride the same Link with their own frame
// vocabulary.
package repl

import (
	"time"
)

// Timeouts is the per-phase timeout taxonomy of every push-stream link
// — hub feeds, followers, watch sessions, watchers — and of the pooled
// client's dial. Each phase gets its own budget, so a slow dial cannot
// eat the budget of the reply that follows it and a long idle period is
// not mistaken for a dead peer until a heartbeat goes unanswered.
//
// There is one set, Budgets, and nothing configures it: every Link
// starts on it, and the pooled client (internal/server/client) dials
// within its Connect.
type Timeouts struct {
	// Connect bounds connection establishment: dial plus the
	// subscribe/handshake exchange (T5-style).
	Connect time.Duration
	// Reply bounds one expected frame exchange — a write reaching the
	// peer, or the answer to a frame that demands one (T3-style).
	Reply time.Duration
	// Idle is the heartbeat cadence: how long a link may stay silent
	// before a heartbeat is owed. A peer silent for Idle + 2×Reply is
	// declared dead (T6-style).
	Idle time.Duration
}

// Budgets returns the one timeout set: connect 5 s, reply 10 s, idle 3 s.
func Budgets() Timeouts {
	return Timeouts{Connect: 5 * time.Second, Reply: 10 * time.Second, Idle: 3 * time.Second}
}

// readBudget is the deadline for one blocking frame read on a live
// link: the peer may legitimately stay silent for Idle, then a
// heartbeat has Reply to reach it and its answer Reply to come back;
// any longer and the peer is dead.
func (t Timeouts) readBudget() time.Duration { return t.Idle + 2*t.Reply }

// Backoff is the reconnection policy: exponential delay between
// attempts, from Min doubling up to Max.
type Backoff struct {
	// Min is the first retry delay (0 = 50ms).
	Min time.Duration
	// Max caps the delay (0 = 3s).
	Max time.Duration
}

// WithDefaults fills zero fields with the package defaults.
func (b Backoff) WithDefaults() Backoff {
	if b.Min <= 0 {
		b.Min = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 3 * time.Second
	}
	return b
}

// Delay returns the wait before retry `attempt` (0-based): Min<<attempt
// capped at Max.
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Min
	for i := 0; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	return min(d, b.Max)
}

// ConnState is a follower link's position in its connection state
// machine.
type ConnState int32

const (
	// StateDisconnected: no connection; waiting out the backoff delay.
	StateDisconnected ConnState = iota
	// StateConnecting: dial + SUBSCRIBE-WAL handshake in flight.
	StateConnecting
	// StateCatchingUp: applying catch-up records until every shard's
	// SNAP-DONE.
	StateCatchingUp
	// StateStreaming: catch-up complete on every shard; applying the
	// live tail.
	StateStreaming
)

// String names the state.
func (s ConnState) String() string {
	switch s {
	case StateDisconnected:
		return "disconnected"
	case StateConnecting:
		return "connecting"
	case StateCatchingUp:
		return "catching-up"
	case StateStreaming:
		return "streaming"
	default:
		return "ConnState(?)"
	}
}
