package session

import (
	"strings"
	"sync"
	"sync/atomic"

	"polytm/internal/wire"
)

// Registry is the store-wide set of live watch sessions. Publishing a
// change assigns it a global event sequence number and fans it out to
// every session with a matching watch; per-key ordering is inherited
// from the per-shard notifiers (one key always lives on one shard, so
// its changes deliver — and therefore publish — serialized and in
// commit order).
type Registry struct {
	seq     atomic.Uint64 // global event sequence (per-key strictly increasing)
	watches atomic.Int64  // live watches across all sessions — the capture gate

	gauge  atomic.Int64  // live sessions (watch_sessions)
	pushed atomic.Uint64 // events buffered to a session (events_pushed)
	lost   atomic.Uint64 // events dropped on overflowed sessions (events_lost)

	mu       sync.Mutex // guards sessions; serializes Publish (see there)
	sessions map[*Session]struct{}
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{sessions: make(map[*Session]struct{})}
}

// ActiveWatches reports the number of live watches — the store's fast
// gate for whether mutations must capture change events at all.
func (r *Registry) ActiveWatches() int64 { return r.watches.Load() }

// Sessions / EventsPushed / EventsLost are the STATS gauges.
func (r *Registry) Sessions() int64      { return r.gauge.Load() }
func (r *Registry) EventsPushed() uint64 { return r.pushed.Load() }
func (r *Registry) EventsLost() uint64   { return r.lost.Load() }

// NewSession registers a session whose push buffer holds up to buffer
// events (<= 0 picks DefaultBuffer). Close it to unregister.
func (r *Registry) NewSession(buffer int) *Session {
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	s := &Session{reg: r, max: buffer, wake: make(chan struct{}, 1)}
	r.mu.Lock()
	r.sessions[s] = struct{}{}
	r.mu.Unlock()
	r.gauge.Add(1)
	return s
}

func (r *Registry) remove(s *Session) {
	r.mu.Lock()
	_, ok := r.sessions[s]
	delete(r.sessions, s)
	r.mu.Unlock()
	if ok {
		r.gauge.Add(-1)
	}
}

// Publish fans one committed change out to every matching watch. An
// EventFlush matches every watch (its key is empty: the whole keyspace
// went away, including everything the watch covered). Called from the
// per-shard notifier deliver callbacks, so publishes for one key are
// serialized in that key's commit order.
func (r *Registry) Publish(op wire.EventOp, key string) {
	if r.watches.Load() == 0 {
		return
	}
	// Numbering and fan-out are one critical section: shards publish
	// concurrently, and a publisher that drew seq n but reached a
	// session's buffer after the publisher of n+1 would hand that
	// watcher its events out of seq order.
	r.mu.Lock()
	seq := r.seq.Add(1)
	for s := range r.sessions {
		pushed, lost := s.offer(op, key, seq)
		if pushed > 0 {
			r.pushed.Add(pushed)
		}
		if lost > 0 {
			r.lost.Add(lost)
		}
	}
	r.mu.Unlock()
}

// watch is one registered interest of a session.
type watch struct {
	id     uint64
	key    string
	prefix bool
}

func (w *watch) match(key string) bool {
	if w.prefix {
		return strings.HasPrefix(key, w.key)
	}
	return key == w.key
}
