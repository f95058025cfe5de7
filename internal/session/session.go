package session

import (
	"sync"

	"polytm/internal/wire"
)

// DefaultBuffer is the per-session event buffer bound when the server
// does not configure one.
const DefaultBuffer = 1024

// Event is one queued push for a session: a committed change matched to
// one of its watches.
type Event struct {
	WatchID uint64
	Seq     uint64
	Op      wire.EventOp
	Key     string
}

// Ctrl is one queued control frame for a session's writer: the reader
// half of a session connection never writes, so acknowledgements it
// owes (WATCH-OK for a mid-session SessWatch, PONG for a client PING)
// and terminal errors (SessErr, carrying Code) queue here for the
// writer to send in order.
type Ctrl struct {
	Kind    wire.SessKind
	WatchID uint64
	Code    wire.ProtoCode
}

// Session is one connection's watch state: its registered watches, its
// bounded event buffer, and the control queue its reader feeds its
// writer through. All methods are safe for concurrent use; the
// reader/writer goroutines and every shard's notifier share one.
type Session struct {
	reg  *Registry
	max  int
	wake chan struct{}

	mu       sync.Mutex
	watches  []watch
	nextID   uint64
	events   []Event
	ctrl     []Ctrl
	overflow bool
	dropped  uint64
	closed   bool
}

// Watch registers interest in a key (prefix=false) or key prefix and
// returns the watch id events for it will carry. IDs are per-session,
// starting at 1.
func (s *Session) Watch(key string, prefix bool) uint64 { return s.watch(key, prefix, false) }

// WatchAck is Watch plus an enqueued WATCH-OK control frame, under one
// lock: no event for the new watch can be buffered between the
// registration and its acknowledgement, so the writer always sends
// WATCH-OK before the watch's first event.
func (s *Session) WatchAck(key string, prefix bool) uint64 { return s.watch(key, prefix, true) }

// watch registers one watch and, with ack, queues its WATCH-OK in the
// same critical section.
func (s *Session) watch(key string, prefix, ack bool) uint64 {
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.watches = append(s.watches, watch{id: id, key: key, prefix: prefix})
	if ack {
		s.ctrl = append(s.ctrl, Ctrl{Kind: wire.SessWatchOK, WatchID: id})
	}
	closed := s.closed
	s.mu.Unlock()
	if !closed {
		s.reg.watches.Add(1)
	}
	if ack {
		s.wakeup()
	}
	return id
}

// Unwatch drops a watch by id, reporting whether it existed. Events
// already buffered for it may still be delivered.
func (s *Session) Unwatch(id uint64) bool {
	s.mu.Lock()
	found := false
	for i := range s.watches {
		if s.watches[i].id == id {
			s.watches = append(s.watches[:i], s.watches[i+1:]...)
			found = true
			break
		}
	}
	closed := s.closed
	s.mu.Unlock()
	if found && !closed {
		s.reg.watches.Add(-1)
	}
	return found
}

// offer matches one published change against the session's watches and
// buffers an event per match. Once the buffer overflows the session is
// marked cut: no further events buffer, every subsequent match counts
// as dropped, and the writer (woken here) sends EVENT-LOST and closes.
// offer never blocks beyond the session mutex — a slow consumer costs
// its own session, never a commit.
func (s *Session) offer(op wire.EventOp, key string, seq uint64) (pushed, lost uint64) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, 0
	}
	for i := range s.watches {
		w := &s.watches[i]
		if op != wire.EventFlush && !w.match(key) {
			continue
		}
		if s.overflow || len(s.events) >= s.max {
			s.overflow = true
			s.dropped++
			lost++
			continue
		}
		s.events = append(s.events, Event{WatchID: w.id, Seq: seq, Op: op, Key: key})
		pushed++
	}
	s.mu.Unlock()
	if pushed > 0 || lost > 0 {
		s.wakeup()
	}
	return pushed, lost
}

// EnqueueCtrl queues a control frame for the writer (WATCH-OK, PONG).
func (s *Session) EnqueueCtrl(kind wire.SessKind, watchID uint64) {
	s.mu.Lock()
	s.ctrl = append(s.ctrl, Ctrl{Kind: kind, WatchID: watchID})
	s.mu.Unlock()
	s.wakeup()
}

// EnqueueErr queues the terminal ERR control frame: the writer sends it
// and closes the session connection.
func (s *Session) EnqueueErr(code wire.ProtoCode) {
	s.mu.Lock()
	s.ctrl = append(s.ctrl, Ctrl{Kind: wire.SessErr, Code: code})
	s.mu.Unlock()
	s.wakeup()
}

// Take moves the session's queued output into the caller's buffers
// (reusing their storage) and reports overflow: events and control
// frames to send, the dropped-event count, and cut=true when the
// session overflowed — the writer sends what it got, then EVENT-LOST
// with the count, then closes.
func (s *Session) Take(ev []Event, ctrl []Ctrl) (events []Event, ctrls []Ctrl, dropped uint64, cut bool) {
	s.mu.Lock()
	events = append(ev[:0], s.events...)
	s.events = s.events[:0]
	ctrls = append(ctrl[:0], s.ctrl...)
	s.ctrl = s.ctrl[:0]
	dropped, cut = s.dropped, s.overflow
	s.mu.Unlock()
	return events, ctrls, dropped, cut
}

// Wake returns the channel the writer parks on; it receives (capacity
// 1, coalesced) whenever the session queues output or closes.
func (s *Session) Wake() <-chan struct{} { return s.wake }

func (s *Session) wakeup() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Close unregisters the session: its watches stop matching and its
// buffers are dropped. Idempotent; wakes the writer so it can exit.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	n := int64(len(s.watches))
	s.watches = nil
	s.events = nil
	s.ctrl = nil
	s.mu.Unlock()
	if n > 0 {
		s.reg.watches.Add(-n)
	}
	s.reg.remove(s)
	s.wakeup()
}
