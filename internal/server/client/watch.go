package client

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"polytm/internal/repl"
	"polytm/internal/wire"
)

// WatchEvent is one server push: a committed mutation that matched one
// of the watcher's watches. Seq is the server-global commit-order
// sequence number — strictly increasing across every event the server
// pushes, so two watchers of the same key see identical Seq sequences.
type WatchEvent struct {
	WatchID uint64
	Seq     uint64
	Op      wire.EventOp
	Key     string
}

// ErrEventsLost reports a server-side cut: the watcher consumed too
// slowly, the session's buffer overflowed, and the server ended the
// session after telling us how many events vanished (Watcher.Lost).
var ErrEventsLost = errors.New("client: watch events lost (session cut by server)")

// WatchOption configures a Watcher.
type WatchOption func(*Watcher)

// WithWatchBuffer sets the delivery channel's capacity (default 256).
func WithWatchBuffer(n int) WatchOption {
	return func(w *Watcher) {
		if n > 0 {
			w.chanCap = n
		}
	}
}

// WithoutReconnect makes any transport failure terminal instead of
// triggering redial+resubscribe — tests that reason about a single
// session want the session's end to be observable.
func WithoutReconnect() WatchOption {
	return func(w *Watcher) { w.noReconnect = true }
}

type watchSpec struct {
	key    string
	prefix bool
}

// Watcher is the client side of a watch session: repl.Redial keeps one
// repl.Link to the server up, and each link's lifetime (session)
// subscribes the current watch set and reads the push stream. Events
// arrive on Events() in server commit order; within one session
// delivery is exactly-once (the server cuts the session rather than
// drop silently). Across a reconnect the watcher re-subscribes its
// current watch set, but events committed while the link was down are
// gone and watch ids are reissued — session-scoped, not durable.
//
// Every link descends from the watcher's context: ending the watcher
// cancels it, which cuts the live link, or the one being dialed, and
// stops the redial loop.
type Watcher struct {
	addr        string
	backoff     repl.Backoff // zero: repl.Redial's schedule; only tests shorten it
	chanCap     int
	noReconnect bool

	events chan WatchEvent
	ctx    context.Context
	cancel context.CancelCauseFunc

	// firstID is set once by Watch before run starts.
	firstID uint64

	mu      sync.Mutex
	link    *repl.Link           // the live session's; Add/Unwatch/Ping and PONG write on it
	specs   map[uint64]watchSpec // acked watches, by current session id
	pending []watchSpec          // SessWatch sent, WATCH-OK not yet seen
	lost    uint64
	err     error
}

// Watch dials a dedicated session connection and registers the first
// watch (key, or every key under it when prefix is true). The returned
// watcher's first watch id is FirstID.
func Watch(addr string, key []byte, prefix bool, opts ...WatchOption) (*Watcher, error) {
	w := &Watcher{addr: addr, chanCap: 256}
	for _, o := range opts {
		o(w)
	}
	w.events = make(chan WatchEvent, w.chanCap)
	w.ctx, w.cancel = context.WithCancelCause(context.Background())

	l, id, err := w.connect([]watchSpec{{key: string(key), prefix: prefix}})
	if err != nil {
		w.cancel(err)
		return nil, err
	}
	w.firstID = id
	go w.run(l)
	return w, nil
}

// Events returns the delivery channel. It closes when the watcher ends;
// Err then says why (nil after Close).
func (w *Watcher) Events() <-chan WatchEvent { return w.events }

// FirstID returns the id of the watch registered by Watch, valid for
// the initial session.
func (w *Watcher) FirstID() uint64 { return w.firstID }

// Lost returns the server-reported dropped-event count (non-zero only
// after ErrEventsLost).
func (w *Watcher) Lost() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lost
}

// Err returns the terminal error after Events closes.
func (w *Watcher) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Add registers another watch on the live session. Its id arrives with
// the server's WATCH-OK and is applied to the resubscribe set; Add does
// not wait for it.
func (w *Watcher) Add(key []byte, prefix bool) error {
	w.mu.Lock()
	w.pending = append(w.pending, watchSpec{key: string(key), prefix: prefix})
	w.mu.Unlock()
	return w.send(&wire.SessFrame{Kind: wire.SessWatch, Key: key, Prefix: prefix})
}

// Unwatch drops a watch by its current-session id (from FirstID or a
// WATCH-OK observed via events' WatchID).
func (w *Watcher) Unwatch(id uint64) error {
	w.mu.Lock()
	delete(w.specs, id)
	w.mu.Unlock()
	return w.send(&wire.SessFrame{Kind: wire.SessUnwatch, WatchID: id})
}

// Ping sends a client-side liveness probe; the server answers PONG,
// which refreshes the link without surfacing to Events.
func (w *Watcher) Ping() error {
	return w.send(&wire.SessFrame{Kind: wire.SessPing})
}

// Close ends the watcher: the connection drops, Events closes, Err
// stays nil.
func (w *Watcher) Close() error {
	w.end(nil)
	return nil
}

// end latches the watcher's terminal state — only the first call's err
// is what Err reports — and cancels its context, which stops the redial
// loop and cuts the live link. It returns err, for a frame handler to
// end its session with.
func (w *Watcher) end(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ctx.Err() == nil {
		w.err = err
		w.cancel(ErrClosed)
	}
	return err
}

func (w *Watcher) send(f *wire.SessFrame) error {
	w.mu.Lock()
	l := w.link
	w.mu.Unlock()
	if l == nil {
		return ErrClosed
	}
	buf, err := wire.AppendSessFrame(nil, f)
	if err != nil {
		return err
	}
	return l.Write(buf)
}

// connect opens one session: the WATCH handshake for specs[0] (whose OK
// carries the first watch id), then a SessWatch frame per remaining
// spec (their WATCH-OKs arrive in order on the session stream). The
// link becomes the watcher's live one; one dialed while the watcher
// ended is born cut, and the session that runs it closes it.
func (w *Watcher) connect(specs []watchSpec) (*repl.Link, uint64, error) {
	if len(specs) == 0 {
		return nil, 0, errors.New("client: watcher has no watches to subscribe")
	}
	req := wire.Request{Op: wire.OpWatch, Sem: wire.SemDefault, Key: []byte(specs[0].key), Prefix: specs[0].prefix}
	l, resp, err := repl.Dial(w.ctx, w.addr, &req)
	if err != nil {
		return nil, 0, err
	}
	var more []byte
	for _, sp := range specs[1:] {
		f := wire.SessFrame{Kind: wire.SessWatch, Key: []byte(sp.key), Prefix: sp.prefix}
		if more, err = wire.AppendSessFrame(more, &f); err != nil {
			break
		}
	}
	if err == nil {
		err = l.Write(more)
	}
	if err != nil {
		l.Close()
		return nil, 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.link = l
	w.specs = map[uint64]watchSpec{resp.N: specs[0]}
	w.pending = append(w.pending[:0], specs[1:]...)
	return l, resp.N, nil
}

// run keeps a session up until the watcher ends; first is the session
// Watch opened.
func (w *Watcher) run(first *repl.Link) {
	defer close(w.events)
	repl.Redial(w.ctx, w.backoff, func() (bool, error) {
		l := first
		first = nil
		return w.session(l)
	}, nil)
}

// session runs one link's lifetime — dialing and resubscribing whatever
// the watch set is now, unless handed a link that already is — and
// reports whether the server said anything on it. A transport failure
// returns to the redial loop; terminal server frames (EVENT-LOST, ERR),
// Close, and any failure under WithoutReconnect end the watcher.
func (w *Watcher) session(l *repl.Link) (streamed bool, err error) {
	if l == nil {
		if l, _, err = w.connect(w.snapshotSpecs()); err != nil {
			return false, err
		}
	}
	defer l.Close()
	var f wire.SessFrame
	err = l.Recv(func(payload []byte) error {
		if err := wire.DecodeSessFrame(&f, payload); err != nil {
			return w.end(fmt.Errorf("client: session frame: %w", err))
		}
		streamed = true
		switch f.Kind {
		case wire.SessEvent:
			select {
			case w.events <- WatchEvent{WatchID: f.WatchID, Seq: f.Seq, Op: f.Op, Key: string(f.Key)}:
			case <-w.ctx.Done():
				return ErrClosed
			}
		case wire.SessEventLost:
			w.mu.Lock()
			w.lost += f.Dropped
			w.mu.Unlock()
			return w.end(ErrEventsLost)
		case wire.SessWatchOK:
			w.ackWatch(f.WatchID)
		case wire.SessPing:
			return w.send(&wire.SessFrame{Kind: wire.SessPong})
		case wire.SessPong:
			// liveness only
		case wire.SessErr:
			pe := &wire.ProtocolError{Code: f.Code, Detail: string(f.Detail)}
			return w.end(fmt.Errorf("client: session ended by server: %w", pe))
		}
		return nil
	})
	if w.noReconnect {
		w.end(fmt.Errorf("client: session read: %w", err))
	}
	return streamed, err
}

// ackWatch maps the next pending spec to its server-issued id.
func (w *Watcher) ackWatch(id uint64) {
	w.mu.Lock()
	if len(w.pending) > 0 {
		w.specs[id] = w.pending[0]
		w.pending = w.pending[1:]
	}
	w.mu.Unlock()
}

// snapshotSpecs is the resubscribe set: every acked watch plus any
// still pending when the link died.
func (w *Watcher) snapshotSpecs() []watchSpec {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]watchSpec, 0, len(w.specs)+len(w.pending))
	for _, sp := range w.specs {
		out = append(out, sp)
	}
	out = append(out, w.pending...)
	return out
}
