package server

import (
	"bufio"
	"errors"
	"net"

	"polytm/internal/repl"
	"polytm/internal/session"
	"polytm/internal/wire"
)

// errSessionOver ends a session's pump once its terminal frame — ERR or
// EVENT-LOST — has been written.
var errSessionOver = errors.New("server: watch session over, terminal frame sent")

// serveWatch converts a connection into a watch session: a repl.Link
// speaking the session vocabulary. The WATCH request's OK response
// (carrying the first watch id) is the last frame of the request
// pipeline; from then on the link's pump pushes what the session queues
// (watchLink.drain) and decodes what the client sends
// (watchLink.onFrame). The reader half never writes: what it owes the
// client (WATCH-OK, PONG, a terminal ERR) it queues on the session, so
// the writer sends everything in one order. The link descends from the
// server's links context, so Shutdown ends the session by cancelling
// it — and a session that starts after Shutdown is born cut.
func (s *Server) serveWatch(c net.Conn, br *bufio.Reader, bw *bufio.Writer, req *wire.Request) {
	w := watchLink{
		l:    repl.NewLink(s.links, c, br, bw),
		sess: s.store.Sessions().NewSession(s.cfg.WatchBuffer),
	}
	defer w.sess.Close()
	defer w.l.Cut(repl.ErrLinkClosed) // leaves s.links on every path

	// Register the first watch BEFORE the OK is written: the id must be
	// known for the response, and any commit from here on is buffered
	// behind it — the client can't see an event before its ack because
	// the pump has not started yet.
	first := w.sess.Watch(string(req.Key), req.Prefix)
	out, err := wire.AppendResponseFrame(nil, wire.OpWatch, &wire.Response{Status: wire.StatusOK, N: first})
	if err != nil || w.l.Write(out) != nil {
		return
	}
	ping, err := wire.AppendSessFrame(nil, &wire.SessFrame{Kind: wire.SessPing})
	if err != nil {
		return
	}
	if err := w.l.Serve(w.sess.Wake(), ping, w.drain, w.recv); !isExpectedClose(err) {
		s.logf("polyserve: %v: session: %v", c.RemoteAddr(), err)
	}
}

// watchLink is one session's link plus the scratch its two halves reuse
// from frame to frame.
type watchLink struct {
	l    *repl.Link
	sess *session.Session

	// The writer's: what Take handed over, and its encoding.
	evs    []session.Event
	ctrls  []session.Ctrl
	keybuf []byte
	out    []byte

	in wire.SessFrame // the reader's
}

// push encodes one more frame of the current drain.
func (w *watchLink) push(f *wire.SessFrame) (err error) {
	w.out, err = wire.AppendSessFrame(w.out, f)
	return err
}

// drain sends everything the session has queued, in one write: control
// frames first (a WATCH-OK must precede the watch's first event — the
// session buffers them in that order and Take preserves it), then
// events, then the terminal EVENT-LOST if the session overflowed — the
// buffered events went out ahead of it, so the client knows exactly how
// many it lost and that the session is over.
func (w *watchLink) drain() error {
	var dropped uint64
	var cut bool
	w.evs, w.ctrls, dropped, cut = w.sess.Take(w.evs, w.ctrls)
	w.out = w.out[:0]
	var over error
	for i := 0; i < len(w.ctrls) && over == nil; i++ {
		ct := &w.ctrls[i]
		if err := w.push(&wire.SessFrame{Kind: ct.Kind, WatchID: ct.WatchID, Code: ct.Code}); err != nil {
			return err
		}
		if ct.Kind == wire.SessErr {
			over = errSessionOver
		}
	}
	for i := 0; i < len(w.evs) && over == nil; i++ {
		ev := &w.evs[i]
		w.keybuf = append(w.keybuf[:0], ev.Key...)
		if err := w.push(&wire.SessFrame{Kind: wire.SessEvent, WatchID: ev.WatchID, Seq: ev.Seq, Op: ev.Op, Key: w.keybuf}); err != nil {
			return err
		}
	}
	if cut && over == nil {
		if err := w.push(&wire.SessFrame{Kind: wire.SessEventLost, Dropped: dropped}); err != nil {
			return err
		}
		over = errSessionOver
	}
	if err := w.l.Write(w.out); err != nil {
		return err
	}
	return over
}

// recv is the session's reader: onFrame on every client frame until a
// read or a frame fails. An oversize length prefix fails the read
// itself, before onFrame could see it, and is a violation like the
// others.
func (w *watchLink) recv() error {
	if err := w.l.Recv(w.onFrame); !errors.Is(err, wire.ErrFrameTooLarge) {
		return err
	}
	return w.violation(wire.ProtoOversize)
}

// onFrame consumes one client frame. A protocol violation (undecodable
// frame, a kind only the server may send) queues a terminal ERR and
// ends the reader; the pump's last drain delivers it.
func (w *watchLink) onFrame(payload []byte) error {
	if err := wire.DecodeSessFrame(&w.in, payload); err != nil {
		return w.violation(wire.ProtoMalformed)
	}
	switch w.in.Kind {
	case wire.SessWatch:
		// Registration and WATCH-OK under one lock: the ack always
		// precedes the new watch's first event.
		w.sess.WatchAck(string(w.in.Key), w.in.Prefix)
	case wire.SessUnwatch:
		w.sess.Unwatch(w.in.WatchID)
	case wire.SessPing:
		w.sess.EnqueueCtrl(wire.SessPong, 0)
	case wire.SessPong:
		// The read itself proved liveness; nothing to queue.
	default:
		// EVENT, EVENT-LOST, WATCH-OK, ERR are server→client only.
		return w.violation(wire.ProtoBadSession)
	}
	return nil
}

func (w *watchLink) violation(code wire.ProtoCode) error {
	w.sess.EnqueueErr(code)
	return &wire.ProtocolError{Code: code}
}
