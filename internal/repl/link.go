package repl

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"polytm/internal/wire"
)

// ErrLinkClosed is the cause a Link reports after its owner closed it.
var ErrLinkClosed = errors.New("repl: link closed")

// Link is one connection that left the request/response protocol and
// now carries a push-frame family in both directions: a replication
// feed (wire.ReplFrame) or a watch session (wire.SessFrame). The link
// knows nothing of either vocabulary — it moves length-prefixed frames
// and owns what the two have in common: every socket deadline, the
// heartbeat, the cut, and the order in which the two halves stop.
//
// Cut is a latch. Once it has run, a Read or Write that has not started
// fails at once with the first cause, and one already blocked in the
// socket is woken by a deadline in the past; nothing moves on a cut
// link, so a loop around Read or Write needs no stop flag of its own.
type Link struct {
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	tm       Timeouts
	maxFrame int

	// wmu serialises Write: a client's own frames race the answers its
	// reader owes (a watcher's Add against its PONG).
	wmu sync.Mutex

	// mu orders Cut against the arming of a deadline, so a deadline
	// armed for a new Read or Write can never overwrite the cut's.
	mu    sync.Mutex
	cause error
	stop  chan struct{}
}

// NewLink wraps a connection whose request/response exchange is over
// (zero Timeouts fields take the defaults; maxFrame <= 0 means
// wire.MaxFrame). The caller still closes conn.
func NewLink(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, tm Timeouts, maxFrame int) *Link {
	return &Link{conn: conn, br: br, bw: bw, tm: tm.WithDefaults(), maxFrame: maxFrame, stop: make(chan struct{})}
}

// arm sets the deadline for one Read (the read budget: the peer may
// stay silent for Idle, then owes an answer to the heartbeat) or one
// Write (Reply), unless the link is cut.
func (l *Link) arm(write bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cause != nil {
		return l.cause
	}
	if write {
		return l.conn.SetWriteDeadline(time.Now().Add(l.tm.Reply))
	}
	return l.conn.SetReadDeadline(time.Now().Add(l.tm.readBudget()))
}

// Read reads the next frame's payload into buf (see wire.ReadFrameBuf)
// under the read budget. A read that a cut interrupted reports the
// cut's cause, not the deadline that woke it.
func (l *Link) Read(buf []byte) ([]byte, error) {
	if err := l.arm(false); err != nil {
		return nil, err
	}
	payload, err := wire.ReadFrameBuf(l.br, buf, l.maxFrame)
	if err != nil {
		if cause := l.Cause(); cause != nil {
			err = cause
		}
	}
	return payload, err
}

// Write sends already-encoded frames and flushes them, under the Reply
// budget. It is safe for concurrent use.
func (l *Link) Write(frames []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if err := l.arm(true); err != nil {
		return err
	}
	if _, err := l.bw.Write(frames); err != nil {
		return err
	}
	return l.bw.Flush()
}

// Cut ends the link for the given non-nil reason and returns the first
// reason any Cut was given, which is what Cause reports from then on.
func (l *Link) Cut(err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cause == nil {
		l.cause = err
		close(l.stop)
		l.conn.SetDeadline(time.Now().Add(-time.Second))
	}
	return l.cause
}

// Cause returns why the link was cut, nil while it is live.
func (l *Link) Cause() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cause
}

// Close cuts the link and closes its connection; for the side that
// dialed it.
func (l *Link) Close() {
	l.Cut(ErrLinkClosed)
	l.conn.Close()
}

// Recv hands each incoming frame's payload (valid until onFrame
// returns) to onFrame, until a read or onFrame fails; it returns that
// error and leaves the link as it found it.
func (l *Link) Recv(onFrame func(payload []byte) error) error {
	var payload []byte
	for {
		var err error
		if payload, err = l.Read(payload); err == nil {
			err = onFrame(payload)
		}
		if err != nil {
			return err
		}
	}
}

// Serve is the duplex pump of the pushing side. Recv(onFrame) runs on a
// second goroutine; the caller's goroutine is the only writer: it calls
// drain whenever wake fires and sends the pre-encoded ping frame every
// Idle. The heartbeat is a ticker, not an idle timer, on purpose: the
// peer's answer is what feeds this side's read budget, and a peer that
// only ever answers (a silent watcher) would otherwise be cut for
// keeping quiet on a link that is busy pushing to it.
//
// The link ends when drain or a write fails (Serve cuts it, which wakes
// the reader), when it is cut from outside, or when the reader ends —
// then, the write half being intact, drain runs once more so that a
// terminal frame onFrame queued on its way out still reaches the peer.
// Serve cuts the link and returns its cause, always after the reader
// goroutine has exited.
func (l *Link) Serve(wake <-chan struct{}, ping []byte, drain func() error, onFrame func(payload []byte) error) error {
	var rerr error
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		rerr = l.Recv(onFrame)
	}()
	tick := time.NewTicker(l.tm.Idle)
	defer tick.Stop()
	var werr error
	for werr == nil {
		select {
		case <-wake:
			werr = drain()
		case <-tick.C:
			werr = l.Write(ping)
		case <-l.stop:
			werr = l.Cause()
		case <-readerDone:
			drain()
			return l.Cut(rerr)
		}
	}
	l.Cut(werr)
	<-readerDone
	return l.Cause()
}

// Dial is the client side of a takeover: connect to addr, send req (the
// SUBSCRIBE-WAL or WATCH request), read its response, and fail unless
// the server said OK — dial and exchange each inside the Connect
// budget. The returned link is the caller's to Close.
func Dial(addr string, tm Timeouts, req *wire.Request) (*Link, *wire.Response, error) {
	tm = tm.WithDefaults()
	conn, err := net.DialTimeout("tcp", addr, tm.Connect)
	if err != nil {
		return nil, nil, err
	}
	l := NewLink(conn, bufio.NewReader(conn), bufio.NewWriter(conn), tm, 0)
	resp, err := l.handshake(req)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return l, resp, nil
}

func (l *Link) handshake(req *wire.Request) (*wire.Response, error) {
	out, err := wire.AppendRequestFrame(nil, req)
	if err != nil {
		return nil, err
	}
	l.conn.SetDeadline(time.Now().Add(l.tm.Connect))
	if _, err := l.bw.Write(out); err != nil {
		return nil, err
	}
	if err := l.bw.Flush(); err != nil {
		return nil, err
	}
	payload, err := wire.ReadFrameBuf(l.br, nil, l.maxFrame)
	if err != nil {
		return nil, err
	}
	resp := new(wire.Response)
	if err := wire.DecodeResponseInto(resp, payload, req.Op, nil); err != nil {
		return nil, err
	}
	return resp, resp.Err()
}

// Redial keeps a client's link up until stop closes: it runs once — one
// whole link lifetime, dial to death — then waits out the backoff delay
// and runs it again. The delay grows with each consecutive failure and
// starts over after a lifetime that reached streaming (zero Backoff
// fields take the defaults). onDown, when non-nil, hears of each death
// and the delay that follows it.
func Redial(stop <-chan struct{}, bo Backoff, once func() (streamed bool, err error), onDown func(err error, retryIn time.Duration)) {
	bo = bo.WithDefaults()
	attempt := 0
	for {
		streamed, err := once()
		select {
		case <-stop:
			return
		default:
		}
		if streamed {
			attempt = 0
		}
		delay := bo.Delay(attempt)
		attempt++
		if onDown != nil {
			onDown(err, delay)
		}
		select {
		case <-stop:
			return
		case <-time.After(delay):
		}
	}
}
