package repl

import (
	"bufio"
	"context"
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
// A link's life is a context derived from its owner's: Cut cancels it,
// and so does the owner stopping, with the owner's cause. The first
// cause wins. Once the context has ended, a Read or Write that has not
// started fails at once with the cause, and one already blocked in the
// socket is woken by a deadline in the past; nothing moves on a cut
// link, so a loop around Read or Write needs no stop flag of its own.
// Every link must end — Serve, Close or Cut — so that it leaves its
// owner's context.
type Link struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	tm   Timeouts // Budgets(), unless the link's owner runs on a shorter set

	// wmu serialises Write: a client's own frames race the answers its
	// reader owes (a watcher's Add against its PONG).
	wmu sync.Mutex

	ctx context.Context
	cut context.CancelCauseFunc
	// mu orders the yank that follows the end of ctx against the arming
	// of a deadline, so a deadline armed for a new Read or Write can
	// never overwrite the cut's.
	mu sync.Mutex
}

// NewLink wraps a connection whose request/response exchange is over,
// under the owner's context ctx: a link made under an owner that has
// already stopped is born cut. The link runs on Budgets(). The caller
// still closes conn.
func NewLink(ctx context.Context, conn net.Conn, br *bufio.Reader, bw *bufio.Writer) *Link {
	l := &Link{conn: conn, br: br, bw: bw, tm: Budgets()}
	l.ctx, l.cut = context.WithCancelCause(ctx)
	context.AfterFunc(l.ctx, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.conn.SetDeadline(time.Now().Add(-time.Second))
	})
	return l
}

// arm sets one deadline, d from now, through set — the read half's,
// the write half's or both — unless the link is cut.
func (l *Link) arm(set func(time.Time) error, d time.Duration) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.Cause(); err != nil {
		return err
	}
	return set(time.Now().Add(d))
}

// Read reads the next frame's payload into buf (see wire.ReadFrameBuf)
// under the read budget: the peer may stay silent for Idle, then owes
// an answer to the heartbeat. A read that a cut interrupted reports the
// cut's cause, not the deadline that woke it.
func (l *Link) Read(buf []byte) ([]byte, error) {
	if err := l.arm(l.conn.SetReadDeadline, l.tm.readBudget()); err != nil {
		return nil, err
	}
	payload, err := wire.ReadFrameBuf(l.br, buf)
	return payload, l.causeOr(err)
}

// causeOr returns the cut's cause in place of a failure err, which the
// cut's deadline may have caused.
func (l *Link) causeOr(err error) error {
	if err != nil {
		if cause := l.Cause(); cause != nil {
			return cause
		}
	}
	return err
}

// Write sends already-encoded frames and flushes them, under the Reply
// budget. It is safe for concurrent use.
func (l *Link) Write(frames []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if err := l.arm(l.conn.SetWriteDeadline, l.tm.Reply); err != nil {
		return err
	}
	if _, err := l.bw.Write(frames); err != nil {
		return err
	}
	return l.bw.Flush()
}

// Cut ends the link for the given non-nil reason and returns the first
// reason the link ended for, which is what Cause reports from then on.
func (l *Link) Cut(err error) error {
	l.cut(err)
	return l.Cause()
}

// Cause returns why the link was cut, nil while it is live.
func (l *Link) Cause() error { return context.Cause(l.ctx) }

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

// Serve is the duplex pump of the pushing side. recv, the reader half
// (a Recv loop), runs on a second goroutine; the caller's goroutine is
// the only writer: it calls drain whenever wake fires and sends the
// pre-encoded ping frame every Idle. The heartbeat is a ticker, not an
// idle timer, on purpose: the peer's answer is what feeds this side's
// read budget, and a peer that only ever answers (a silent watcher)
// would otherwise be cut for keeping quiet on a link that is busy
// pushing to it.
//
// The link ends when drain or a write fails (Serve cuts it, which wakes
// the reader), when it is cut from outside, or when recv returns —
// then, the write half being intact, drain runs once more so that a
// terminal frame the reader queued on its way out still reaches the
// peer. Serve cuts the link and returns its cause, always after the
// reader goroutine has exited.
func (l *Link) Serve(wake <-chan struct{}, ping []byte, drain, recv func() error) error {
	var rerr error
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		rerr = recv()
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
		case <-l.ctx.Done():
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
// budget. The link descends from ctx, the owner's context: the owner
// stopping ends a dial in flight with its cause. The returned link is
// the caller's to Close.
func Dial(ctx context.Context, addr string, req *wire.Request) (*Link, *wire.Response, error) {
	return dial(ctx, addr, Budgets(), req)
}

// dial is Dial on the budgets tm, which the link keeps.
func dial(ctx context.Context, addr string, tm Timeouts, req *wire.Request) (*Link, *wire.Response, error) {
	d := net.Dialer{Timeout: tm.Connect}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if cause := context.Cause(ctx); cause != nil {
			err = cause
		}
		return nil, nil, err
	}
	l := NewLink(ctx, conn, bufio.NewReader(conn), bufio.NewWriter(conn))
	l.tm = tm
	resp, err := l.handshake(req)
	if err = l.causeOr(err); err != nil {
		l.Close()
		return nil, nil, err
	}
	return l, resp, nil
}

func (l *Link) handshake(req *wire.Request) (*wire.Response, error) {
	out, err := wire.AppendRequestFrame(nil, req)
	if err != nil {
		return nil, err
	}
	if err := l.arm(l.conn.SetDeadline, l.tm.Connect); err != nil {
		return nil, err
	}
	if _, err := l.bw.Write(out); err != nil {
		return nil, err
	}
	if err := l.bw.Flush(); err != nil {
		return nil, err
	}
	payload, err := wire.ReadFrameBuf(l.br, nil)
	if err != nil {
		return nil, err
	}
	resp := new(wire.Response)
	if err := wire.DecodeResponseInto(resp, payload, req.Op, nil); err != nil {
		return nil, err
	}
	return resp, resp.Err()
}

// Redial keeps a client's link up until ctx ends: it runs once — one
// whole link lifetime, dial to death — then waits out the backoff delay
// and runs it again. The delay grows with each consecutive failure and
// starts over after a lifetime that reached streaming (zero Backoff
// fields take the defaults). onDown, when non-nil, hears of each death
// and the delay that follows it; a lifetime that ends because ctx did
// is not reported. once dials under ctx, so the end of ctx also cuts
// the lifetime in flight.
func Redial(ctx context.Context, bo Backoff, once func() (streamed bool, err error), onDown func(err error, retryIn time.Duration)) {
	bo = bo.WithDefaults()
	attempt := 0
	for {
		streamed, err := once()
		if ctx.Err() != nil {
			return
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
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
	}
}
