package repl

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polytm/internal/wire"
)

// The link knows no vocabulary, so the tests speak a one-byte one.
const (
	fPing     = 'P' // the pusher's heartbeat
	fAnswer   = 'A' // the peer's answer to it
	fData     = 'D' // one drained push frame
	fBad      = 'B' // a frame the pusher's onFrame rejects
	fTerminal = 'X' // the pusher's last word
)

func frame(kinds ...byte) []byte {
	var out []byte
	for _, k := range kinds {
		out = binary.BigEndian.AppendUint32(out, 1)
		out = append(out, k)
	}
	return out
}

// Both budget sets heartbeat every 10ms. linkTimeouts gives a write 2s
// and a read 10ms + 2×2s, so on a loaded machine a late answer cannot
// cut a link a test expects to stay healthy. silentTimeouts gives a
// read 10 + 2×20 = 50ms: only the test that waits for a silent peer to
// be cut uses it.
var (
	linkTimeouts   = Timeouts{Connect: time.Second, Reply: 2 * time.Second, Idle: 10 * time.Millisecond}
	silentTimeouts = Timeouts{Connect: time.Second, Reply: 20 * time.Millisecond, Idle: 10 * time.Millisecond}
)

// pipeLink returns a Link with budgets tm over one end of a net.Pipe
// and the raw other end. net.Pipe is unbuffered: a Write returns only
// once the peer has read it, so "written" below always means "reached
// the peer".
func pipeLink(t *testing.T, tm Timeouts) (*Link, net.Conn) {
	t.Helper()
	return pipeLinkUnder(t, context.Background(), tm)
}

// pipeLinkUnder is pipeLink with the owner's context ctx.
func pipeLinkUnder(t *testing.T, ctx context.Context, tm Timeouts) (*Link, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	l := NewLink(ctx, a, bufio.NewReader(a), bufio.NewWriter(a))
	t.Cleanup(func() { l.Cut(ErrLinkClosed) })
	l.tm = tm
	return l, b
}

// peer is the far end of a served link: it records every frame kind it
// reads, answers pings when told to, and closes `closed` when the
// stream ends.
type peer struct {
	conn   net.Conn
	mu     sync.Mutex
	kinds  []byte
	closed chan struct{}
}

func startPeer(conn net.Conn, answerPings bool) *peer {
	p := &peer{conn: conn, closed: make(chan struct{})}
	go func() {
		defer close(p.closed)
		br := bufio.NewReader(conn)
		for {
			payload, err := wire.ReadFrameBuf(br, nil)
			if err != nil {
				return
			}
			p.mu.Lock()
			p.kinds = append(p.kinds, payload[0])
			p.mu.Unlock()
			if payload[0] == fPing && answerPings {
				if _, err := conn.Write(frame(fAnswer)); err != nil {
					return
				}
			}
		}
	}()
	return p
}

func (p *peer) count(kind byte) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, k := range p.kinds {
		if k == kind {
			n++
		}
	}
	return n
}

func (p *peer) seen() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.kinds)
}

var (
	errTestCut  = errors.New("test: cut from outside")
	errBadFrame = errors.New("test: protocol violation")
	errOverflow = errors.New("test: queue overflowed")
)

// TestLinkServe drives the duplex pump through every way a link ends.
func TestLinkServe(t *testing.T) {
	type rig struct {
		l    *Link
		p    *peer
		wake chan struct{}
		// terminal is what drain sends (once) when it finds it set.
		terminal atomic.Bool
	}
	rows := []struct {
		name        string
		answerPings bool
		// drain is the pusher's drain; nil sends nothing.
		drain func(r *rig) error
		// act runs beside Serve and makes the link end.
		act func(t *testing.T, r *rig)
		// wantErr is matched with errors.Is; wantTimeout asks for a
		// net.Error timeout instead, and runs the link on silentTimeouts.
		wantErr     error
		wantTimeout bool
		// wantTail is the suffix the peer must have read, in order.
		wantTail []byte
	}{
		{
			name:        "idle push half pings every Idle",
			answerPings: true,
			act: func(t *testing.T, r *rig) {
				waitFor(t, 5*time.Second, "three pings on a link with nothing to push", func() bool { return r.p.count(fPing) >= 3 })
				r.l.Cut(errTestCut)
			},
			wantErr: errTestCut,
		},
		{
			// An idle *timer* would never fire here: data goes out four
			// times per Idle. The peer only answers pings, so without them
			// the pusher's own read budget would cut a healthy link.
			name:        "busy push half still pings every Idle",
			answerPings: true,
			drain:       func(r *rig) error { return r.l.Write(frame(fData)) },
			act: func(t *testing.T, r *rig) {
				stop := make(chan struct{})
				defer close(stop)
				go func() {
					tick := time.NewTicker(linkTimeouts.Idle / 4)
					defer tick.Stop()
					for {
						select {
						case <-tick.C:
							select {
							case r.wake <- struct{}{}:
							default:
							}
						case <-stop:
							return
						}
					}
				}()
				waitFor(t, 5*time.Second, "three pings between data frames", func() bool {
					return r.p.count(fPing) >= 3 && r.p.count(fData) >= 12
				})
				if err := r.l.Cause(); err != nil {
					t.Errorf("busy link was cut: %v", err)
				}
				r.l.Cut(errTestCut)
			},
			wantErr: errTestCut,
		},
		{
			name:        "peer silent past the read budget",
			answerPings: false,
			act:         func(t *testing.T, r *rig) {},
			wantTimeout: true,
		},
		{
			// onFrame queues the terminal frame without waking anyone:
			// only the drain that follows the reader's end can deliver it.
			name:        "terminal frame queued by onFrame",
			answerPings: true,
			drain: func(r *rig) error {
				if r.terminal.CompareAndSwap(true, false) {
					return r.l.Write(frame(fTerminal))
				}
				return nil
			},
			act: func(t *testing.T, r *rig) {
				if _, err := r.p.conn.Write(frame(fBad)); err != nil {
					t.Errorf("peer write: %v", err)
				}
			},
			wantErr:  errBadFrame,
			wantTail: []byte{fTerminal},
		},
		{
			name:        "terminal frame written by an overflowing queue",
			answerPings: true,
			drain: func(r *rig) error {
				if err := r.l.Write(frame(fData, fData, fTerminal)); err != nil {
					return err
				}
				return errOverflow
			},
			act:      func(t *testing.T, r *rig) { r.wake <- struct{}{} },
			wantErr:  errOverflow,
			wantTail: []byte{fData, fData, fTerminal},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tm := linkTimeouts
			if row.wantTimeout {
				tm = silentTimeouts
			}
			l, far := pipeLink(t, tm)
			r := &rig{l: l, p: startPeer(far, row.answerPings), wake: make(chan struct{}, 1)}
			drain := func() error {
				if row.drain == nil {
					return nil
				}
				return row.drain(r)
			}
			onFrame := func(payload []byte) error {
				if payload[0] == fBad {
					r.terminal.Store(true)
					return errBadFrame
				}
				return nil
			}
			served := make(chan error, 1)
			go func() {
				served <- l.Serve(r.wake, frame(fPing), drain, func() error { return l.Recv(onFrame) })
			}()
			row.act(t, r)

			var err error
			select {
			case err = <-served:
			case <-time.After(5 * time.Second):
				t.Fatal("Serve did not return")
			}
			var ne net.Error
			switch {
			case row.wantTimeout && !(errors.As(err, &ne) && ne.Timeout()):
				t.Fatalf("Serve = %v, want a timeout", err)
			case row.wantErr != nil && !errors.Is(err, row.wantErr):
				t.Fatalf("Serve = %v, want %v", err, row.wantErr)
			}
			if cause := l.Cause(); cause != err {
				t.Fatalf("Cause = %v after Serve returned %v", cause, err)
			}
			// Everything Serve wrote reached the peer before it returned;
			// only now does the owner close the connection.
			far.Close()
			<-r.p.closed
			if got := r.p.seen(); len(got) < len(row.wantTail) || !slices.Equal(got[len(got)-len(row.wantTail):], row.wantTail) {
				t.Fatalf("peer read %q, want it to end with %q", got, row.wantTail)
			}
		})
	}
}

// TestLinkServeJoinsReader: Serve never returns while its reader
// goroutine is still inside onFrame.
func TestLinkServeJoinsReader(t *testing.T) {
	l, far := pipeLink(t, linkTimeouts)
	startPeer(far, false) // takes the pings off the unbuffered pipe
	entered, release := make(chan struct{}), make(chan struct{})
	var exited atomic.Bool
	onFrame := func([]byte) error {
		close(entered)
		<-release
		exited.Store(true)
		return nil
	}
	served := make(chan error, 1)
	go func() {
		served <- l.Serve(nil, frame(fPing), func() error { return nil }, func() error { return l.Recv(onFrame) })
	}()
	go far.Write(frame(fData))
	<-entered
	l.Cut(errTestCut)
	select {
	case err := <-served:
		t.Fatalf("Serve returned (%v) with its reader still running", err)
	case <-time.After(10 * linkTimeouts.Idle):
	}
	close(release)
	if err := <-served; !errors.Is(err, errTestCut) {
		t.Fatalf("Serve = %v, want %v", err, errTestCut)
	}
	if !exited.Load() {
		t.Fatal("Serve returned before its reader exited")
	}
}

// TestLinkCutIsALatch: the first cause sticks, and nothing starts on a
// cut link — while a read already blocked is woken with the cause. The
// cut comes from the link itself, from its owner's context being
// cancelled, or from an owner that had stopped before the link was
// made.
func TestLinkCutIsALatch(t *testing.T) {
	rows := []struct {
		name string
		// make builds the link; cut cuts it with errTestCut, then tries a
		// second cause, and returns what the link reports afterwards.
		make func(t *testing.T) (*Link, func() (first, second error))
		// blocks says a Read can be started before the cut.
		blocks bool
	}{
		{
			name: "Cut",
			make: func(t *testing.T) (*Link, func() (error, error)) {
				l, _ := pipeLink(t, linkTimeouts)
				return l, func() (error, error) {
					return l.Cut(errTestCut), l.Cut(errors.New("test: second cut"))
				}
			},
			blocks: true,
		},
		{
			name: "owner cancelled",
			make: func(t *testing.T) (*Link, func() (error, error)) {
				ctx, cancel := context.WithCancelCause(context.Background())
				l, _ := pipeLinkUnder(t, ctx, linkTimeouts)
				return l, func() (error, error) {
					cancel(errTestCut)
					return l.Cause(), l.Cut(errors.New("test: second cut"))
				}
			},
			blocks: true,
		},
		{
			name: "owner stopped before the link was made",
			make: func(t *testing.T) (*Link, func() (error, error)) {
				ctx, cancel := context.WithCancelCause(context.Background())
				cancel(errTestCut)
				l, _ := pipeLinkUnder(t, ctx, linkTimeouts)
				return l, func() (error, error) {
					return l.Cause(), l.Cut(errors.New("test: second cut"))
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			l, cut := row.make(t)
			blocked := make(chan error, 1)
			if row.blocks {
				go func() {
					_, err := l.Read(nil)
					blocked <- err
				}()
			}
			first, second := cut()
			if first != errTestCut {
				t.Fatalf("cause after the cut = %v", first)
			}
			if second != errTestCut {
				t.Fatalf("second Cut = %v, want the first cause", second)
			}
			if got := l.Cause(); got != errTestCut {
				t.Fatalf("Cause = %v", got)
			}
			// Nobody ever writes to or reads from the far end: each of these
			// would block for its whole budget if it touched the socket.
			start := time.Now()
			if row.blocks {
				if err := <-blocked; err != errTestCut {
					t.Fatalf("blocked Read = %v, want the cut's cause", err)
				}
			}
			if _, err := l.Read(nil); err != errTestCut {
				t.Fatalf("Read after Cut = %v", err)
			}
			if err := l.Write(frame(fData)); err != errTestCut {
				t.Fatalf("Write after Cut = %v", err)
			}
			if err := l.Recv(func([]byte) error { return nil }); err != errTestCut {
				t.Fatalf("Recv after Cut = %v", err)
			}
			if d := time.Since(start); d >= linkTimeouts.Reply {
				t.Fatalf("operations on a cut link took %v", d)
			}
		})
	}
}

// TestRedial: the delay doubles across consecutive failures, starts
// over only after a lifetime that streamed, and the end of its context
// ends the loop both while it waits and while a lifetime is in flight.
func TestRedial(t *testing.T) {
	bo := Backoff{Min: time.Millisecond, Max: 8 * time.Millisecond}
	ms := time.Millisecond

	t.Run("delay resets only after streaming", func(t *testing.T) {
		outcomes := []bool{false, false, false, true, false, false, true, true, false}
		want := []time.Duration{1 * ms, 2 * ms, 4 * ms, 1 * ms, 2 * ms, 4 * ms, 1 * ms, 1 * ms}
		ctx, stop := context.WithCancel(context.Background())
		var got []time.Duration
		calls := 0
		Redial(ctx, bo, func() (bool, error) {
			streamed := outcomes[calls]
			if calls++; calls == len(outcomes) {
				stop()
			}
			return streamed, errTestCut
		}, func(err error, retryIn time.Duration) {
			if err != errTestCut {
				t.Errorf("onDown err = %v", err)
			}
			got = append(got, retryIn)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("delays %v, want %v", got, want)
		}
	})

	t.Run("stop during a delay", func(t *testing.T) {
		ctx, stop := context.WithCancel(context.Background())
		down := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			Redial(ctx, Backoff{Min: time.Hour, Max: time.Hour}, func() (bool, error) { return false, errTestCut },
				func(error, time.Duration) { close(down) })
		}()
		<-down
		stop()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Redial sat out its delay after stop")
		}
	})

	t.Run("stop during a dial", func(t *testing.T) {
		// The lifetime's link descends from the context, so cancelling it
		// cuts the lifetime: it fails, and that failure must not be
		// reported or waited out.
		ctx, stop := context.WithCancel(context.Background())
		dialing := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			Redial(ctx, Backoff{Min: time.Hour, Max: time.Hour}, func() (bool, error) {
				close(dialing)
				<-ctx.Done()
				return false, ErrLinkClosed
			}, func(err error, _ time.Duration) { t.Errorf("onDown(%v) after stop", err) })
		}()
		<-dialing
		stop()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Redial kept going after stop")
		}
	})
}

// TestDialHandshake: Dial returns a link only for an OK response, and
// the whole exchange sits inside the Connect budget.
func TestDialHandshake(t *testing.T) {
	done := make(chan struct{}) // releases the server that never answers
	defer close(done)
	rows := []struct {
		name    string
		respond func(c net.Conn) // after reading the request
		wantErr string           // "" = success, "timeout" = a timeout, else a substring
	}{
		{name: "ok", respond: func(c net.Conn) {
			out, _ := wire.AppendResponseFrame(nil, wire.OpWatch, &wire.Response{Status: wire.StatusOK, N: 7})
			c.Write(out)
		}},
		{name: "refused", respond: func(c net.Conn) {
			out, _ := wire.AppendResponseFrame(nil, wire.OpWatch, &wire.Response{Status: wire.StatusErr, Msg: "no sessions here"})
			c.Write(out)
		}, wantErr: "no sessions here"},
		{name: "silent server", respond: func(c net.Conn) { <-done }, wantErr: "timeout"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				if _, err := wire.ReadFrameBuf(bufio.NewReader(c), nil); err != nil {
					return
				}
				row.respond(c)
			}()
			tm := Timeouts{Connect: 50 * time.Millisecond, Reply: 10 * time.Second, Idle: 10 * time.Second}
			l, resp, err := dial(context.Background(), ln.Addr().String(), tm, &wire.Request{Op: wire.OpWatch, Sem: wire.SemDefault, Key: []byte("k")})
			switch row.wantErr {
			case "":
				if err != nil {
					t.Fatalf("Dial: %v", err)
				}
				defer l.Close()
				if resp.N != 7 {
					t.Fatalf("response N = %d, want 7", resp.N)
				}
			case "timeout":
				var ne net.Error
				if !errors.As(err, &ne) || !ne.Timeout() {
					t.Fatalf("Dial = %v, want a timeout inside Connect", err)
				}
			default:
				if err == nil || !strings.Contains(err.Error(), row.wantErr) {
					t.Fatalf("Dial = %v, want an error containing %q", err, row.wantErr)
				}
			}
		})
	}
}
