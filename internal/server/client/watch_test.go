package client_test

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"polytm/internal/repl"
	"polytm/internal/server"
	"polytm/internal/server/client"
)

// recListener remembers what it accepted, so a test can cut a session
// from the server's side of the socket.
type recListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *recListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *recListener) conn(i int) net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[i]
}

// startServer serves a fresh volatile store on addr ("127.0.0.1:0" for
// any port) until the returned stop function is called.
func startServer(t *testing.T, addr string) (*server.Server, *recListener, func()) {
	t.Helper()
	var ln net.Listener
	var err error
	// Re-binding the port a just-stopped server held can race its last
	// sockets' teardown.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if ln, err = net.Listen("tcp", addr); err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	rl := &recListener{Listener: ln}
	srv := server.New(server.Config{Shards: 1, TTLReapEvery: -1})
	go srv.Serve(rl)
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown with a live watch session needed force: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return srv, rl, stop
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// nextEvent waits for one event; the watcher must not end meanwhile.
func nextEvent(t *testing.T, w *client.Watcher) client.WatchEvent {
	t.Helper()
	select {
	case ev, ok := <-w.Events():
		if !ok {
			t.Fatalf("Events closed while the watcher should be reconnecting: %v", w.Err())
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("no event within 5s")
	}
	panic("unreachable")
}

// TestWatcherReconnectResubscribes: a watcher whose session is cut —
// the server drops the connection, or the whole server is replaced on
// the same address — redials, resubscribes exactly the watches it holds
// at that moment, and keeps delivering on the same Events channel.
func TestWatcherReconnectResubscribes(t *testing.T) {
	srv, ln, stopFirst := startServer(t, "127.0.0.1:0")
	addr := ln.Addr().String()

	w, err := client.Watch(addr, []byte("a:"), true,
		client.WithTestBackoff(repl.Backoff{Min: 2 * time.Millisecond, Max: 20 * time.Millisecond}))
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer w.Close()
	sessionConn := ln.conn(0) // the watcher's dial is the first this server saw

	// Writes go over a connection of their own, redialed when the
	// server is replaced.
	dial := func() *client.Client {
		t.Helper()
		cl, err := client.Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	cl := dial()
	set := func(key string) {
		t.Helper()
		if err := cl.Set([]byte(key), []byte("v")); err != nil {
			t.Fatalf("set %s: %v", key, err)
		}
	}

	// Two more watches by Add, one of them dropped again: the set to
	// resubscribe is {a:, b:}.
	for _, p := range []string{"b:", "gone:"} {
		if err := w.Add([]byte(p), true); err != nil {
			t.Fatalf("Add %s: %v", p, err)
		}
	}
	waitCond(t, "three watches registered", func() bool { return srv.Store().Sessions().ActiveWatches() == 3 })
	set("gone:0")
	goneID := nextEvent(t, w).WatchID
	if err := w.Unwatch(goneID); err != nil {
		t.Fatalf("Unwatch: %v", err)
	}
	waitCond(t, "the unwatch to land", func() bool { return srv.Store().Sessions().ActiveWatches() == 2 })

	// settle writes probe keys until the CURRENT session delivers one
	// under each prefix (the old session's socket is gone, so any event
	// is the new session's), then a fence; everything up to the fence is
	// discarded.
	settle := func(fence string) {
		t.Helper()
		seen := map[string]bool{}
		for deadline := time.Now().Add(5 * time.Second); !(seen["a:"] && seen["b:"]); {
			if time.Now().After(deadline) {
				t.Fatalf("watcher never resubscribed both prefixes (saw %v); Err = %v", seen, w.Err())
			}
			set("a:probe")
			set("b:probe")
			idle := time.After(20 * time.Millisecond)
		drain:
			for {
				select {
				case ev, ok := <-w.Events():
					if !ok {
						t.Fatalf("Events closed during reconnect: %v", w.Err())
					}
					seen[ev.Key[:2]] = true
				case <-idle:
					break drain
				}
			}
		}
		set(fence)
		for nextEvent(t, w).Key != fence {
		}
	}
	// after checks that events committed after the resubscribe arrive
	// exactly once, in commit order, and that the dropped watch stayed
	// dropped.
	after := func(s *server.Server) {
		t.Helper()
		keys := []string{"a:1", "b:1", "gone:1", "a:2", "b:2"}
		for _, k := range keys {
			set(k)
		}
		var lastSeq uint64
		for _, want := range []string{"a:1", "b:1", "a:2", "b:2"} {
			ev := nextEvent(t, w)
			if ev.Key != want {
				t.Fatalf("event for %q, want %q", ev.Key, want)
			}
			if ev.Seq <= lastSeq {
				t.Fatalf("event %q seq %d does not increase past %d", ev.Key, ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
		}
		waitCond(t, "exactly the current watch set on one session", func() bool {
			return s.Store().Sessions().Sessions() == 1 && s.Store().Sessions().ActiveWatches() == 2
		})
		if err := w.Err(); err != nil {
			t.Fatalf("Err = %v on a live watcher", err)
		}
	}

	// Cut 1: the server side of the session's socket closes.
	sessionConn.Close()
	settle("a:fence1")
	after(srv)

	// Cut 2: the server goes away and a new one takes its address.
	stopFirst()
	srv2, _, _ := startServer(t, addr)
	cl = dial()
	settle("a:fence2")
	after(srv2)

	w.Close()
	for range w.Events() {
	}
	if err := w.Err(); err != nil {
		t.Fatalf("Err after Close = %v, want nil", err)
	}
	waitCond(t, "the closed watcher's session to end", func() bool { return srv2.Store().Sessions().Sessions() == 0 })
}

// holdProxy is a TCP relay in front of a server that can be taken down
// (every relayed connection closed, new ones dropped at once) and can
// hold back the server's bytes until released.
type holdProxy struct {
	ln      net.Listener
	backend string

	mu      sync.Mutex
	down    bool
	release chan struct{} // non-nil: server→client bytes wait for its close
	pairs   []net.Conn
}

func startHoldProxy(t *testing.T, backend string) *holdProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &holdProxy{ln: ln, backend: backend}
	t.Cleanup(func() { ln.Close(); p.setDown(true) })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go p.relay(c)
		}
	}()
	return p
}

func (p *holdProxy) relay(c net.Conn) {
	p.mu.Lock()
	down, release := p.down, p.release
	p.mu.Unlock()
	if down {
		c.Close()
		return
	}
	b, err := net.Dial("tcp", p.backend)
	if err != nil {
		c.Close()
		return
	}
	p.mu.Lock()
	p.pairs = append(p.pairs, c, b)
	p.mu.Unlock()
	go func() {
		io.Copy(b, c)
		b.Close()
	}()
	if release != nil {
		<-release
	}
	io.Copy(c, b)
	c.Close()
}

func (p *holdProxy) setDown(down bool) {
	p.mu.Lock()
	p.down = down
	pairs := p.pairs
	if down {
		p.pairs = nil
	}
	p.mu.Unlock()
	if down {
		for _, c := range pairs {
			c.Close()
		}
	}
}

// hold makes connections relayed from now on keep the server's bytes
// back until the returned function is called.
func (p *holdProxy) hold() (release func()) {
	ch := make(chan struct{})
	p.mu.Lock()
	p.release = ch
	p.mu.Unlock()
	return func() { close(ch) }
}

// TestWatcherCloseDuringRedial: Close on a watcher that is in the
// middle of a redial handshake must not leave the fresh connection
// behind. The proxy holds the server's WATCH response while Close runs:
// the server has already opened the session, and only the watcher
// closing the socket it was dialing can end it before the server's idle
// budget (23 s at the defaults here) does.
func TestWatcherCloseDuringRedial(t *testing.T) {
	srv, ln, _ := startServer(t, "127.0.0.1:0")
	proxy := startHoldProxy(t, ln.Addr().String())
	sessions := srv.Store().Sessions().Sessions

	w, err := client.Watch(proxy.ln.Addr().String(), []byte("k:"), true,
		client.WithTestBackoff(repl.Backoff{Min: 2 * time.Millisecond, Max: 10 * time.Millisecond}))
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer w.Close()
	waitCond(t, "the first session", func() bool { return sessions() == 1 })

	// Down: the session dies and no redial can reach the server.
	proxy.setDown(true)
	waitCond(t, "the first session to end", func() bool { return sessions() == 0 })

	// Up again, but the server's answers are held: the watcher's redial
	// gets as far as the server opening a session, and waits.
	release := proxy.hold()
	proxy.setDown(false)
	waitCond(t, "the redialed session to open on the server", func() bool { return sessions() == 1 })

	w.Close()
	release()

	for deadline := time.Now().Add(3 * time.Second); sessions() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the connection dialed while Close ran is still open: its session outlives the watcher")
		}
	}
	select {
	case _, ok := <-w.Events():
		if ok {
			t.Fatal("event on a closed watcher")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Events did not close after Close")
	}
	if err := w.Err(); err != nil {
		t.Fatalf("Err after Close = %v, want nil", err)
	}
}
