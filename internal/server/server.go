// Package server implements polyserve: a TCP transactional key-value
// server whose request classes map onto the four transaction semantics
// of the polymorphic TM (see DefaultSemantics). It is the paper's
// start(p) made network-facing: point reads, range scans, writes, and
// admin operations from many concurrent connections become transactions
// of distinct semantics running over one shared memory, accepting
// schedules no monomorphic server could.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"polytm/internal/core"
	"polytm/internal/stm"
	"polytm/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// Shards is the engine stripe count (0 = GOMAXPROCS default),
	// per store shard. Distinct from StoreShards: Shards stripes one
	// engine's metadata locks; StoreShards partitions the keyspace.
	Shards int
	// StoreShards is the keyspace partition count of a store that
	// starts empty (0 or 1 = a single shard); a durable directory or a
	// primary's topology overrides it. Each store shard owns its own
	// engine, map, and — when durable — write-ahead log; see Store.
	StoreShards int
	// MaxConns bounds concurrently served connections (the handler
	// pool); excess accepted connections wait for a slot. 0 means 1024.
	MaxConns int
	// WatchBuffer bounds each watch session's event push buffer; a
	// session that overflows it is cut with EVENT-LOST rather than ever
	// blocking a commit. 0 means session.DefaultBuffer.
	WatchBuffer int
	// TTLReapEvery is the background TTL reaper cadence
	// (0 = DefaultReapEvery; negative disables the reaper — lazy expiry
	// still hides expired keys from reads).
	TTLReapEvery time.Duration
	// Logf, when non-nil, receives the server's diagnostics: its
	// connections', and its store's — recovery, checkpoints, reshards,
	// the TTL reaper.
	Logf func(format string, args ...any)
}

// Server is one polyserve instance.
type Server struct {
	cfg   Config
	store *Store
	slots chan struct{}

	// serveCtx parents every connection's request context; cancelServe
	// abandons all in-flight transactions at once (forced drain). The
	// per-connection child context is additionally cancelled when its
	// handler exits, so a disconnect stops that connection's work.
	serveCtx    context.Context
	cancelServe context.CancelFunc
	// links parents every watch session's link; Shutdown cancels it
	// first, which cuts them all.
	links    context.Context
	cutLinks context.CancelCauseFunc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool

	// replCfg is the replication setup EnableReplication was given; the
	// hub or follower it starts is held by the store.
	replCfg ReplConfig

	wg sync.WaitGroup
}

// New creates a server (not yet listening).
func New(cfg Config) *Server {
	mkTM := func() *core.TM { return core.New(core.Config{Shards: cfg.Shards}) }
	tms := make([]*core.TM, max(cfg.StoreShards, 1))
	for i := range tms {
		tms[i] = mkTM()
	}
	store := NewShardedStore(tms)
	store.mkTM = mkTM
	store.diag = cfg.Logf
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := &Server{
		cfg:         cfg,
		store:       store,
		slots:       make(chan struct{}, cfg.MaxConns),
		serveCtx:    ctx,
		cancelServe: cancel,
		conns:       make(map[net.Conn]struct{}),
	}
	srv.links, srv.cutLinks = context.WithCancelCause(context.Background())
	srv.store.StartTTLReaper(cfg.TTLReapEvery)
	return srv
}

// TM returns the first shard's transactional memory (stats, tests;
// see Stats for the all-shards aggregate).
func (s *Server) TM() *core.TM { return s.store.TM() }

// Stats sums the engine counters of every shard the store has served
// with (see Store.Stats).
func (s *Server) Stats() stm.StatsSnapshot { return s.store.Stats() }

// Store returns the server's keyspace.
func (s *Server) Store() *Store { return s.store }

// Addr returns the bound listener address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// logf emits a diagnostic when configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ErrServerClosed is returned by Serve after a Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections on ln until Shutdown. Each connection is
// handled by one goroutine from the bounded handler pool.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.shutdown
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		// Claim a handler-pool slot (bounds live goroutines and engine
		// pressure under accept floods).
		select {
		case s.slots <- struct{}{}:
		default:
			s.logf("polyserve: handler pool full, connection from %v waits", c.RemoteAddr())
			s.slots <- struct{}{}
		}

		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			<-s.slots
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go s.handle(c)
	}
}

// handle runs one connection's request loop: read frame, execute, stage
// the response, flushing whenever the pipeline drains or the staged
// replies outgrow stageLimit, so pipelined requests batch their replies
// — and, through the connection's gate, their acknowledgement waits: a
// durable write's handler moves on to the next pipelined request at once
// and the flush is what waits (see connGate). Nothing is written to the
// socket anywhere else while the loop runs.
//
// The loop owns one payload buffer, one decoded Request, one Response
// and the staging buffer, all reused for every request on the connection
// — steady-state request handling performs no per-frame allocation at
// this layer. The reuse is safe because the pipeline is strictly
// sequential: a request is fully executed and its response fully encoded
// before the next frame is read over the payload storage. A frame or
// reply over keepBuf gives all of it back after the flush that follows,
// so one huge value does not pin its size to an idle connection.
func (s *Server) handle(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		<-s.slots
		s.wg.Done()
	}()

	// The connection's request context: every transaction this handler
	// runs is bounded by it. It is cancelled when the handler exits
	// (disconnects are observed at the next read or write — the
	// handler is the one goroutine driving the pipeline, so a
	// mid-transaction disconnect is noticed once that request's
	// response fails to write) and by the server's forced drain
	// (serveCtx), which is what releases a transaction parked in a
	// retry loop or a lock wait.
	ctx, cancel := context.WithCancel(s.serveCtx)
	defer cancel()

	br := bufio.NewReader(c)
	g := &connGate{Context: ctx}
	var (
		payload []byte        // reusable frame payload storage
		req     wire.Request  // reusable decoded request
		resp    wire.Response // reusable response
		big     bool          // a frame or the stage since the last flush outgrew keepBuf
	)
	for {
		var err error
		payload, err = wire.ReadFrameBuf(br, payload)
		if err != nil {
			// Responses already executed (and committed) must reach the
			// client even when the read that follows them fails — e.g. a
			// shutdown deadline landing on a partially received frame.
			g.flush(c)
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// The stream cannot be resynchronized past an oversize
				// length prefix, so the connection must end — but the
				// client still gets one typed refusal before the cut.
				errInto(&resp, &wire.ProtocolError{Code: wire.ProtoOversize, Detail: err.Error()})
				if fr, e := wire.AppendResponseFrame(nil, wire.OpGet, &resp); e == nil {
					c.Write(fr)
				}
				s.logf("polyserve: %v: read: %v", c.RemoteAddr(), err)
				return
			}
			// EOF and shutdown-induced deadlines end the connection
			// silently; anything else is worth a diagnostic.
			if !isExpectedClose(err) {
				s.logf("polyserve: %v: read: %v", c.RemoteAddr(), err)
			}
			return
		}
		op := wire.OpGet
		g.reply = len(g.stage)
		switch err := wire.DecodeRequestInto(&req, payload); {
		case err != nil:
			// A malformed frame still gets a 1:1 typed reply: the framing
			// survived, so the pipeline stays aligned and the connection
			// lives on. Unknown opcodes get their own code so clients can
			// tell "server too old" from "I sent garbage".
			code := wire.ProtoMalformed
			if errors.Is(err, wire.ErrBadOp) {
				code = wire.ProtoUnknownOp
			}
			errInto(&resp, &wire.ProtocolError{Code: code, Detail: err.Error()})
		case req.Op == wire.OpWatch:
			// WATCH takes the connection over, once the replies still owed
			// are out (and their gates closed): the OK response carries the
			// first watch id, then the session's writer goroutine pushes
			// EVENT frames until either side cuts (see session.go).
			if g.flush(c) == nil {
				s.serveWatch(c, br, bufio.NewWriter(c), &req)
			}
			return
		case req.Op == wire.OpSubscribeWAL:
			// A replication subscribe takes the connection over the same
			// way: the hub answers the handshake, then streams frames until
			// either side drops. With no hub, fall through to the execution
			// path's typed refusal like any other request.
			if h := s.Hub(); h != nil {
				if g.flush(c) == nil {
					s.serveSubscribe(c, br, bufio.NewWriter(c), h)
				}
				return
			}
			fallthrough
		default:
			op = req.Op
			s.store.ExecuteCtx(g, &req, &resp)
		}
		g.stage, err = wire.AppendResponseFrame(g.stage, op, &resp)
		if err != nil {
			errInto(&resp, err)
			g.stage, _ = wire.AppendResponseFrame(g.stage, op, &resp)
		}
		big = big || len(payload) > keepBuf || cap(g.stage) > keepBuf
		// Flush before the next read would block: everything the client
		// pipelined is answered in one burst.
		if br.Buffered() == 0 || len(g.stage) >= stageLimit {
			if err := g.flush(c); err != nil {
				if !isExpectedClose(err) {
					s.logf("polyserve: %v: write: %v", c.RemoteAddr(), err)
				}
				return
			}
			if big {
				payload, req, resp, g.stage, big = nil, wire.Request{}, wire.Response{}, nil, false
			}
		}
	}
}

// keepBuf is the most a connection's reusable buffers may have been asked
// to hold and still be kept across a flush.
const keepBuf = 64 << 10

// isExpectedClose reports whether err is a normal connection-end: EOF,
// a closed socket, the read deadline Shutdown uses to unblock handlers
// or the cause it cuts watch sessions with.
func isExpectedClose(err error) bool {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrServerClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Shutdown stops accepting, unblocks idle connection handlers, and
// waits for in-flight requests to finish. If ctx expires first, the
// serving context is cancelled — every in-flight transaction aborts
// cleanly at its next cancellation point (its writes are discarded, so
// nothing is ever half-committed) — and the remaining connections are
// force-closed. During the graceful phase in-flight requests complete
// their response before their handler observes the shutdown; the
// engine's irrevocable transactions are never abandoned midway in
// either phase (a begun irrevocable transaction ignores cancellation
// by contract).
func (s *Server) Shutdown(ctx context.Context) error {
	// Replication first: feeds and links hold connections open in
	// handler goroutines; closing the hub/link lets them drain with the
	// rest. The TTL reaper stops too — draining requests stay correct
	// without it (lazy expiry), and a reap mid-teardown has no one left
	// to tell.
	s.closeReplication()
	s.store.StopTTLReaper()
	// A watch session re-arms its read deadline frame by frame, so it is
	// cut through its link, whose context ends here.
	s.cutLinks(ErrServerClosed)
	s.mu.Lock()
	s.shutdown = true
	if s.ln != nil {
		s.ln.Close()
	}
	// A read deadline in the past makes every handler's next blocking
	// read return a timeout; handlers finish the request they are on,
	// flush, and exit.
	for c := range s.conns {
		c.SetReadDeadline(time.Now().Add(-time.Second))
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Forced drain: abandon in-flight transactions through the
		// context plumbing FIRST (they abort between attempts and wake
		// from backoff/Retry waits), then cut the sockets.
		s.cancelServe()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return fmt.Errorf("server: shutdown forced: %w", ctx.Err())
	}
}
