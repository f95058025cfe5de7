// Package client is the polyserve wire client: a connection-pooled,
// pipelining KV client used by tests, the load generator, and example
// programs. Every convenience method accepts the server's per-opcode
// semantics mapping; the generic Do path takes explicit wire.Requests
// for per-request semantics overrides (the start(p) byte on the wire).
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"polytm/internal/wire"
)

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("client: closed")

// Option configures Dial.
type Option func(*Client)

// WithPoolSize caps the connection pool (default 4). Connections are
// dialed lazily up to the cap; concurrent callers beyond it wait.
func WithPoolSize(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.size = n
		}
	}
}

// WithDialTimeout bounds each connection dial (default 5s).
func WithDialTimeout(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.dialTimeout = d
		}
	}
}

// conn is one pooled connection with its buffered endpoints.
type conn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// Client is a pooled polyserve client. It is safe for concurrent use;
// each request batch holds one pooled connection for its duration.
type Client struct {
	ops         // the typed operations, over roundTrip
	addr        string
	size        int
	dialTimeout time.Duration

	mu     sync.Mutex
	closed bool
	idle   []*conn
	live   int // dialed connections (idle + in use)
	waitCh chan struct{}
}

// Dial creates a client for the server at addr. The first connection is
// dialed eagerly so misconfiguration fails fast.
func Dial(addr string, opts ...Option) (*Client, error) {
	cl := &Client{addr: addr, size: 4, dialTimeout: 5 * time.Second, waitCh: make(chan struct{}, 1)}
	cl.send = cl.roundTrip
	for _, o := range opts {
		o(cl)
	}
	first, err := cl.dial()
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	cl.live = 1
	cl.idle = append(cl.idle, first)
	cl.mu.Unlock()
	return cl, nil
}

func (cl *Client) dial() (*conn, error) {
	c, err := net.DialTimeout("tcp", cl.addr, cl.dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &conn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, nil
}

// acquire takes an idle connection, dials a new one under the cap, or
// waits for a release; the wait (and a fresh dial) honours ctx.
func (cl *Client) acquire(ctx context.Context) (*conn, error) {
	for {
		cl.mu.Lock()
		if cl.closed {
			cl.mu.Unlock()
			return nil, ErrClosed
		}
		if n := len(cl.idle); n > 0 {
			cn := cl.idle[n-1]
			cl.idle = cl.idle[:n-1]
			cl.mu.Unlock()
			return cn, nil
		}
		if cl.live < cl.size {
			cl.live++
			cl.mu.Unlock()
			cn, err := cl.dial()
			if err != nil {
				cl.mu.Lock()
				cl.live--
				cl.mu.Unlock()
				return nil, err
			}
			return cn, nil
		}
		cl.mu.Unlock()
		select {
		case <-cl.waitCh:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// release returns a healthy connection to the pool.
func (cl *Client) release(cn *conn) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		cn.c.Close()
		return
	}
	cl.idle = append(cl.idle, cn)
	cl.mu.Unlock()
	cl.signal()
}

// discard drops a broken connection.
func (cl *Client) discard(cn *conn) {
	cn.c.Close()
	cl.mu.Lock()
	cl.live--
	cl.mu.Unlock()
	cl.signal()
}

func (cl *Client) signal() {
	select {
	case cl.waitCh <- struct{}{}:
	default:
	}
}

// Close closes the client and all idle connections. In-flight requests
// finish; their connections close on release.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	idle := cl.idle
	cl.idle = nil
	cl.mu.Unlock()
	for _, cn := range idle {
		cn.c.Close()
	}
	cl.signal()
	return nil
}

// encBufs pools batch-encoding buffers across Do calls: a batch's
// frames (length prefixes included) are appended into one buffer and
// written with a single Write, so the encode path allocates nothing in
// steady state.
var encBufs = sync.Pool{New: func() any { return new([]byte) }}

// reply is the storage a single-request batch's result is carved from:
// the slice Do returns, the Response it points at, the sub-opcode
// scratch a TXN reply is decoded against and the frame the Response
// aliases — one allocation where the four used to be separate.
type reply struct {
	ptr    [1]*wire.Response
	resp   [1]wire.Response
	subOps [4]wire.Op
	frame  [replyInline]byte
}

// replyInline sizes reply.frame so the struct fills a malloc class with
// no padding: 8 + 144 + 4 + 164 = 320. A GET of a 64-byte value used to
// be a 160-byte reply plus its 67-byte frame in an 80-byte object; it is
// one 320-byte object now, as is every write's ack. A longer frame is
// allocated on its own.
const replyInline = 164

// pipeChunk caps the chunks a pipelined batch's frames are bumped off
// (wire.ReadFrameBump sizes each from the frame that opens it and the
// frames still to come): a 64-deep pipeline of one-byte write acks reads
// into one 64-byte chunk instead of making 64 payloads, 64 GETs of a
// 64-byte value into two. A chunk is never reused — the Responses alias
// it.
const pipeChunk = 4 << 10

// batchReply is the reply of a single TXN or MGET of at most four
// sub-requests (the ledger's shapes): a reply whose decoded Batch lives
// beside the Response that holds it. An object with pointers over 512
// bytes carries the allocator's 8-byte header, so the inline frame is
// eight bytes shorter than reply's and 312 + 4·144 + 8 = 896 fills a
// malloc class again (the ledger's MGET2 and TXN4 frames are under 140
// bytes). A longer batch keeps the plain reply and the decoder allocates
// its Batch.
type batchReply struct {
	ptr    [1]*wire.Response
	resp   [1]wire.Response
	subOps [4]wire.Op
	frame  [replyInline - 8]byte
	batch  [4]wire.Response
}

// subCount is how many sub-responses r's reply carries.
func subCount(r *wire.Request) int {
	switch r.Op {
	case wire.OpTxn:
		return len(r.Batch)
	case wire.OpMGet:
		return len(r.Keys)
	}
	return 0
}

// newReply returns the result slice, the Response values its entries
// will point at (each Batch holding the capacity its sub-responses are
// decoded into), an empty sub-opcode scratch and the storage the first
// frame is read into, for the replies to reqs. A batch of one (every
// convenience method) is one allocation; a pipelined batch is two, one
// arena for every request's sub-responses — three-index slices, so no
// reply can grow into its neighbour — and its chunks, whatever its
// length. The scratch is shared by the batch's TXNs and grows only past
// its inline capacity.
func newReply(reqs []*wire.Request) ([]*wire.Response, []wire.Response, []wire.Op, []byte) {
	if len(reqs) == 1 {
		if n := subCount(reqs[0]); n > 0 && n <= len(batchReply{}.batch) {
			rp := new(batchReply)
			rp.resp[0].Batch = rp.batch[:0]
			return rp.ptr[:], rp.resp[:], rp.subOps[:0], rp.frame[:]
		}
		rp := new(reply)
		return rp.ptr[:], rp.resp[:], rp.subOps[:0], rp.frame[:]
	}
	resps := make([]wire.Response, len(reqs))
	subs := 0
	for _, r := range reqs {
		subs += subCount(r)
	}
	if subs > 0 {
		arena := make([]wire.Response, subs)
		for i, r := range reqs {
			n := subCount(r)
			resps[i].Batch, arena = arena[:0:n], arena[n:]
		}
	}
	return make([]*wire.Response, len(reqs)), resps, nil, nil
}

// Do sends reqs pipelined over one pooled connection — all frames
// written back-to-back, then all responses read in order — and returns
// one response per request. A transport error poisons the connection
// (it is discarded, not pooled) and is returned; wire-level failures
// arrive as StatusErr responses instead. Pipelined durable writes share
// a group commit: the server runs the whole batch and waits for its
// records (fsyncs, follower acks) once, before the first reply leaves,
// so every reply still means durable.
func (cl *Client) Do(reqs ...*wire.Request) ([]*wire.Response, error) {
	return cl.DoCtx(context.Background(), reqs...)
}

// DoCtx is Do bounded by ctx: a context deadline becomes the wire
// timeout (the pooled connection's read/write deadline for this batch),
// so a caller's request budget propagates to the socket; cancellation
// is honoured while waiting for a free pooled connection AND while
// blocked on the socket (a context.AfterFunc yanks the connection's
// deadline to now, unblocking the read/write immediately). A batch
// that is cancelled or times out poisons its connection — the server
// may still be executing the abandoned requests, so the connection's
// stream can no longer be trusted — and returns the transport error
// (matching os.ErrDeadlineExceeded / net.Error timeout).
func (cl *Client) DoCtx(ctx context.Context, reqs ...*wire.Request) ([]*wire.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Encode every frame BEFORE touching the connection: an encoding
	// error must not leave a half-written batch in a pooled writer (the
	// next caller would flush it and read misaligned responses).
	bufp := encBufs.Get().(*[]byte)
	buf := (*bufp)[:0]
	for _, r := range reqs {
		var err error
		if buf, err = wire.AppendRequestFrame(buf, r); err != nil {
			*bufp = buf
			encBufs.Put(bufp)
			return nil, err
		}
	}
	cn, err := cl.acquire(ctx)
	if err != nil {
		*bufp = buf
		encBufs.Put(bufp)
		return nil, err
	}
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		if err := cn.c.SetDeadline(deadline); err != nil {
			*bufp = buf
			encBufs.Put(bufp)
			cl.discard(cn)
			return nil, err
		}
	}
	// Cancellation while blocked on the socket: the AfterFunc fires on
	// ctx.Done and forces an immediate I/O deadline. stopCancel's
	// return value disambiguates the race at completion — false means
	// the callback ran (or is running), so the connection must be
	// treated as poisoned even if the batch happened to finish.
	var stopCancel func() bool
	if ctx.Done() != nil {
		stopCancel = context.AfterFunc(ctx, func() {
			cn.c.SetDeadline(time.Now())
		})
	}
	finish := func() bool { // true = connection still trustworthy
		if stopCancel == nil {
			return true
		}
		return stopCancel()
	}
	_, werr := cn.bw.Write(buf)
	if werr == nil {
		werr = cn.bw.Flush()
	}
	*bufp = buf
	encBufs.Put(bufp)
	if werr != nil {
		finish()
		cl.discard(cn)
		return nil, werr
	}
	// Response frames are bumped off storage the batch owns (never
	// pooled): the decoded Response aliases its frame and escapes to the
	// caller, so the storage must outlive this call.
	out, resps, subOps, free := newReply(reqs)
	for i, r := range reqs {
		raw, err := wire.ReadFrameBump(cn.br, &free, len(reqs)-i, pipeChunk)
		if err == nil {
			subOps = subOps[:0]
			if r.Op == wire.OpTxn {
				for j := range r.Batch {
					subOps = append(subOps, r.Batch[j].Op)
				}
			}
			err = wire.DecodeResponseInto(&resps[i], raw, r.Op, subOps)
		}
		// The decoder holds a TXN reply to its request's sub-op count; an
		// MGET reply is held to its key count here, or a short one would
		// panic whoever indexes Batch by key.
		if err == nil && r.Op == wire.OpMGet && resps[i].Status != wire.StatusErr && len(resps[i].Batch) != len(r.Keys) {
			err = fmt.Errorf("MGET has %d sub-responses, expected %d", len(resps[i].Batch), len(r.Keys))
		}
		if err != nil {
			finish()
			cl.discard(cn)
			return nil, fmt.Errorf("client: response %d/%d: %w", i+1, len(reqs), err)
		}
		out[i] = &resps[i]
	}
	if !finish() {
		// Cancellation raced the batch's completion: the responses are
		// whole, but the connection's deadline state is tainted.
		cl.discard(cn)
		return out, nil
	}
	if hasDeadline {
		// The batch completed inside its budget: clear the deadline so
		// the connection pools clean for deadline-less callers.
		if err := cn.c.SetDeadline(time.Time{}); err != nil {
			cl.discard(cn)
			return out, nil
		}
	}
	cl.release(cn)
	return out, nil
}

// roundTrip is the Client's transport: one request, one pooled round trip.
func (cl *Client) roundTrip(ctx context.Context, r *wire.Request) (*wire.Response, error) {
	rs, err := cl.DoCtx(ctx, r)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// ops is the typed vocabulary, written once over a transport: how one
// request reaches a server and its reply comes back. Client embeds it
// over a pooled round trip (DoCtx), ReplicaSet over its routing (see
// ReplicaSet.route), so the two expose the same operations because they
// run the same code.
type ops struct {
	send func(ctx context.Context, req *wire.Request) (*wire.Response, error)
}

// call sends req and decides its outcome, once for every operation: a
// transport failure and a StatusErr reply both come back as the error.
func (o ops) call(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	r, err := o.send(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// Get reads key (server default: snapshot semantics). ok reports
// whether the key exists.
func (o ops) Get(key []byte) (val []byte, ok bool, err error) {
	r, err := o.call(context.Background(), &wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: key})
	if err != nil {
		return nil, false, err
	}
	return r.Val, r.Status == wire.StatusOK, nil
}

// Set writes key (server default: def semantics).
func (o ops) Set(key, val []byte) error {
	return o.SetCtx(context.Background(), key, val)
}

// SetCtx is Set bounded by ctx (on a ReplicaSet the budget covers
// redirects and failover retries).
func (o ops) SetCtx(ctx context.Context, key, val []byte) error {
	_, err := o.call(ctx, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: key, Val: val})
	return err
}

// CAS atomically replaces key's value with new if it currently equals
// old. swapped reports success; on mismatch, current carries the value
// found. A missing key reports swapped=false with found=false.
func (o ops) CAS(key, old, new []byte) (swapped, found bool, current []byte, err error) {
	r, err := o.call(context.Background(), &wire.Request{Op: wire.OpCAS, Sem: wire.SemDefault, Key: key, Old: old, Val: new})
	if err != nil {
		return false, false, nil, err
	}
	switch r.Status {
	case wire.StatusOK:
		return true, true, nil, nil
	case wire.StatusCASMismatch:
		return false, true, r.Val, nil
	default: // StatusNotFound
		return false, false, nil, nil
	}
}

// Del removes key, reporting whether it existed.
func (o ops) Del(key []byte) (bool, error) {
	r, err := o.call(context.Background(), &wire.Request{Op: wire.OpDel, Sem: wire.SemDefault, Key: key})
	if err != nil {
		return false, err
	}
	return r.Status == wire.StatusOK, nil
}

// Scan walks [from, to) in key order (server default: weak/elastic
// semantics). An empty `to` scans to the end; limit 0 is unbounded.
func (o ops) Scan(from, to []byte, limit uint64) ([]wire.KV, error) {
	r, err := o.call(context.Background(), &wire.Request{Op: wire.OpScan, Sem: wire.SemDefault, From: from, To: to, Limit: limit})
	if err != nil {
		return nil, err
	}
	return r.Pairs, nil
}

// MGet reads many keys in one transaction (server default: snapshot
// semantics). vals[i] is nil when found[i] is false.
func (o ops) MGet(keys ...[]byte) (vals [][]byte, found []bool, err error) {
	r, err := o.call(context.Background(), &wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: keys})
	if err != nil {
		return nil, nil, err
	}
	vals = make([][]byte, len(r.Batch))
	found = make([]bool, len(r.Batch))
	for i := range r.Batch {
		if r.Batch[i].Status == wire.StatusOK {
			vals[i] = r.Batch[i].Val
			found[i] = true
		}
	}
	return vals, found, nil
}

// Txn runs sub (GET/SET/CAS/DEL requests) as ONE transaction and
// returns the per-operation responses.
func (o ops) Txn(sub ...wire.Request) ([]wire.Response, error) {
	r, err := o.call(context.Background(), &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: sub})
	if err != nil {
		return nil, err
	}
	return r.Batch, nil
}

// Incr atomically adds delta to the integer at key (missing keys start
// at 0; def semantics server-side, one round trip) and returns the new
// value. A non-integer value or int64 overflow is a StatusErr.
func (o ops) Incr(key []byte, delta uint64) (int64, error) {
	return o.counter(wire.OpIncr, key, delta)
}

// Decr is Incr with a negative delta.
func (o ops) Decr(key []byte, delta uint64) (int64, error) {
	return o.counter(wire.OpDecr, key, delta)
}

func (o ops) counter(op wire.Op, key []byte, delta uint64) (int64, error) {
	r, err := o.call(context.Background(), &wire.Request{Op: op, Sem: wire.SemDefault, Key: key, Delta: delta})
	if err != nil {
		return 0, err
	}
	return r.Int, nil
}

// SetEx writes key with a time-to-live. Once the TTL elapses the key
// reads as absent (lazy expiry) and is eventually deleted by the
// server's reaper. TTLs below one millisecond are an error server-side
// (the wire carries whole milliseconds).
func (o ops) SetEx(key, val []byte, ttl time.Duration) error {
	_, err := o.call(context.Background(), &wire.Request{Op: wire.OpSetEx, Sem: wire.SemDefault, Key: key, Val: val, TTLMillis: uint64(ttl / time.Millisecond)})
	return err
}

// Ping runs one liveness round trip (no transaction server-side).
func (o ops) Ping() error {
	return o.PingCtx(context.Background())
}

// PingCtx is Ping bounded by ctx.
func (o ops) PingCtx(ctx context.Context) error {
	_, err := o.call(ctx, &wire.Request{Op: wire.OpPing, Sem: wire.SemDefault})
	return err
}

// Stats fetches the engine counters as a name→value map (a
// ReplicaSet's come from its current primary).
func (o ops) Stats() (map[string]uint64, error) {
	r, err := o.call(context.Background(), &wire.Request{Op: wire.OpStats, Sem: wire.SemDefault})
	if err != nil {
		return nil, err
	}
	m := make(map[string]uint64, len(r.Counters))
	for _, c := range r.Counters {
		m[c.Name] = c.Value
	}
	return m, nil
}

// Flush removes every key (admin; irrevocable semantics), returning the
// removed count.
func (o ops) Flush() (uint64, error) {
	r, err := o.call(context.Background(), &wire.Request{Op: wire.OpFlush, Sem: wire.SemDefault})
	if err != nil {
		return 0, err
	}
	return r.N, nil
}

// RoutingEpoch fetches the server's current routing epoch (the STATS
// routing_epoch gauge; 0 until the first completed SPLIT/MERGE).
func (cl *Client) RoutingEpoch() (uint64, error) {
	m, err := cl.Stats()
	if err != nil {
		return 0, err
	}
	return m["routing_epoch"], nil
}

// Split asks the server to split the shard with stable id `shard`
// online (admin), returning the new routing epoch. The request carries
// the epoch the client observed; on a *wire.WrongEpochError rejection
// (someone else resharded in between) the client refreshes to the
// server's epoch and retries, a bounded number of times — each retry
// re-validates the shard against the topology it is actually splitting.
func (cl *Client) Split(shard uint64) (uint64, error) {
	return cl.reshard(&wire.Request{Op: wire.OpSplit, Sem: wire.SemDefault, Shard: shard})
}

// Merge asks the server to merge buddy shards a and b (stable ids,
// admin, either order) into the one holding the lower hash residue,
// returning the new routing epoch. Epoch contract as in Split.
func (cl *Client) Merge(a, b uint64) (uint64, error) {
	return cl.reshard(&wire.Request{Op: wire.OpMerge, Sem: wire.SemDefault, Shard: a, Shard2: b})
}

// reshard runs one SPLIT/MERGE with the observe-epoch / retry-on-stale
// loop.
func (cl *Client) reshard(req *wire.Request) (uint64, error) {
	epoch, err := cl.RoutingEpoch()
	if err != nil {
		return 0, err
	}
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		req.Epoch = epoch
		r, err := cl.call(context.Background(), req)
		if err == nil {
			return r.N, nil
		}
		var we *wire.WrongEpochError
		if !errors.As(err, &we) {
			return 0, err
		}
		epoch, lastErr = we.Want, err
	}
	return 0, lastErr
}

// Pipeline accumulates requests to send in one pipelined batch over one
// connection (see Do: its durable writes share one group commit). Not
// safe for concurrent use.
type Pipeline struct {
	cl   *Client
	reqs []*wire.Request
}

// Pipeline starts an empty pipeline.
func (cl *Client) Pipeline() *Pipeline { return &Pipeline{cl: cl} }

// Add queues an arbitrary request (the hook for per-request semantics
// overrides).
func (p *Pipeline) Add(r *wire.Request) *Pipeline { p.reqs = append(p.reqs, r); return p }

// Get queues a GET.
func (p *Pipeline) Get(key []byte) *Pipeline {
	return p.Add(&wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: key})
}

// Set queues a SET.
func (p *Pipeline) Set(key, val []byte) *Pipeline {
	return p.Add(&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: key, Val: val})
}

// Scan queues a SCAN.
func (p *Pipeline) Scan(from, to []byte, limit uint64) *Pipeline {
	return p.Add(&wire.Request{Op: wire.OpScan, Sem: wire.SemDefault, From: from, To: to, Limit: limit})
}

// Del queues a DEL.
func (p *Pipeline) Del(key []byte) *Pipeline {
	return p.Add(&wire.Request{Op: wire.OpDel, Sem: wire.SemDefault, Key: key})
}

// Len reports the queued request count.
func (p *Pipeline) Len() int { return len(p.reqs) }

// Exec sends the queued requests pipelined and returns their responses
// in order, resetting the pipeline.
func (p *Pipeline) Exec() ([]*wire.Response, error) {
	reqs := p.reqs
	p.reqs = nil
	return p.cl.Do(reqs...)
}
