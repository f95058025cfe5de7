package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"polytm/internal/wal"
	"polytm/internal/wire"
)

// PrimaryStore is what the Hub needs from the store it replicates: the
// per-shard logs to tap and each shard's catch-up state. polyserve's
// server.Store implements it.
type PrimaryStore interface {
	ShardWAL(i int) *wal.Log
	// Routing returns the store's routing epoch and per-shard topology
	// (stable id + hash slice, table order). A feed pins one epoch at
	// subscribe time and sends the topology to the follower; a reshard
	// cuts every feed (CutAll), forcing renegotiation on reconnect. The
	// stable ids are what sync-ack waits are keyed on.
	Routing() (uint64, []wire.ReplShardSlice)
	// Incarnation identifies one durable lifetime of the store. WAL
	// seqs restart on every process start, so a follower's applied
	// position is only meaningful against the incarnation that issued
	// it — delta catch-up is gated on the match.
	Incarnation() uint64
	// CatchUp streams, as operations, what brings a follower whose
	// applied position in shard is applied up to the shard's state. It
	// owns the delta-or-full decision: delta=true means the ops were the
	// churn since applied (SETs and DELs); otherwise they are a FLUSH
	// followed by a consistent snapshot's pairs as SETs — a partial delta
	// emitted before the store fell back comes before that FLUSH.
	// applied == 0 means "no position" and always gets a full catch-up.
	// The strings an op carries are valid only until emit returns.
	CatchUp(ctx context.Context, shard int, applied uint64, emit func(wal.Op) error) (delta bool, err error)
}

// maxFeedBuffer caps one follower's live-tail buffer in payload bytes.
// A follower that falls further behind than the buffer holds is cut off
// and re-runs full catch-up on reconnect — bounded memory beats an
// unbounded queue to a dead-slow peer.
const maxFeedBuffer = 64 << 20

// HubConfig parameterizes a Hub.
type HubConfig struct {
	// SyncAck makes WaitAcked meaningful: the server gates durable-write
	// acknowledgement on a follower ack covering the record.
	SyncAck bool
	// Logf, when non-nil, receives feed diagnostics.
	Logf func(format string, args ...any)
}

// Hub is the primary side of replication: it serves one feed per
// subscribed follower, tracks each follower's acked offsets, and (in
// sync mode) lets the write path wait for a follower ack.
type Hub struct {
	store   PrimaryStore
	tm      Timeouts // every feed's link budgets: Budgets()
	syncAck bool
	logf    func(string, ...any)

	mu     sync.Mutex
	feeds  map[*feed]struct{}
	nextID uint64
	// acked is the high-water of seqs acked by ANY follower, per stable
	// shard id of the current table (monotonic; a dying feed does not
	// lower it). A feed's ACKs address table positions; its pinned
	// topology maps them to ids.
	acked map[int]uint64
	ackCh chan struct{} // closed + replaced whenever acked advances or the feed set changes
	// ctx is what every feed's link descends from. CutAll cancels it and
	// installs a fresh one; Close cancels it for good, so a hub whose ctx
	// has ended is closed.
	ctx    context.Context
	cancel context.CancelCauseFunc

	shippedRecs   atomic.Uint64
	shippedBytes  atomic.Uint64
	deltaCatchups atomic.Uint64
}

// NewHub creates a hub over store.
func NewHub(store PrimaryStore, cfg HubConfig) *Hub {
	h := &Hub{
		store:   store,
		tm:      Budgets(),
		syncAck: cfg.SyncAck,
		logf:    cfg.Logf,
		feeds:   make(map[*feed]struct{}),
		ackCh:   make(chan struct{}),
	}
	h.ctx, h.cancel = context.WithCancelCause(context.Background())
	h.resetAcked()
	return h
}

// resetAcked starts a zero high-water for every shard id of the store's
// current table; h.mu must be held (or h unpublished).
func (h *Hub) resetAcked() {
	_, topo := h.store.Routing()
	h.acked = make(map[int]uint64, len(topo))
	for _, e := range topo {
		h.acked[int(e.ID)] = 0
	}
}

// shipRec is one live-tail record queued for a follower.
type shipRec struct {
	shard   int
	seq     uint64
	payload []byte
}

// feed is one follower's connection, a Link speaking the replication
// vocabulary: taps on every shard's log fill its bounded buffer; drain
// turns the buffer into WAL-BATCH frames (after the catch-up phase) and
// onFrame folds the follower's ACKs into the hub. The buffer counts
// payload bytes and overflow cuts the link — there is no frame to say
// "you fell behind"; the follower learns it by reconnecting into a full
// catch-up.
type feed struct {
	h    *Hub
	id   uint64
	link *Link

	// The routing view this feed was subscribed under; a reshard
	// invalidates it and cuts the feed.
	epoch uint64
	topo  []wire.ReplShardSlice

	wake chan struct{}
	out  []byte         // the writer's frame-encoding scratch
	in   wire.ReplFrame // the reader's decode scratch

	mu       sync.Mutex
	buf      []shipRec
	bufBytes int

	// Per-shard positions, all under mu: shipped bytes vs the
	// follower's acked offsets (from its ACK frames).
	shippedBytes []uint64
	ackSeq       []uint64
	ackBytes     []uint64
}

// ServeFeed runs one follower feed over a connection whose SUBSCRIBE-WAL
// request the server has just read. The OK answer, carrying the shard
// count of the table the feed pins, goes out through the link, under
// its reply budget like every later write. ServeFeed blocks until the
// feed ends — follower gone, hub closed or cut, or the follower fell
// too far behind — and always returns a non-nil reason.
//
// The link's parent is taken before the table is read: a reshard
// publishes its table before it calls CutAll, so a feed either pins the
// new table or is cut.
func (h *Hub) ServeFeed(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) error {
	h.mu.Lock()
	ctx := h.ctx
	h.mu.Unlock()
	epoch, topo := h.store.Routing()
	n := len(topo)
	f := &feed{
		h:            h,
		link:         NewLink(ctx, conn, br, bw),
		epoch:        epoch,
		topo:         topo,
		wake:         make(chan struct{}, 1),
		shippedBytes: make([]uint64, n),
		ackSeq:       make([]uint64, n),
		ackBytes:     make([]uint64, n),
	}
	f.link.tm = h.tm
	ok, err := wire.AppendResponseFrame(nil, wire.OpSubscribeWAL, &wire.Response{Status: wire.StatusOK, N: uint64(n)})
	if err == nil {
		err = f.link.Write(ok)
	}
	if err != nil {
		return f.link.Cut(err)
	}
	h.mu.Lock()
	f.id = h.nextID
	h.nextID++
	h.feeds[f] = struct{}{}
	h.mu.Unlock()

	err = f.run()

	h.mu.Lock()
	delete(h.feeds, f)
	// The feed set changed: sync-ack waiters must re-check whether any
	// follower remains to wait for.
	h.wakeWaiters()
	h.mu.Unlock()
	if h.logf != nil {
		h.logf("repl: follower %d (%v) gone: %v", f.id, conn.RemoteAddr(), err)
	}
	return err
}

var errHubClosed = errors.New("repl: hub closed")

// wakeWaiters releases every WaitAcked caller to re-check its
// condition; h.mu must be held.
func (h *Hub) wakeWaiters() {
	close(h.ackCh)
	h.ackCh = make(chan struct{})
}

// liveFeeds snapshots the feed set in subscription order; h.mu must be
// held.
func (h *Hub) liveFeeds() []*feed {
	feeds := make([]*feed, 0, len(h.feeds))
	for f := range h.feeds {
		feeds = append(feeds, f)
	}
	sort.Slice(feeds, func(i, j int) bool { return feeds[i].id < feeds[j].id })
	return feeds
}

// WaitAcked blocks until some follower's ack covers seq in the log of
// the shard with stable id id, no follower is connected (sync
// replication degrades to async rather than stalling the primary's
// write path), the hub closes, or ctx ends — or the current table does
// not hold id: a reshard retired the shard under the waiter (see
// CutAll). It is a no-op unless the hub was configured with SyncAck.
func (h *Hub) WaitAcked(ctx context.Context, id int, seq uint64) error {
	if !h.syncAck {
		return nil
	}
	for {
		h.mu.Lock()
		acked, ok := h.acked[id]
		if !ok || acked >= seq || len(h.feeds) == 0 || h.ctx.Err() != nil {
			h.mu.Unlock()
			return nil
		}
		ch := h.ackCh
		h.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// noteAck folds one follower's ACK frame into the hub's high-water,
// each position named by the stable id the feed's topology gives it.
// An id the current table no longer holds is skipped.
func (h *Hub) noteAck(f *feed, acks []wire.ReplAckEntry) {
	h.mu.Lock()
	advanced := false
	f.mu.Lock()
	for _, a := range acks {
		sh := a.Shard
		if sh >= uint64(len(f.ackSeq)) {
			continue
		}
		if a.Seq > f.ackSeq[sh] {
			f.ackSeq[sh] = a.Seq
		}
		if a.Bytes > f.ackBytes[sh] {
			f.ackBytes[sh] = a.Bytes
		}
		id := int(f.topo[sh].ID)
		if acked, ok := h.acked[id]; ok && a.Seq > acked {
			h.acked[id] = a.Seq
			advanced = true
		}
	}
	f.mu.Unlock()
	if advanced {
		h.wakeWaiters()
	}
	h.mu.Unlock()
}

// Counters reports the hub's STATS rows: follower count, shipped
// totals, and per-follower acked offset plus lag. Followers are
// numbered by subscription order within the listing (follower0 is the
// oldest live feed), so the rows are stable while the set is.
func (h *Hub) Counters() []wire.Counter {
	h.mu.Lock()
	feeds := h.liveFeeds()
	h.mu.Unlock()
	sync := uint64(0)
	if h.syncAck {
		sync = 1
	}
	cs := []wire.Counter{
		{Name: "repl_followers", Value: uint64(len(feeds))},
		{Name: "repl_sync", Value: sync},
		{Name: "repl_shipped_records", Value: h.shippedRecs.Load()},
		{Name: "repl_shipped_bytes", Value: h.shippedBytes.Load()},
		{Name: "repl_delta_catchups", Value: h.deltaCatchups.Load()},
	}
	for i, f := range feeds {
		ackedRecs, lag := f.offsets()
		cs = append(cs,
			wire.Counter{Name: fmt.Sprintf("follower%d.acked_records", i), Value: ackedRecs},
			wire.Counter{Name: fmt.Sprintf("follower%d.lag_bytes", i), Value: lag},
		)
	}
	return cs
}

// LagBytes reports the worst per-follower replication lag in payload
// bytes (0 with no followers).
func (h *Hub) LagBytes() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var worst uint64
	for f := range h.feeds {
		if _, lag := f.offsets(); lag > worst {
			worst = lag
		}
	}
	return worst
}

// CutAll fails every live feed without closing the hub — a reshard
// changed the topology, and every follower must renegotiate it through
// a reconnect. The acked high-waters reset to the ids of the new table:
// a waiter on a shard the reshard retired is released, and waiters on
// the rest wake and observe no followers (sync replication degrades to
// async until followers re-subscribe).
func (h *Hub) CutAll(reason string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ctx.Err() == nil {
		h.cancel(fmt.Errorf("repl: feed cut: %s", reason))
		h.ctx, h.cancel = context.WithCancelCause(context.Background())
	}
	h.resetAcked()
	h.wakeWaiters()
}

// Close tears down every feed. In-flight ServeFeed calls return; a
// subscription that arrives later is born cut.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cancel(errHubClosed)
	h.wakeWaiters()
}

// offsets sums a feed's acked records and its lag (shipped − acked
// payload bytes) across shards.
func (f *feed) offsets() (ackedRecs, lagBytes uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.ackSeq {
		ackedRecs += f.ackSeq[i]
		if f.shippedBytes[i] > f.ackBytes[i] {
			lagBytes += f.shippedBytes[i] - f.ackBytes[i]
		}
	}
	return ackedRecs, lagBytes
}

// offer is the tap function: it runs on the shard's WAL flusher with
// the log mutex held, so it only appends to the feed's bounded buffer.
// Overflow cuts the feed instead of blocking the primary's commit path
// or growing without bound.
func (f *feed) offer(shard int, seq uint64, payload []byte) {
	if f.link.Cause() != nil {
		return
	}
	f.mu.Lock()
	if f.bufBytes+len(payload) > maxFeedBuffer {
		f.mu.Unlock()
		f.link.Cut(fmt.Errorf("repl: follower %d fell behind (buffer over %d bytes)", f.id, maxFeedBuffer))
		return
	}
	f.buf = append(f.buf, shipRec{shard: shard, seq: seq, payload: payload})
	f.bufBytes += len(payload)
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// take swaps out the queued records (nil when empty).
func (f *feed) take() []shipRec {
	f.mu.Lock()
	defer f.mu.Unlock()
	recs := f.buf
	f.buf = nil
	f.bufBytes = 0
	return recs
}

// run is the feed lifecycle: attach taps, read HELLO, send TOPOLOGY,
// stream catch-up, then pump the live tail against the follower's ACKs.
// ACKs sent during catch-up (one per shard) wait in the socket until the
// pump's reader starts.
func (f *feed) run() error {
	n := len(f.topo)

	// Attach every shard's tap BEFORE any snapshot walk starts: the
	// returned coverSeq then splits the log exactly — records <=
	// coverSeq committed before attach and are visible to the snapshot;
	// records > coverSeq are buffered and shipped. Records landing in
	// both replay idempotently on the follower (records are absolute).
	// The logs are resolved once, against the epoch pinned at subscribe;
	// a reshard racing this attach is caught by the epoch re-check below
	// (and would cut the feed moments later anyway).
	covers := make([]uint64, n)
	taps := make([]*wal.Tap, 0, n)
	logs := make([]*wal.Log, 0, n)
	defer func() {
		for i, t := range taps {
			logs[i].DetachTap(t)
		}
	}()
	for i := 0; i < n; i++ {
		shard := i
		log := f.h.store.ShardWAL(i)
		if log == nil {
			return f.link.Cut(fmt.Errorf("repl: shard %d's log vanished during subscribe (concurrent reshard)", i))
		}
		tap, cover := log.AttachTap(func(seq uint64, payload []byte) {
			f.offer(shard, seq, payload)
		})
		logs, taps, covers[i] = append(logs, log), append(taps, tap), cover
	}
	if e, _ := f.h.store.Routing(); e != f.epoch {
		return f.link.Cut(fmt.Errorf("repl: routing epoch changed during subscribe (%d -> %d)", f.epoch, e))
	}

	// The follower's HELLO (incarnation + per-shard applied positions)
	// is the first frame on the wire.
	payload, err := f.link.Read(nil)
	if err != nil {
		return f.link.Cut(fmt.Errorf("repl: hello read: %w", err))
	}
	var hello wire.ReplFrame
	if err := wire.DecodeReplFrame(&hello, payload); err != nil {
		return f.link.Cut(fmt.Errorf("repl: hello decode: %w", err))
	}
	if hello.Kind != wire.ReplHello {
		return f.link.Cut(fmt.Errorf("repl: expected HELLO from follower, got %v", hello.Kind))
	}

	// Tell the follower the topology it is about to receive, so it can
	// reshape its table (create/drop shards) before the first batch.
	if err := f.send(&wire.ReplFrame{Kind: wire.ReplTopology, Epoch: f.epoch, Topo: f.topo}); err != nil {
		return f.link.Cut(err)
	}
	if err := f.catchUp(covers, &hello); err != nil {
		return f.link.Cut(err)
	}
	ping, err := wire.AppendReplFrame(nil, &wire.ReplFrame{Kind: wire.ReplPing})
	if err != nil {
		return f.link.Cut(err)
	}
	return f.link.Serve(f.wake, ping, f.drain, func() error { return f.link.Recv(f.onFrame) })
}

// send encodes one frame into the writer's scratch and writes it.
func (f *feed) send(frame *wire.ReplFrame) error {
	var err error
	if f.out, err = wire.AppendReplFrame(f.out[:0], frame); err != nil {
		return err
	}
	return f.link.Write(f.out)
}

// catchUp brings each shard current — a churn-bounded delta when the
// follower's HELLO proves a usable position within this incarnation, a
// full catch-up otherwise — shipped in the live tail's vocabulary, then
// marks it with SNAP-DONE carrying the cover seq, the mode, and the
// primary's incarnation. Live records buffered meanwhile are shipped by
// drain. The walks run under the link's context, so a cut feed stops
// its catch-up at the next chunk.
func (f *feed) catchUp(covers []uint64, hello *wire.ReplFrame) error {
	inc := f.h.store.Incarnation()
	n := len(f.topo)
	// applied == 0 is "no position": CatchUp answers it with a full
	// catch-up. Positions count only if the follower left this
	// incarnation at this routing epoch — positions are table positions,
	// meaningless across a reshard — so both gates sit behind this one
	// argument.
	applied := make([]uint64, n)
	if inc != 0 && hello.Incarnation == inc && hello.Epoch == f.epoch {
		for _, a := range hello.Acks {
			if int(a.Shard) < n {
				applied[a.Shard] = a.Seq
			}
		}
	}
	for shard := 0; shard < n; shard++ {
		b := catchUpBatch{f: f, frame: wire.ReplFrame{Kind: wire.ReplWALBatch, Shard: uint64(shard)}}
		delta, err := f.h.store.CatchUp(f.link.ctx, shard, applied[shard], b.add)
		if err == nil {
			err = b.flush()
		}
		if err != nil {
			return fmt.Errorf("repl: catch-up shard %d: %w", shard, err)
		}
		mode := wire.ReplCatchupSnap
		if delta {
			mode = wire.ReplCatchupDelta
			f.h.deltaCatchups.Add(1)
		}
		done := wire.ReplFrame{
			Kind: wire.ReplSnapDone, Shard: uint64(shard),
			CoverSeq: covers[shard], Mode: mode, Incarnation: inc,
		}
		if err := f.send(&done); err != nil {
			return err
		}
	}
	return nil
}

// batchFlushAt bounds one catch-up record's or WAL-BATCH frame's
// payload bytes.
const batchFlushAt = 256 << 10

// catchUpBatch packs one shard's catch-up ops into a WAL record payload
// and ships it, every batchFlushAt bytes, as a one-record WAL-BATCH
// frame with seq 0 — so the follower applies catch-up exactly as it
// applies the live tail, and a catch-up cut anywhere leaves the shard
// at position 0.
type catchUpBatch struct {
	f       *feed
	frame   wire.ReplFrame
	payload []byte
}

// add encodes op (copying its strings) into the record under
// construction. A record op would carry past what one WAL-BATCH frame
// holds ships first, without it.
func (b *catchUpBatch) add(op wal.Op) error {
	if len(b.payload) > 0 && wire.ReplRecSize(len(b.payload)+wal.OpHead+len(op.Key)+len(op.Val)) > wire.MaxReplBatch {
		if err := b.flush(); err != nil {
			return err
		}
	}
	if b.payload = wal.AppendOps(b.payload, []wal.Op{op}); len(b.payload) < batchFlushAt {
		return nil
	}
	return b.flush()
}

// flush ships the record if it holds anything and starts the next.
func (b *catchUpBatch) flush() error {
	if len(b.payload) == 0 {
		return nil
	}
	b.frame.Recs = append(b.frame.Recs[:0], wire.ReplRec{Payload: b.payload})
	err := b.f.send(&b.frame)
	b.payload = b.payload[:0]
	return err
}

// drain is the live tail: everything the taps queued goes out as
// WAL-BATCH frames, one frame per run of same-shard records, in one
// write. A frame closes at batchFlushAt payload bytes, and before a
// record that would carry it past MaxFrame.
func (f *feed) drain() error {
	recs := f.take()
	if recs == nil {
		return nil
	}
	f.out = f.out[:0]
	frame := wire.ReplFrame{Kind: wire.ReplWALBatch}
	var recCount, byteCount uint64
	for i := 0; i < len(recs); {
		shard := recs[i].shard
		frame.Shard, frame.Recs = uint64(shard), frame.Recs[:0]
		bytes, size := 0, 0
		f.mu.Lock()
		for ; i < len(recs) && recs[i].shard == shard; i++ {
			n := wire.ReplRecSize(len(recs[i].payload))
			if len(frame.Recs) > 0 && (bytes >= batchFlushAt || size+n > wire.MaxReplBatch) {
				break
			}
			frame.Recs = append(frame.Recs, wire.ReplRec{Seq: recs[i].seq, Payload: recs[i].payload})
			bytes += len(recs[i].payload)
			size += n
		}
		f.shippedBytes[shard] += uint64(bytes)
		f.mu.Unlock()
		recCount += uint64(len(frame.Recs))
		byteCount += uint64(bytes)
		var err error
		if f.out, err = wire.AppendReplFrame(f.out, &frame); err != nil {
			return err
		}
	}
	if err := f.link.Write(f.out); err != nil {
		return err
	}
	f.h.shippedRecs.Add(recCount)
	f.h.shippedBytes.Add(byteCount)
	return nil
}

// onFrame consumes the follower's half of the link: ACK frames only. A
// follower acks every batch and answers every ping with one, which is
// what keeps the link's read budget fed.
func (f *feed) onFrame(payload []byte) error {
	if err := wire.DecodeReplFrame(&f.in, payload); err != nil {
		return fmt.Errorf("repl: ack decode: %w", err)
	}
	if f.in.Kind != wire.ReplAck {
		return fmt.Errorf("repl: unexpected %v frame from follower", f.in.Kind)
	}
	f.h.noteAck(f, f.in.Acks)
	return nil
}
