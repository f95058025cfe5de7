package server

import (
	"context"
	"encoding/binary"
	"net"

	"polytm/internal/wire"
)

// Acknowledgement gates. A committed mutation owes its client three
// things before the reply may leave: its record durable under the log's
// fsync mode, its events delivered (and TTL effects applied), and — under
// sync-ack replication — a follower ack covering it. All three queues are
// prefix-ordered per shard, so a position is all a waiter needs: ackPos
// is that position, filled in by the walCapture that reserved it, and
// close is the one place the three waits are made.
//
// What owes the wait is the REPLY, not the request: nothing needs a
// durable write's handler to stand still, only that no reply byte reaches
// the socket before its gate has closed. A connection therefore keeps the
// gates of the requests it has executed but not yet answered (connGate)
// and closes them all immediately before it writes — a pipeline of
// durable writes is one group commit, not one flusher hand-off apiece.
// Everything without a connection — Store.Execute*, the reaper, replay,
// reshard copies, a follower's apply — is a gate of one, closed on the
// spot by mutate. 2PC's waits inside seal are protocol steps, not
// acknowledgements, and use the same two halves directly.

// ackPos is one mutation's position in its shard's log and notifier.
type ackPos struct {
	sh       *shard
	seq      uint64 // last reserved log position (meaningful while logged)
	slot     uint64 // reserved notifier slot (meaningful while slotUsed)
	logged   bool   // a record was reserved: wait has a target
	slotUsed bool   // a slot was reserved: waitDelivered has a target
	reply    int    // connGate only: where the request's reply frame starts in stage
}

// wait blocks until the reserved record (if any) is durable under the
// log's fsync mode. Called after the record is confirmed.
func (p *ackPos) wait() error {
	if !p.logged {
		return nil
	}
	return p.sh.wal.WaitDurable(p.seq)
}

// waitDelivered blocks until the reserved notifier slot (if any) has
// delivered: the mutation's events are buffered to every matching
// session and its TTL effects applied before the client sees the ack.
func (p *ackPos) waitDelivered() {
	if p.slotUsed {
		p.sh.notif.Wait(p.slot)
	}
}

// close waits out the three gates in order and returns the mutation's
// verdict: nil means durable, delivered and (sync-ack) follower-acked.
func (p *ackPos) close(ctx context.Context) error {
	if err := p.wait(); err != nil {
		return err
	}
	p.waitDelivered()
	if p.logged {
		if h := p.sh.hub.Load(); h != nil {
			return h.WaitAcked(ctx, p.sh.idx, p.seq)
		}
	}
	return nil
}

// connGate is a connection's reply side: its request context (mutate
// recognises it by type, so the volatile path pays nothing for it), the
// encoded replies not yet written, and the gates those replies wait on.
type connGate struct {
	context.Context
	stage []byte   // reply frames awaiting the next flush, back to back
	open  []ackPos // gates opened since the last flush, in request order
	reply int      // len(stage) when the executing request began: its reply's offset
}

// stageLimit is the staged size that forces a flush mid-pipeline (a
// bufio.Writer's default buffer, which this replaces).
const stageLimit = 4096

// hold takes over a committed mutation's gate instead of closing it.
func (g *connGate) hold(p ackPos) {
	p.reply = g.reply
	g.open = append(g.open, p)
}

// flush closes every open gate, in request order, and only then writes
// the staged replies. A gate that fails turns its own reply into the
// StatusErr the request would have got inline (restage); the others,
// reads included, go out as they were — the pipeline stays aligned and
// the connection usable.
func (g *connGate) flush(c net.Conn) error {
	var errs []error // parallel to open; allocated by the first failure
	for i := range g.open {
		if err := g.open[i].close(g); err != nil {
			if errs == nil {
				errs = make([]error, len(g.open))
			}
			errs[i] = err
		}
	}
	if errs != nil {
		g.restage(errs)
	}
	clear(g.open) // the positions pin their shards
	g.open = g.open[:0]
	if len(g.stage) == 0 {
		return nil
	}
	_, err := c.Write(g.stage)
	g.stage = g.stage[:0]
	return err
}

// restage rewrites stage with the reply of every failed gate replaced by
// its error (once, should one request ever hold two). Frames are
// length-prefixed, so a reply's offset is all that is needed to cut it
// out.
func (g *connGate) restage(errs []error) {
	old, from := g.stage, 0
	out := make([]byte, 0, len(old))
	var resp wire.Response
	for i, err := range errs {
		at := g.open[i].reply
		if err == nil || at < from {
			continue
		}
		out = append(out, old[from:at]...)
		errInto(&resp, err)
		out, _ = wire.AppendResponseFrame(out, wire.OpGet, &resp)
		from = at + 4 + int(binary.BigEndian.Uint32(old[at:]))
	}
	g.stage = append(out, old[from:]...)
}
