package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects when acknowledged records are fsynced.
type Mode int

const (
	// ModeBatch (the default): an append is acknowledged once its
	// record reaches the OS (the write syscall completed — a process
	// crash cannot lose it), and a background syncer fsyncs the log on
	// a short cadence, so a machine crash loses at most one window.
	ModeBatch Mode = iota
	// ModeAlways: an append is acknowledged only after an fsync covers
	// its record. Concurrent appends share one fsync (group commit).
	ModeAlways
	// ModeOff: never fsync; the OS flushes on its own schedule.
	ModeOff
)

// String names the mode using the -fsync flag vocabulary.
func (m Mode) String() string {
	switch m {
	case ModeAlways:
		return "always"
	case ModeBatch:
		return "batch"
	case ModeOff:
		return "off"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses the -fsync flag vocabulary.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "always":
		return ModeAlways, nil
	case "batch":
		return ModeBatch, nil
	case "off":
		return ModeOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync mode %q (valid: always, batch, off)", s)
	}
}

// Options parameterize Open.
type Options struct {
	// Mode is the fsync policy (zero value: ModeBatch).
	Mode Mode
	// BatchWindow is the background fsync cadence for ModeBatch
	// (0 = 2ms).
	BatchWindow time.Duration
	// Logf, when non-nil, receives recovery and checkpoint diagnostics.
	Logf func(format string, args ...any)
	// OnDurableRecord, when non-nil, is called by the flusher after
	// each committed record becomes durable (written for batch/off,
	// fsynced for always), with the record's first payload byte. It
	// runs on the flusher goroutine, before waiters are acknowledged.
	// Fault-injection tests use it to kill the process at exact points
	// of the cross-shard commit protocol (e.g. between PREPARE and
	// DECISION); production configurations leave it nil.
	OnDurableRecord func(firstByte byte)
	// OnReplayOps, when non-nil, observes every operation group Open
	// applies from SEGMENT replay — the log tail past the checkpoint
	// chain, including resolved prepares — but NOT groups loaded from
	// checkpoint or delta files. The server uses it to seed the dirty-key
	// set incremental checkpoints track: tail keys changed since the
	// chain head and belong in the next delta; chain keys do not.
	OnReplayOps func(ops []Op)
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// recState is a reserved record's lifecycle.
type recState uint8

const (
	recReserved recState = iota
	recCommitted
	recCancelled
)

type pendingRec struct {
	seq     uint64
	payload []byte
	state   recState
}

// ShipRec is one committed record as offered to a Tap: the log's
// sequence number plus the verbatim record payload (read-only for the
// receiver).
type ShipRec struct {
	Seq     uint64
	Payload []byte
}

// Log is the append-only write-ahead log of one directory: a sequence
// of numbered segment files plus at most one live checkpoint chain (a
// full checkpoint and the deltas hanging off it; see checkpoint.go).
//
// Appending is a two-phase protocol mirroring the transaction that
// produces the record:
//
//	seq := l.Reserve(payload)  // inside the txn body, under the
//	                           // irrevocable token: fixes log order
//	l.Commit(seq)              // from Observer.OnCommit
//	l.WaitDurable(seq)         // before acknowledging the client
//
// Reserve copies the payload into the log's slab and queues it at the
// next position; the flusher goroutine writes records strictly in
// reservation order, waiting for each to be decided — committed
// (written) or cancelled (skipped) — so the on-disk order is exactly
// the commit order and no aborted transaction is ever logged.
type Log struct {
	dir       string
	mode      Mode
	window    time.Duration
	logf      func(string, ...any)
	onDurable func(byte)

	mu        sync.Mutex
	flushCond *sync.Cond   // flusher wake-up: head record decided, or close
	ackCond   *sync.Cond   // append wake-up: ackSeq advanced, or error
	pending   []pendingRec // contiguous seqs: pending[i].seq == pending[0].seq+i
	slab      []byte       // the chunk queued payloads are bumped into (see own)
	taps      []*Tap
	nextSeq   uint64 // next reservation
	ackSeq    uint64 // every seq <= ackSeq is written (ModeAlways: synced)
	dirty     bool   // bytes written since the last fsync
	err       error  // sticky I/O error: the log is poisoned
	closed    bool
	drained   bool // closed and the flusher has exited: nothing more will be acknowledged
	// chain is the live checkpoint chain (base + deltas); lastKind is
	// what the most recent install (or recovery) left as the newest
	// element. Both under mu; see checkpoint.go.
	chain    Chain
	lastKind CkptKind

	// fileMu guards the segment descriptor, so no I/O ever happens
	// under mu. The flusher's write and the syncer's fsync take the read
	// side and overlap on one descriptor (POSIX allows it; only the
	// flusher writes), so an append never waits behind an fsync it did
	// not ask for. Rotate and Close take the write side: they swap or
	// close the descriptor, and wait for any write or fsync in flight.
	fileMu sync.RWMutex
	f      *os.File
	seg    uint64 // current segment number

	flusherDone chan struct{}
	syncerStop  chan struct{}
	syncerDone  chan struct{}

	// Counters for the server's STATS surface.
	statBytes       atomic.Uint64
	statRecords     atomic.Uint64
	statWrites      atomic.Uint64
	statFsyncs      atomic.Uint64
	statCheckpoints atomic.Uint64
}

// segName formats a segment file name; segments sort by number.
func segName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// openSegment opens segment seg of dir for appending, creating it.
func openSegment(dir string, seg uint64) (*os.File, error) {
	return os.OpenFile(filepath.Join(dir, segName(seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// openLog creates the Log around an opened segment and starts its
// background goroutines. Recovery (scanning, replay, truncation) has
// already happened in Open; chain is what it reassembled.
func openLog(dir string, opts Options, seg uint64, chain Chain) (*Log, error) {
	f, err := openSegment(dir, seg)
	if err != nil {
		return nil, err
	}
	kind := CkptNone
	switch {
	case len(chain.Deltas) > 0:
		kind = CkptDelta
	case chain.BaseSeg != 0:
		kind = CkptFull
	}
	l := &Log{
		dir:         dir,
		mode:        opts.Mode,
		window:      opts.BatchWindow,
		logf:        opts.Logf,
		onDurable:   opts.OnDurableRecord,
		f:           f,
		seg:         seg,
		nextSeq:     1,
		chain:       chain,
		lastKind:    kind,
		flusherDone: make(chan struct{}),
	}
	if l.window <= 0 {
		l.window = 2 * time.Millisecond
	}
	l.flushCond = sync.NewCond(&l.mu)
	l.ackCond = sync.NewCond(&l.mu)
	go l.flusher()
	if l.mode == ModeBatch {
		l.syncerStop = make(chan struct{})
		l.syncerDone = make(chan struct{})
		go l.syncer()
	}
	return l, nil
}

// Segment returns the current segment number.
func (l *Log) Segment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

// Stats reports the log's monotonic counters: payload+framing bytes
// written, records written, fsyncs issued, checkpoints installed.
func (l *Log) Stats() (bytes, records, fsyncs, checkpoints uint64) {
	return l.statBytes.Load(), l.statRecords.Load(), l.statFsyncs.Load(), l.statCheckpoints.Load()
}

// Writes reports the flusher's write calls: records per write is the
// group commit.
func (l *Log) Writes() uint64 { return l.statWrites.Load() }

// Reserve assigns payload the next position in the log and queues it
// undecided. It must be called where the mutation order is already
// fixed (polyserve calls it inside the transaction body, under the
// irrevocable token). The payload is copied; the caller may reuse it.
func (l *Log) Reserve(payload []byte) uint64 {
	l.mu.Lock()
	seq := l.nextSeq
	l.nextSeq++
	l.pending = append(l.pending, pendingRec{seq: seq, payload: l.own(payload)})
	l.mu.Unlock()
	return seq
}

// slabSize is the chunk queued payloads are copied into: one allocation
// per ~380 records of a 128-byte SET instead of one per record. A
// payload over slabSize/4 gets an allocation of its own, so a chunk's
// abandoned tail stays under a quarter of it.
const slabSize = 64 << 10

// own returns the log's copy of payload, bumped off the current chunk
// and capped at its own length so no append can reach a neighbour. A
// chunk that cannot take the next payload is dropped, never recycled:
// the queue, the flusher's batch and every tap that retained a payload
// (see AttachTap) hold plain slices of it, and the collector frees it
// when the last of them lets go. Caller holds mu.
func (l *Log) own(payload []byte) []byte {
	if len(payload) > slabSize/4 {
		return append([]byte(nil), payload...)
	}
	if len(payload) > cap(l.slab)-len(l.slab) {
		l.slab = make([]byte, 0, slabSize)
	}
	off := len(l.slab)
	l.slab = append(l.slab, payload...)
	return l.slab[off:len(l.slab):len(l.slab)]
}

// decide marks a reservation and wakes the flusher when the head of the
// queue becomes decided. Queued sequences are contiguous, so the record
// sits at seq's distance from the head; one already flushed (or never
// reserved) is out of range and ignored.
func (l *Log) decide(seq uint64, st recState) {
	l.mu.Lock()
	if len(l.pending) > 0 {
		if i := seq - l.pending[0].seq; i < uint64(len(l.pending)) {
			l.pending[i].state = st
			if i == 0 {
				l.flushCond.Signal()
			}
		}
	}
	l.mu.Unlock()
}

// Commit marks a reserved record as committed: the transaction that
// produced it has committed, so the record must reach the log.
func (l *Log) Commit(seq uint64) { l.decide(seq, recCommitted) }

// Cancel tombstones a reserved record: its transaction aborted, so the
// record is skipped (its sequence position is acknowledged as durable —
// there is nothing to make durable).
func (l *Log) Cancel(seq uint64) { l.decide(seq, recCancelled) }

// WaitDurable blocks until the record is durable under the log's mode
// (written for batch/off; fsynced for always), the log fails, or the
// log closes — and Close flushes every decided record first, so a waiter
// it overtakes (an acknowledgement held back to the connection's flush,
// on a shard a MERGE retires) still gets its record's own verdict. A
// non-nil return means durability of this record is unknown at best:
// the server surfaces it as an error without retrying.
func (l *Log) WaitDurable(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.ackSeq < seq && l.err == nil && !l.drained {
		l.ackCond.Wait()
	}
	if l.ackSeq >= seq {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	return ErrClosed
}

// Tap is a handle to a committed-record observer registered with
// AttachTap; replication feeds use one per shard to tail the live log.
type Tap struct {
	fn func(seq uint64, payload []byte)
}

// AttachTap registers fn to observe every committed record the flusher
// writes from now on, in log order, and returns the tap handle plus
// coverSeq — the watermark that makes catch-up exact: every record with
// seq <= coverSeq was already written (and, because records are only
// written after their transaction committed, is visible to any snapshot
// taken after AttachTap returns) and is never offered; every committed
// record with seq > coverSeq is offered exactly once, after it is
// durable under the log's mode.
//
// fn runs on the flusher goroutine with the log's mutex held: it must
// be fast, must not block, and must not call back into the Log. The
// payload is owned by the log, may be retained, and must be treated
// read-only.
func (l *Log) AttachTap(fn func(seq uint64, payload []byte)) (*Tap, uint64) {
	t := &Tap{fn: fn}
	l.mu.Lock()
	l.taps = append(l.taps, t)
	cover := l.ackSeq
	l.mu.Unlock()
	return t, cover
}

// DetachTap unregisters t. When it returns, no offer to t is in flight
// and none will follow.
func (l *Log) DetachTap(t *Tap) {
	l.mu.Lock()
	for i, x := range l.taps {
		if x == t {
			l.taps = append(l.taps[:i], l.taps[i+1:]...)
			break
		}
	}
	l.mu.Unlock()
}

// decidedPrefix returns how many records at the queue head are decided.
// Caller holds mu.
func (l *Log) decidedPrefix() int {
	n := 0
	for n < len(l.pending) && l.pending[n].state != recReserved {
		n++
	}
	return n
}

// flusher is the group-commit loop: it pops the decided prefix of the
// queue, writes all its committed records with one write (and, under
// ModeAlways, one fsync), then acknowledges the whole prefix at once.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	var enc []byte
	var firsts []byte  // first payload byte per committed record, for the hook
	var ship []ShipRec // committed records of the batch, for the taps
	l.mu.Lock()
	for {
		for l.decidedPrefix() == 0 && !l.closed && l.err == nil {
			l.flushCond.Wait()
		}
		n := l.decidedPrefix()
		if n == 0 || l.err != nil {
			// Closed with nothing flushable, or poisoned by the syncer (see
			// syncDirty). Undecided records can only remain if a producing
			// transaction was abandoned mid-flight; their waiters are
			// released by Close's (or the syncer's) broadcast.
			l.mu.Unlock()
			return
		}
		batch := l.pending[:n]
		target := batch[n-1].seq
		enc = enc[:0]
		firsts = firsts[:0]
		ship = ship[:0]
		records := 0
		for i := range batch {
			if batch[i].state == recCommitted {
				enc = appendRecord(enc, batch[i].payload)
				firsts = append(firsts, batch[i].payload[0])
				// Capture (seq, payload) before the post-write pop
				// overwrites the pending entries this batch aliases. The
				// ship list is collected even with no tap attached: a tap
				// attaching between here and the post-write offer has a
				// coverSeq below this batch and must still receive it.
				ship = append(ship, ShipRec{Seq: batch[i].seq, Payload: batch[i].payload})
				records++
			}
		}
		f := l.f
		l.mu.Unlock()

		var werr error
		if len(enc) > 0 {
			l.fileMu.RLock()
			_, werr = f.Write(enc)
			l.statWrites.Add(1)
			if werr == nil && l.mode == ModeAlways {
				werr = f.Sync()
				l.statFsyncs.Add(1)
			}
			l.fileMu.RUnlock()
			l.statBytes.Add(uint64(len(enc)))
			l.statRecords.Add(uint64(records))
			if werr == nil && l.onDurable != nil {
				for _, b := range firsts {
					l.onDurable(b)
				}
			}
		}

		l.mu.Lock()
		// Popped slots and the ship list are cleared, not just truncated:
		// a stale payload slice would pin its whole chunk.
		rest := copy(l.pending, l.pending[n:])
		clear(l.pending[rest:])
		l.pending = l.pending[:rest]
		if werr != nil {
			if l.err == nil {
				l.err = fmt.Errorf("wal: append: %w", werr)
			}
		} else if l.err == nil { // not poisoned mid-write: see syncDirty
			l.ackSeq = target
			if len(enc) > 0 && l.mode != ModeAlways {
				l.dirty = true
			}
			// Offer the batch to the taps in the same critical section
			// that advances ackSeq: an AttachTap caller can never observe
			// an ackSeq that covers records it was not offered.
			for _, t := range l.taps {
				for i := range ship {
					t.fn(ship[i].Seq, ship[i].Payload)
				}
			}
		}
		clear(ship)
		l.ackCond.Broadcast()
		if l.err != nil {
			l.mu.Unlock()
			return
		}
		if l.closed && l.decidedPrefix() == 0 {
			l.mu.Unlock()
			return
		}
	}
}

// syncer is ModeBatch's background fsync: one fsync per window while
// writes are happening, amortized over every record of the window.
//
// The fsync runs beside the flusher's writes (see fileMu), and batch
// mode's contract — an acknowledged record survives a process crash, and
// a machine crash loses at most one window — is unchanged by it. An
// acknowledgement under ModeBatch was only ever the completed write, so
// a write overlapping an fsync acknowledges exactly what it did before,
// just without queueing. The window bound holds because the flusher sets
// dirty under mu only after its write returns: either that happens
// before syncDirty clears the flag, and the fsync starts after the write
// completed and covers it; or after, and the flag stays armed for the
// next tick. Either way some fsync that starts within a window of the
// write covers it.
func (l *Log) syncer() {
	defer close(l.syncerDone)
	t := time.NewTicker(l.window)
	defer t.Stop()
	for {
		select {
		case <-l.syncerStop:
			return
		case <-t.C:
			l.syncDirty()
		}
	}
}

// syncDirty fsyncs the current segment if bytes were written since the
// last sync. A failed fsync poisons the log exactly as a failed write
// does: the kernel may already have dropped the dirty pages, so the next
// fsync would succeed over a hole and acknowledged records would be lost
// in silence. Nothing is acknowledged past the failure — every waiter,
// the flusher and Close get the sticky error instead.
func (l *Log) syncDirty() {
	// fileMu first: a Rotate that swapped and closed the segment between
	// picking f and syncing it would read as a failed fsync. Held until
	// a failure has poisoned the log, so no Rotate slips in between.
	l.fileMu.RLock()
	defer l.fileMu.RUnlock()
	l.mu.Lock()
	need := l.dirty && l.err == nil
	l.dirty = false
	f := l.f
	l.mu.Unlock()
	if !need {
		return
	}
	err := f.Sync()
	l.statFsyncs.Add(1)
	if err != nil {
		l.logf("wal: background fsync: %v", err)
		l.mu.Lock()
		if l.err == nil {
			l.err = fmt.Errorf("wal: background fsync: %w", err)
		}
		l.flushCond.Broadcast()
		l.ackCond.Broadcast()
		l.mu.Unlock()
	}
}

// waitFlushed blocks until every reservation made before the call is
// acknowledged (or the log fails/closes).
func (l *Log) waitFlushed() error {
	l.mu.Lock()
	seal := l.nextSeq - 1
	l.mu.Unlock()
	if seal == 0 {
		return nil
	}
	return l.WaitDurable(seal)
}

// Rotate seals the current segment and opens the next one, returning
// the new segment's number plus the cover seq — the last seq flushed
// into the sealed history, the commit-order boundary a checkpoint cut
// after this rotation covers. It must be called with mutation traffic
// quiesced — polyserve calls it inside an (empty) irrevocable
// transaction, so every record of the sealed segment belongs to a
// transaction whose memory effect is already visible, which is exactly
// what makes a checkpoint taken after Rotate cover the sealed segment
// completely.
func (l *Log) Rotate() (seg, cover uint64, err error) {
	if err := l.waitFlushed(); err != nil {
		return 0, 0, err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, 0, ErrClosed
	}
	old := l.f
	newSeg := l.seg + 1
	cover = l.ackSeq
	l.mu.Unlock()

	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	// Seal: the old segment's contents are complete; make them durable
	// before the checkpoint that will supersede them can be installed.
	if l.mode != ModeOff {
		if err := old.Sync(); err != nil {
			return 0, 0, fmt.Errorf("wal: rotate sync: %w", err)
		}
		l.statFsyncs.Add(1)
	}
	f, err := openSegment(l.dir, newSeg)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: rotate open: %w", err)
	}
	l.mu.Lock()
	l.f = f
	l.seg = newSeg
	l.dirty = false
	l.mu.Unlock()
	old.Close()
	return newSeg, cover, nil
}

// Close flushes every decided record, fsyncs (unless ModeOff), and
// closes the segment. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.closed = true
	l.flushCond.Broadcast()
	l.mu.Unlock()

	<-l.flusherDone
	l.mu.Lock()
	l.drained = true
	l.ackCond.Broadcast()
	l.mu.Unlock()
	if l.syncerStop != nil {
		close(l.syncerStop)
		<-l.syncerDone
	}

	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	var err error
	if l.mode != ModeOff {
		if serr := l.f.Sync(); serr != nil {
			err = serr
		} else {
			l.statFsyncs.Add(1)
		}
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	l.mu.Lock()
	if l.err != nil && err == nil {
		err = l.err
	}
	l.mu.Unlock()
	return err
}

// Append is the single-phase convenience for callers outside a
// transaction (tests, tools): Reserve + Commit + WaitDurable.
func (l *Log) Append(payload []byte) error {
	seq := l.Reserve(payload)
	l.Commit(seq)
	return l.WaitDurable(seq)
}
