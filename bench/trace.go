package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"polytm/internal/core"
	"polytm/internal/structures"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// The ladder's rungs, bottom to top, named after the modules.
const (
	layerSTM = iota
	layerStructures
	layerStore
	layerWire
	layerWAL
	layerNet
	numLayers
)

var layerNames = [numLayers]string{"stm", "structures", "store", "wire", "wal", "net"}

// span is one timed call into a layer. op is the operation's index in
// its client's stream — the identifier every span of that operation
// shares across rungs.
type span struct {
	op         uint32
	start, end int64 // ns since the trace began
}

// rung is what one ladder replay measured.
type rung struct {
	ran     bool
	spans   [][]span // per replay goroutine
	ops     uint64
	failed  uint64
	wall    time.Duration
	mallocs uint64
	bytes   uint64  // heap bytes allocated
	p50ns   float64 // median span duration
}

func (r *rung) allocsPerOp() float64 { return perOp(float64(r.mallocs), r.ops) }

func perOp(x float64, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return x / float64(ops)
}

// tracer replays the head of the workload's own operation streams
// against each layer's public functions in turn. The program is not
// edited, so a layer is measured from outside: each rung runs the layer
// and everything below it, and a layer's self time is its rung minus
// the rung below.
type tracer struct {
	sp      *spec
	p       *params
	streams [][]op
	t0      time.Time
	rungs   [numLayers]rung
	top     int // the rung that is the whole operation: net, or structures for the library

	readsPerOp     float64 // engine reads per structures-rung operation
	wireBytesPerOp float64 // request + response frame bytes per operation
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// replay runs call once per operation, p.replayOps operations split
// over one goroutine per stream, each call wrapped in a span. after,
// when non-nil, runs untimed following each call (the store rung uses
// it to capture responses for the wire rung).
func (tr *tracer) replay(layer int, call func(g int, o op) bool, after func(g int)) {
	r := &tr.rungs[layer]
	n := tr.p.replayOps / len(tr.streams)
	r.ran = true
	r.spans = make([][]span, len(tr.streams))
	for g := range r.spans {
		r.spans[g] = make([]span, 0, n)
	}
	failed := make([]uint64, len(tr.streams))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for g := range tr.streams {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := tr.streams[g]
			for i := 0; i < n; i++ {
				o := s[i%len(s)]
				t0 := tr.now()
				ok := call(g, o)
				t1 := tr.now()
				r.spans[g] = append(r.spans[g], span{op: uint32(i), start: t0, end: t1})
				if !ok {
					failed[g]++
				}
				if after != nil {
					after(g)
				}
			}
		}(g)
	}
	wg.Wait()
	r.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.ops = uint64(n * len(tr.streams))
	for _, f := range failed {
		r.failed += f
	}
	h := new(hist)
	for _, ss := range r.spans {
		for _, s := range ss {
			h.record(s.end - s.start)
		}
	}
	r.p50ns = h.quantile(0.5)
}

// writeSem is the semantics a mutating request runs under: a durable
// shard escalates every write to irrevocable (shard.capture).
func (tr *tracer) writeSem() core.Semantics {
	if tr.sp.durable {
		return core.Irrevocable
	}
	return core.Def
}

// stmWorker replays operations as bare engine transactions over a flat
// TVar array: the request class's semantics and its logical read/write
// set (one key, a pair, or scanLimit neighbours), with no index to
// traverse. The transaction bodies are bound once so the replay loop
// allocates nothing of its own.
type stmWorker struct {
	vars                                []*core.TVar[string]
	k, b, n                             int
	val                                 string
	read1, readN, write1, rmw1, rw2, r2 func(*core.Tx) error
}

func newSTMWorker(vars []*core.TVar[string], val string) *stmWorker {
	w := &stmWorker{vars: vars, val: val}
	w.read1 = func(tx *core.Tx) error { _, err := core.Get(tx, w.vars[w.k]); return err }
	w.readN = func(tx *core.Tx) error {
		for i := w.k; i < w.k+w.n && i < len(w.vars); i++ {
			if _, err := core.Get(tx, w.vars[i]); err != nil {
				return err
			}
		}
		return nil
	}
	w.write1 = func(tx *core.Tx) error { return core.Set(tx, w.vars[w.k], w.val) }
	w.rmw1 = func(tx *core.Tx) error {
		if _, err := core.Get(tx, w.vars[w.k]); err != nil {
			return err
		}
		return core.Set(tx, w.vars[w.k], w.val)
	}
	w.r2 = func(tx *core.Tx) error {
		if _, err := core.Get(tx, w.vars[w.k]); err != nil {
			return err
		}
		_, err := core.Get(tx, w.vars[w.b])
		return err
	}
	w.rw2 = func(tx *core.Tx) error {
		if err := w.r2(tx); err != nil {
			return err
		}
		if err := core.Set(tx, w.vars[w.k], w.val); err != nil {
			return err
		}
		return core.Set(tx, w.vars[w.b], w.val)
	}
	return w
}

func (tr *tracer) runSTM() {
	tm := core.New(core.Config{})
	n := tr.p.keys
	pairBase := 0
	if tr.sp.pairs {
		pairBase = n
		n *= 2
	}
	val := strings.Repeat("v", tr.sp.valLen)
	vars := make([]*core.TVar[string], n)
	for i := range vars {
		vars[i] = core.NewTVar(tm, val)
	}
	workers := make([]*stmWorker, len(tr.streams))
	for g := range workers {
		workers[g] = newSTMWorker(vars, val)
	}
	wsem := tr.writeSem()
	tr.replay(layerSTM, func(g int, o op) bool {
		w := workers[g]
		w.k, w.b, w.n = o.key(), o.key()+pairBase, tr.sp.scanLimit
		var err error
		switch o.code() {
		case opGet:
			err = tm.AtomicAs(core.Snapshot, w.read1)
		case opScan:
			err = tm.AtomicAs(core.Weak, w.readN)
		case opSet, opDel:
			err = tm.AtomicAs(wsem, w.write1)
		case opIncr:
			err = tm.AtomicAs(wsem, w.rmw1)
		case opTxn:
			err = tm.AtomicAs(core.Def, w.rw2)
		case opMGet:
			err = tm.AtomicAs(core.Snapshot, w.r2)
		}
		return err == nil
	}, nil)
}

// mapWorker replays the server workloads' operations against a bare
// TSkipMap (the structures rung), multi-key requests as one transaction
// of map operations.
type mapWorker struct {
	m         *structures.TSkipMap
	a, b, val string
	rmw1, rw2 func(*core.Tx) error
	r2        func(*core.Tx) error
}

func newMapWorker(m *structures.TSkipMap, val string) *mapWorker {
	w := &mapWorker{m: m, val: val}
	w.rmw1 = func(tx *core.Tx) error {
		if _, _, err := m.GetTx(tx, w.a); err != nil {
			return err
		}
		_, err := m.PutTx(tx, w.a, w.val)
		return err
	}
	w.r2 = func(tx *core.Tx) error {
		if _, _, err := m.GetTx(tx, w.a); err != nil {
			return err
		}
		_, _, err := m.GetTx(tx, w.b)
		return err
	}
	w.rw2 = func(tx *core.Tx) error {
		if err := w.r2(tx); err != nil {
			return err
		}
		if _, err := m.PutTx(tx, w.a, w.val); err != nil {
			return err
		}
		_, err := m.PutTx(tx, w.b, w.val)
		return err
	}
	return w
}

// runStructures builds a second, bare TSkipMap with the workload's keys
// and replays against it, recording the engine's read count per
// operation (nodes visited per lookup).
func (tr *tracer) runStructures(tables ...[]byte) {
	tm := core.New(core.Config{})
	m := structures.NewTSkipMap(tm)
	val := strings.Repeat("v", tr.sp.valLen)
	keys := make([][]string, len(tables))
	for c, tab := range tables {
		keys[c] = make([]string, tr.p.keys)
		for k := range keys[c] {
			keys[c][k] = string(keyAt(tab, k))
			m.Put(keys[c][k], val, core.Def)
		}
	}
	workers := make([]*mapWorker, len(tr.streams))
	for g := range workers {
		workers[g] = newMapWorker(m, val)
	}
	wsem := tr.writeSem()
	before := tm.Stats().Reads
	tr.replay(layerStructures, func(g int, o op) bool {
		w := workers[g]
		w.a = keys[0][o.key()]
		if tr.sp.pairs {
			w.b = keys[1][o.key()]
		}
		var err error
		switch o.code() {
		case opGet:
			_, ok := m.Get(w.a, core.Snapshot)
			return ok
		case opScan:
			return len(m.Range(w.a, "", tr.sp.scanLimit, core.Weak)) > 0
		case opSet:
			return m.Put(w.a, val, wsem)
		case opIncr:
			err = tm.AtomicAs(wsem, w.rmw1)
		case opTxn:
			err = tm.AtomicAs(core.Def, w.rw2)
		case opMGet:
			err = tm.AtomicAs(core.Snapshot, w.r2)
		}
		return err == nil
	}, nil)
	tr.readsPerOp = perOp(float64(tm.Stats().Reads-before), tr.rungs[layerStructures].ops)
}

// txnSubOps is the sub-opcode list DecodeResponse needs for a TXN reply.
var txnSubOps = []wire.Op{wire.OpGet, wire.OpGet, wire.OpSet, wire.OpSet}

// runServerRungs replays the store, wire, wal and net rungs against the
// set-up server.
func (tr *tracer) runServerRungs(e *serverEnv) error {
	n := tr.p.replayOps / len(tr.streams)

	// store: Store.ExecuteInto in-process. Each reply is encoded after
	// its span closes, so the wire rung can decode real responses.
	type capture struct {
		frames []byte
		ends   []int
		buf    []byte
	}
	perReply := 64 + 2*tr.sp.valLen + tr.sp.scanLimit*(keyLen+tr.sp.valLen+8)/4
	caps := make([]capture, len(tr.streams))
	for g := range caps {
		caps[g] = capture{frames: make([]byte, 0, n*perReply), ends: make([]int, 0, n)}
	}
	capErrs := make([]error, len(tr.streams))
	tr.replay(layerStore,
		func(g int, o op) bool { return e.doVia(g, o, true) },
		func(g int) {
			kc, c := e.clients[g], &caps[g]
			var err error
			if c.frames, err = wire.AppendResponseFrame(c.frames, kc.req.Op, &kc.resp); err != nil {
				capErrs[g] = err
			}
			c.ends = append(c.ends, len(c.frames))
		})
	if err := errors.Join(capErrs...); err != nil {
		return fmt.Errorf("capture response: %w", err)
	}

	// wire: encode and decode the request, decode and re-encode the
	// captured response — the codec work of one round trip, nothing else.
	wireBytes := make([]uint64, len(tr.streams))
	decoded := make([]wire.Request, len(tr.streams))
	cursor := make([]int, len(tr.streams))
	tr.replay(layerWire, func(g int, o op) bool {
		kc, c := e.clients[g], &caps[g]
		r, _ := e.build(kc, o)
		i := cursor[g]
		cursor[g]++
		lo := 0
		if i > 0 {
			lo = c.ends[i-1]
		}
		frame := c.frames[lo:c.ends[i]]
		var err error
		if c.buf, err = wire.AppendRequestFrame(c.buf[:0], r); err != nil {
			return false
		}
		wireBytes[g] += uint64(len(c.buf) + len(frame))
		if err = wire.DecodeRequestInto(&decoded[g], c.buf[4:]); err != nil {
			return false
		}
		var subOps []wire.Op
		if r.Op == wire.OpTxn {
			subOps = txnSubOps
		}
		resp, err := wire.DecodeResponse(frame[4:], r.Op, subOps)
		if err != nil {
			return false
		}
		for i := range subOps {
			resp.Batch[i].SubOp = subOps[i] // the encoder's side channel; never on the wire
		}
		c.buf, err = wire.AppendResponseFrame(c.buf[:0], r.Op, resp)
		return err == nil
	}, nil)

	// wal: Reserve → Commit → WaitDurable on a log of its own, with the
	// payload the store would log for each write.
	if tr.sp.durable {
		if err := tr.runWAL(e); err != nil {
			return err
		}
	}

	// net: the full stack over loopback.
	tr.replay(layerNet, func(g int, o op) bool { return e.do(g, o) }, nil)
	var total uint64
	for _, b := range wireBytes {
		total += b
	}
	tr.wireBytesPerOp = perOp(float64(total), tr.rungs[layerWire].ops)
	return nil
}

func (tr *tracer) runWAL(e *serverEnv) error {
	dir, err := os.MkdirTemp(filepath.Join(tr.p.outDir, "tmp"), "wal-rung-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{Mode: wal.ModeBatch, BatchWindow: durableBatchWindow},
		func([]wal.Op) error { return nil })
	if err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	bufs := make([][]byte, len(tr.streams))
	vals := make([][]byte, len(tr.streams))
	for g := range vals {
		vals[g] = make([]byte, tr.sp.valLen)
	}
	tr.replay(layerWAL, func(g int, o op) bool {
		val := vals[g]
		if o.code() == opIncr {
			val = val[:8]
		}
		bufs[g] = wal.AppendSet(bufs[g][:0], keyAt(e.keysA, o.key()), val)
		seq := log.Reserve(bufs[g])
		log.Commit(seq)
		return log.WaitDurable(seq) == nil
	}, nil)
	if err := log.Close(); err != nil {
		return fmt.Errorf("wal rung: close: %w", err)
	}
	return nil
}

// ckptWatcher totals the bytes of checkpoint files that appear in a WAL
// directory while it runs: the checkpointer's share of write
// amplification, observed from outside.
type ckptWatcher struct {
	dir   string
	seen  map[string]bool
	bytes uint64
	stop  chan struct{}
	done  chan struct{}
}

func watchCheckpoints(dir string) *ckptWatcher {
	w := &ckptWatcher{dir: dir, seen: map[string]bool{}, stop: make(chan struct{}), done: make(chan struct{})}
	w.scan(false)
	go func() {
		defer close(w.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				w.scan(true)
				return
			case <-t.C:
				w.scan(true)
			}
		}
	}()
	return w
}

func (w *ckptWatcher) scan(count bool) {
	filepath.WalkDir(w.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".ckpt") || w.seen[path] {
			return nil // files come and go under a live checkpointer
		}
		w.seen[path] = true
		if info, err := d.Info(); err == nil && count {
			w.bytes += uint64(info.Size())
		}
		return nil
	})
}

// finish stops the watcher and returns the checkpoint bytes written
// since it started.
func (w *ckptWatcher) finish() uint64 {
	close(w.stop)
	<-w.done
	return w.bytes
}

// segment is the untraced closed-loop phase of a traced run: real
// traffic, measured like an untraced run's, around which the program's
// public counters are read.
type segment struct {
	load      *loadResult
	typical   windowStats // window medians
	ckptBytes uint64      // checkpoint files written during the measured phase
	userBytes uint64      // key+value bytes the clients wrote during it
	ckptMS    float64     // one explicit Store.Checkpoint after it
}

func runSegment(e env, sp *spec, p *params, streams [][]op) (*segment, error) {
	sg := &segment{}
	se, _ := e.(*serverEnv)
	// The byte counts cover the measured phase only, like the STATS deltas
	// they are divided by: both start once warm-up has ended.
	var watcher *ckptWatcher
	var started func()
	if sp.durable {
		started = func() {
			watcher = watchCheckpoints(se.walDir)
			sg.userBytes = se.userBytes()
		}
	}
	var err error
	sg.load, err = runLoad(e, streams, p, p.segment, started)
	if watcher != nil {
		sg.ckptBytes = watcher.finish()
		sg.userBytes = se.userBytes() - sg.userBytes
	}
	if err != nil {
		return nil, err
	}
	if sp.durable {
		t0 := time.Now()
		if err := se.srv.Store().Checkpoint(context.Background()); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		sg.ckptMS = float64(time.Since(t0).Microseconds()) / 1e3
	}
	sg.typical = timing(sg.load, p)
	return sg, nil
}

// runTraced is the traced run: an untraced closed-loop segment for the
// clock metrics and the public counters, then the ladder replay.
func runTraced(sp *spec, p *params, seed uint64) (_ *result, err error) {
	streams := genStreams(sp, p, seed)
	e, err := setupEnv(sp, p)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := e.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	sg, err := runSegment(e, sp, p, streams)
	if err != nil {
		return nil, err
	}

	tr := &tracer{sp: sp, p: p, streams: streams, t0: time.Now(), top: layerNet}
	tr.runSTM()
	if se, ok := e.(*serverEnv); ok {
		tables := [][]byte{se.keysA}
		if sp.pairs {
			tables = append(tables, se.keysB)
		}
		tr.runStructures(tables...)
		if err := tr.runServerRungs(se); err != nil {
			return nil, err
		}
	} else {
		// The library workload's top rung is the map itself.
		tr.top = layerStructures
		le := e.(*libEnv)
		before := le.tm.Stats().Reads
		tr.replay(layerStructures, func(g int, o op) bool { return e.do(g, o) }, nil)
		tr.readsPerOp = perOp(float64(le.tm.Stats().Reads-before), tr.rungs[layerStructures].ops)
	}
	if err := e.verify(); err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}

	res := &result{Correct: true, Attempted: sg.load.attempted, Failed: sg.load.failed}
	for l := range tr.rungs {
		res.Attempted += tr.rungs[l].ops
		res.Failed += tr.rungs[l].failed
		if tr.rungs[l].failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s rung: %d of %d operations failed their check\n", layerNames[l], tr.rungs[l].failed, tr.rungs[l].ops)
		}
	}
	if res.Failed > 0 {
		return nil, fmt.Errorf("correctness: %d of %d operations failed their check", res.Failed, res.Attempted)
	}
	res.Metrics = tr.layerMetrics(sg, e)

	fmt.Printf("workload %s  seed %d  keys %d  traced ladder replay of %d operations per rung\n", sp.name, seed, p.keys, p.replayOps)
	fmt.Printf("untraced segment: warmed %s and measured %s in windows of %s; %d samples, at least %d per window\n",
		p.warmup, p.segment, p.window, sg.load.ops, minSamples(sg.load.windows))
	fmt.Println("rung          p50_ns   self_ns  allocs/op")
	self := tr.selfTimes()
	var sum float64
	for l := range tr.rungs {
		if r := &tr.rungs[l]; r.ran {
			fmt.Printf("  %-10s %8.0f  %8.0f  %9.3f\n", layerNames[l], r.p50ns, self[l], r.allocsPerOp())
			sum += self[l]
		}
	}
	fmt.Printf("rung self times sum to %.2f us; the untraced p50 is %.2f us\n", sum/1e3, sg.typical.p50us)
	printMetrics(res)
	if err := tr.writeSpans(seed); err != nil {
		return nil, err
	}
	return res, nil
}

// layerMetrics assembles the per-layer metrics: times and allocations
// from the rungs, counts per operation from the segment's counter deltas.
func (tr *tracer) layerMetrics(sg *segment, e env) map[string]metric {
	ms := map[string]metric{}
	set := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }
	rg := func(l int) *rung { return &tr.rungs[l] }
	load := sg.load
	kops := float64(load.ops) / 1e3
	delta := func(name string) float64 { return float64(load.after[name] - load.before[name]) }
	perKop := func(name string) float64 { return delta(name) / kops }

	set("ops_per_s", sg.typical.rate, "1/s")
	set("p50_us", sg.typical.p50us, "us")
	set("p99_us", sg.typical.p99us, "us")
	set("cpu_us_per_op", sg.typical.cpuUs, "us")

	set("stm.txn_ns", rg(layerSTM).p50ns, "ns")
	set("stm.allocs_per_txn", rg(layerSTM).allocsPerOp(), "count")
	for _, sem := range []core.Semantics{core.Def, core.Weak, core.Snapshot, core.Irrevocable} {
		set("stm.aborts_per_kop."+sem.String(), perKop("aborts."+sem.String()), "count")
	}
	set("stm.commit_share", delta("commits")/max(delta("starts"), 1), "ratio")
	set("stm.kills_per_kop", perKop("kills"), "count")
	set("stm.extensions_per_kop", perKop("extensions"), "count")
	set("stm.elastic_cuts_per_kop", perKop("elastic_cuts"), "count")

	set("structures.op_ns", rg(layerStructures).p50ns, "ns")
	set("structures.allocs_per_op", rg(layerStructures).allocsPerOp(), "count")
	set("structures.reads_per_op", tr.readsPerOp, "count")

	set("store.exec_ns", rg(layerStore).p50ns, "ns")
	set("store.allocs_per_op", rg(layerStore).allocsPerOp(), "count")
	set("store.bytes_per_op", perOp(float64(rg(layerStore).bytes), rg(layerStore).ops), "B")
	set("store.xshard_share", delta("xshard_txns")/max(float64(load.byOp[opTxn]), 1), "ratio")
	set("store.xshard_aborts_per_kop", perKop("xshard_aborts"), "count")
	set("store.shard_imbalance", shardImbalance(tr.sp, load), "ratio")

	set("wire.codec_ns", rg(layerWire).p50ns, "ns")
	set("wire.allocs_per_op", rg(layerWire).allocsPerOp(), "count")
	set("wire.bytes_per_op", tr.wireBytesPerOp, "B")

	var rttSelf, netAllocs float64
	if tr.top == layerNet {
		rttSelf = tr.selfTimes()[layerNet] / 1e3
		netAllocs = rg(layerNet).allocsPerOp() - rg(layerStore).allocsPerOp() - rg(layerWire).allocsPerOp()
	}
	set("net.rtt_self_us", rttSelf, "us")
	set("net.allocs_per_op", netAllocs, "count")

	set("wal.append_us", rg(layerWAL).p50ns/1e3, "us")
	set("wal.fsyncs_per_kop", perKop("wal_fsyncs"), "count")
	set("wal.records_per_fsync", delta("wal_records")/max(delta("wal_fsyncs"), 1), "count")
	set("wal.bytes_per_op", perOp(delta("wal_bytes"), load.ops), "B")
	set("wal.write_amp", (delta("wal_bytes")+float64(sg.ckptBytes))/max(float64(sg.userBytes), 1), "ratio")
	set("wal.ckpt_count", delta("wal_checkpoints"), "count")
	set("wal.ckpt_ms", sg.ckptMS, "ms")
	var recoverMS, diskPerLive float64
	if tr.sp.durable {
		se := e.(*serverEnv)
		recoverMS = float64(se.recoverTime.Microseconds()) / 1e3
		diskPerLive = float64(se.diskBytes) / float64(se.liveBytes())
	}
	set("wal.recover_ms", recoverMS, "ms")
	set("wal.disk_bytes_per_live_byte", diskPerLive, "ratio")

	tracedRate := float64(rg(tr.top).ops) / rg(tr.top).wall.Seconds()
	set("trace.overhead_share", 1-tracedRate/sg.typical.rate, "ratio")
	return ms
}

// selfTimes is each rung's median minus the rung below it. The wire rung
// stands alone (codec only); the net rung's self time is what is left of
// the round trip after store and wire. The wal rung is reported beside
// the ladder, not in it: its time is already inside the store rung of a
// durable workload.
func (tr *tracer) selfTimes() [numLayers]float64 {
	var self [numLayers]float64
	p50 := func(l int) float64 { return tr.rungs[l].p50ns }
	self[layerSTM] = p50(layerSTM)
	self[layerStructures] = p50(layerStructures) - p50(layerSTM)
	if tr.top == layerNet {
		self[layerStore] = p50(layerStore) - p50(layerStructures)
		self[layerWire] = p50(layerWire)
		self[layerNet] = p50(layerNet) - p50(layerStore) - p50(layerWire)
	}
	return self
}

// shardImbalance is the busiest shard's routed operations over the mean
// (1 is perfectly even); a single-shard store has no per-shard rows.
func shardImbalance(sp *spec, load *loadResult) float64 {
	if !sp.server {
		return 0
	}
	var maxOps, total float64
	n := 0
	for i := 0; ; i++ {
		name := fmt.Sprintf("shard%d.ops", i)
		if _, ok := load.after[name]; !ok {
			break
		}
		d := float64(load.after[name] - load.before[name])
		maxOps = max(maxOps, d)
		total += d
		n++
	}
	if n == 0 || total == 0 {
		return 1
	}
	return maxOps / (total / float64(n))
}

func (e *serverEnv) userBytes() uint64 {
	var n uint64
	for _, kc := range e.clients {
		n += kc.userBytes
	}
	return n
}

// liveBytes is the user data a durable store holds: every key plus its
// current value.
func (e *serverEnv) liveBytes() uint64 {
	counters := e.p.keys / 10
	return uint64(e.p.keys)*keyLen + uint64(e.p.keys-counters)*uint64(e.sp.valLen) + uint64(counters)*4
}

// spanFileOps bounds the span file: every span is kept in memory and
// reduced to the metrics, but only the spans of each client's first
// spanFileOps operations are written out.
const spanFileOps = 2500

type spanJSON struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Client int    `json:"client"`
	Op     uint32 `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes out/trace-<workload>.json. The operation's span is
// its top-rung span; the lower rungs' spans of the same operation index
// name it as their parent.
func (tr *tracer) writeSpans(seed uint64) error {
	id := func(l, g int, op uint32) string { return fmt.Sprintf("%s/%d/%d", layerNames[l], g, op) }
	var out struct {
		Workload string     `json:"workload"`
		Seed     uint64     `json:"seed"`
		Note     string     `json:"note"`
		Spans    []spanJSON `json:"spans"`
	}
	out.Workload, out.Seed = tr.sp.name, seed
	out.Note = fmt.Sprintf("ladder replay: one span per layer call; op is the operation index shared by every rung; first %d operations per client", spanFileOps)
	for l := range tr.rungs {
		for g, ss := range tr.rungs[l].spans {
			for _, s := range ss {
				if s.op >= spanFileOps {
					break
				}
				j := spanJSON{ID: id(l, g, s.op), Layer: layerNames[l], Client: g, Op: s.op, Start: s.start, End: s.end}
				if l != tr.top {
					j.Parent = id(tr.top, g, s.op)
				}
				out.Spans = append(out.Spans, j)
			}
		}
	}
	data, err := json.Marshal(&out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tr.p.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(tr.p.outDir, "trace-"+tr.sp.name+".json"), data, 0o644)
}
