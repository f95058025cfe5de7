package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"polytm/internal/core"
	"polytm/internal/server"
	"polytm/internal/server/client"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// preloadDepth is the client pipeline depth used while preloading.
const preloadDepth = 64

// serverEnv is a loopback polyserve with its closed-loop clients.
type serverEnv struct {
	sp *spec
	p  *params

	srv       *server.Server
	serveDone chan error
	walDir    string // "" when volatile
	durOpen   bool   // the store's durability is open and must be closed
	down      bool   // Shutdown has run

	keysA, keysB []byte // key tables; keysB only for pair workloads
	admin        *client.Client
	clients      []*kvClient

	// Filled by verify on a durable workload.
	recoverTime time.Duration
	diskBytes   uint64 // WAL directory size after the final close
}

// kvClient is one closed-loop client: a single connection and the
// request storage it reuses for every operation.
type kvClient struct {
	cl   *client.Client
	req  wire.Request
	resp wire.Response // in-process replies (the ladder's store rung)
	sub  [4]wire.Request
	keys [2][]byte
	val  []byte
	seq  uint64

	userBytes uint64 // key+value bytes this client has written

	// Durable workloads: this client's half of the keyspace and the last
	// acknowledged stamp (or counter value) of each of its keys.
	lo   int
	last []uint64
}

func (e *serverEnv) durability() server.Durability {
	return server.Durability{
		Dir:             e.walDir,
		Fsync:           wal.ModeBatch,
		BatchWindow:     durableBatchWindow,
		CheckpointEvery: durableCheckpoint,
	}
}

func newServerEnv(sp *spec, p *params) (_ env, err error) {
	e := &serverEnv{sp: sp, p: p}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	e.keysA = keyTable('k', p.keys)
	if sp.pairs {
		e.keysA, e.keysB = pairTables(p.keys)
	}
	e.srv = server.New(server.Config{StoreShards: sp.shards})
	if sp.durable {
		tmp := filepath.Join(p.outDir, "tmp")
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		if e.walDir, err = os.MkdirTemp(tmp, "wal-*"); err != nil {
			return nil, err
		}
		// Opening an empty directory still runs recovery end to end.
		if _, err := e.srv.Store().EnableDurability(e.durability()); err != nil {
			return nil, fmt.Errorf("enable durability: %w", err)
		}
		e.durOpen = true
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.serveDone = make(chan error, 1)
	go func() { e.serveDone <- e.srv.Serve(ln) }()
	addr := ln.Addr().String()

	if e.admin, err = client.Dial(addr, client.WithPoolSize(numClients)); err != nil {
		return nil, err
	}
	if err := e.preload(); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	if sp.durable {
		if err := e.srv.Store().Checkpoint(context.Background()); err != nil {
			return nil, fmt.Errorf("first checkpoint: %w", err)
		}
	}
	for c := 0; c < numClients; c++ {
		cl, err := client.Dial(addr, client.WithPoolSize(1))
		if err != nil {
			return nil, err
		}
		kc := &kvClient{cl: cl, val: make([]byte, sp.valLen)}
		if sp.durable {
			kc.lo = c * p.keys / numClients
			kc.last = make([]uint64, (c+1)*p.keys/numClients-kc.lo)
		}
		e.clients = append(e.clients, kc)
	}
	return e, nil
}

// preload writes every key through the wire, numClients pipelines of
// preloadDepth SETs at a time.
func (e *serverEnv) preload() error {
	tables := [][]byte{e.keysA}
	if e.sp.pairs {
		tables = append(tables, e.keysB)
	}
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			vals := make([]byte, preloadDepth*e.sp.valLen)
			pl := e.admin.Pipeline()
			flush := func() error {
				resps, err := pl.Exec()
				if err != nil {
					return err
				}
				for _, r := range resps {
					if r.Status != wire.StatusOK {
						return fmt.Errorf("SET: %s %s", r.Status, r.Msg)
					}
				}
				return nil
			}
			for _, tab := range tables {
				for k := c * e.p.keys / numClients; k < (c+1)*e.p.keys/numClients; k++ {
					v := vals[pl.Len()*e.sp.valLen:][:e.sp.valLen]
					if e.sp.counters && isCounter(k) {
						v = v[:1]
						v[0] = '0'
					} else {
						fillValue(v, k, 0)
					}
					pl.Set(keyAt(tab, k), v)
					if pl.Len() == preloadDepth {
						if errs[c] = flush(); errs[c] != nil {
							return
						}
					}
				}
			}
			if pl.Len() > 0 {
				errs[c] = flush()
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// build fills the client's reusable request for o and returns it with
// the stamp any value it writes carries (nil for an opcode the server
// workloads do not use).
func (e *serverEnv) build(kc *kvClient, o op) (*wire.Request, uint64) {
	k := o.key()
	kc.seq++
	stamp := uint64(o.stamp())<<32 | kc.seq&0xFFFFFFFF
	r := &kc.req
	switch o.code() {
	case opGet:
		*r = wire.Request{Op: wire.OpGet, Key: keyAt(e.keysA, k)}
	case opScan:
		*r = wire.Request{Op: wire.OpScan, From: keyAt(e.keysA, k), Limit: uint64(e.sp.scanLimit)}
	case opSet:
		fillValue(kc.val, k, stamp)
		*r = wire.Request{Op: wire.OpSet, Key: keyAt(e.keysA, k), Val: kc.val}
		kc.userBytes += uint64(keyLen + len(kc.val))
	case opIncr:
		*r = wire.Request{Op: wire.OpIncr, Key: keyAt(e.keysA, k), Delta: 1}
		kc.userBytes += keyLen + 8
	case opTxn:
		fillValue(kc.val, k, stamp)
		a, b := keyAt(e.keysA, k), keyAt(e.keysB, k)
		kc.sub = [4]wire.Request{
			{Op: wire.OpGet, Key: a}, {Op: wire.OpGet, Key: b},
			{Op: wire.OpSet, Key: a, Val: kc.val}, {Op: wire.OpSet, Key: b, Val: kc.val},
		}
		*r = wire.Request{Op: wire.OpTxn, Batch: kc.sub[:]}
		kc.userBytes += 2 * uint64(keyLen+len(kc.val))
	case opMGet:
		kc.keys = [2][]byte{keyAt(e.keysA, k), keyAt(e.keysB, k)}
		*r = wire.Request{Op: wire.OpMGet, Keys: kc.keys[:]}
	default:
		return nil, 0
	}
	r.Sem = wire.SemDefault
	return r, stamp
}

func (e *serverEnv) do(c int, o op) bool { return e.doVia(c, o, false) }

// doVia executes one operation for client c — over the client's
// connection, or with inProcess straight into Store.ExecuteInto (the
// ladder's store rung) — and checks the reply either way.
func (e *serverEnv) doVia(c int, o op, inProcess bool) bool {
	kc := e.clients[c]
	k := o.key()
	r, stamp := e.build(kc, o)
	if r == nil {
		return false
	}
	resp := &kc.resp
	if inProcess {
		e.srv.Store().ExecuteInto(r, resp)
	} else {
		resps, err := kc.cl.Do(r)
		if err != nil || len(resps) != 1 {
			return false
		}
		resp = resps[0]
	}
	if !checkResponse(e.sp, r, resp, k) {
		return false
	}
	switch o.code() {
	case opSet:
		if kc.last != nil {
			kc.last[k-kc.lo] = stamp
		}
	case opIncr:
		// The counter belongs to this client alone, so the reply is
		// exactly one more than the last one.
		if uint64(resp.Int) != kc.last[k-kc.lo]+1 {
			return false
		}
		kc.last[k-kc.lo]++
	}
	return true
}

// checkResponse verifies one reply against its request: the status must
// be OK and every value read must carry its key's checksum. k is the
// operation's key (pair) index.
func checkResponse(sp *spec, r *wire.Request, resp *wire.Response, k int) bool {
	if resp.Status != wire.StatusOK {
		return false
	}
	switch r.Op {
	case wire.OpGet:
		return valueOK(resp.Val, k)
	case wire.OpScan:
		if len(resp.Pairs) == 0 || len(resp.Pairs) > sp.scanLimit {
			return false
		}
		prev := -1
		for i := range resp.Pairs {
			idx, ok := keyIndex(resp.Pairs[i].Key)
			if !ok || idx <= prev || idx < k || !valueOK(resp.Pairs[i].Val, idx) {
				return false
			}
			prev = idx
		}
		return true
	case wire.OpTxn:
		if len(resp.Batch) != 4 {
			return false
		}
		for i := range resp.Batch {
			if resp.Batch[i].Status != wire.StatusOK {
				return false
			}
		}
		// a and b are only ever written together, so the transaction's
		// own (atomic) reads must see the same bytes in both.
		return valueOK(resp.Batch[0].Val, k) && bytes.Equal(resp.Batch[0].Val, resp.Batch[1].Val)
	case wire.OpMGet:
		// A sharded MGET is one snapshot per shard, not one across shards
		// (README "Consistency contract"), so a pair that straddles shards
		// may legally be read mid-commit: each value must be intact, but
		// the two need not be equal.
		if len(resp.Batch) != 2 || resp.Batch[0].Status != wire.StatusOK || resp.Batch[1].Status != wire.StatusOK {
			return false
		}
		return valueOK(resp.Batch[0].Val, k) && valueOK(resp.Batch[1].Val, k)
	}
	return true
}

func (e *serverEnv) counters() (map[string]uint64, error) { return e.admin.Stats() }

// settle checkpoints a durable store twice. The first cut empties the
// dirty set, whatever the phase of the 5 s cycle; the second, with
// nothing dirty, folds the delta chain into one base. From then on the
// periodic checkpointer finds the store idle and skips, so the heap is
// never read with one of its cuts (a 30 MB buffer) in flight.
func (e *serverEnv) settle() error {
	if !e.sp.durable {
		return nil
	}
	for i := 0; i < 2; i++ {
		if err := e.srv.Store().Checkpoint(context.Background()); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

func (e *serverEnv) verify() error {
	cs, err := e.counters()
	if err != nil {
		return fmt.Errorf("STATS: %w", err)
	}
	if n := cs["aborts.snapshot"]; n != 0 {
		return fmt.Errorf("snapshot-semantics transactions aborted %d times; they must never abort", n)
	}
	if !e.sp.durable {
		return nil
	}
	return e.verifyReopen()
}

// verifyReopen closes the durable store, reopens it from the directory
// alone, and requires every key to hold its last acknowledged value.
func (e *serverEnv) verifyReopen() error {
	if err := e.stop(); err != nil {
		return err
	}
	var err error
	if e.diskBytes, err = dirSize(e.walDir); err != nil {
		return err
	}
	st := server.NewStore(core.New(core.Config{}))
	d := e.durability()
	d.CheckpointEvery = 0
	t0 := time.Now()
	if _, err := st.EnableDurability(d); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	e.recoverTime = time.Since(t0)
	var bad int
	var first string
	var req wire.Request
	var resp wire.Response
	want := make([]byte, e.sp.valLen)
	for _, kc := range e.clients {
		for i, last := range kc.last {
			k := kc.lo + i
			req = wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: keyAt(e.keysA, k)}
			st.ExecuteInto(&req, &resp)
			var ok bool
			if isCounter(k) {
				ok = resp.Status == wire.StatusOK && string(resp.Val) == strconv.FormatUint(last, 10)
			} else {
				fillValue(want, k, last)
				ok = resp.Status == wire.StatusOK && len(resp.Val) == e.sp.valLen && bytes.Equal(resp.Val[:16], want[:16])
			}
			if !ok {
				if bad == 0 {
					first = fmt.Sprintf("key %d: status %s, %d value bytes", k, resp.Status, len(resp.Val))
				}
				bad++
			}
		}
	}
	if err := st.CloseDurability(); err != nil {
		return fmt.Errorf("close reopened store: %w", err)
	}
	if bad > 0 {
		return fmt.Errorf("reopen lost %d acknowledged values (first: %s)", bad, first)
	}
	return nil
}

// stop drains the server and closes durability; errors from either fail
// the run. It is idempotent.
func (e *serverEnv) stop() error {
	var errs []error
	for _, kc := range e.clients {
		if kc.cl != nil {
			errs = append(errs, kc.cl.Close())
			kc.cl = nil
		}
	}
	if e.admin != nil {
		errs = append(errs, e.admin.Close())
		e.admin = nil
	}
	if e.srv != nil && !e.down {
		// Shutdown also stops the store's background reaper, so it runs
		// even when set-up failed before Serve started.
		e.down = true
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := e.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shutdown: %w", err))
		}
		cancel()
		if e.serveDone != nil {
			if err := <-e.serveDone; err != nil && !errors.Is(err, server.ErrServerClosed) {
				errs = append(errs, fmt.Errorf("serve: %w", err))
			}
		}
	}
	if e.durOpen {
		e.durOpen = false
		if err := e.srv.Store().CloseDurability(); err != nil {
			errs = append(errs, fmt.Errorf("close durability: %w", err))
		}
	}
	return errors.Join(errs...)
}

func (e *serverEnv) close() error {
	err := e.stop()
	if e.walDir != "" {
		err = errors.Join(err, os.RemoveAll(e.walDir))
		e.walDir = ""
	}
	return err
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (uint64, error) {
	var n uint64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += uint64(info.Size())
		return nil
	})
	return n, err
}
