// Command polybench runs the throughput experiments listed in README
// "Running things" from the shell: the integer-set micro-benchmarks
// (B1 list, B3 skip list), the resize experiment (B2), the
// snapshot-scan experiment (B4), the contention-manager ablation (B5),
// the engine-scalability experiment (B7), and the loopback polyserve
// experiments the ledger (bench/) has not absorbed yet: replica,
// recover, session, reshard. The plain GET/SCAN/SET server mix is the
// ledger's: bash bench/run.sh --workload kv-read-mostly |
// kv-durable-write | txn-zipf-2pc.
//
// Usage:
//
//	polybench -bench list  -updates 10 -range 512 -workers 1,2,4,8 -dur 300ms
//	polybench -bench hash  -updates 25 -range 4096 -resize-every 10ms
//	polybench -bench skip  -updates 10 -range 4096
//	polybench -bench scan  -workers 4
//	polybench -bench cm    -workers 8
//	polybench -bench scale -workers 1,2,4,8 -shards 0
//	polybench -bench replica -workers 4 -get-pct 90 -scan-pct 5
//	polybench -bench recover -recover-keys 200000
//	polybench -bench session -workers 1,4,8
//	polybench -bench all
//	polybench -bench scale -json        # machine-readable results
//
// -bench scale is the engine-scalability experiment behind the sharded
// synchronization state: a mixed-semantics transaction stream (def
// updates, weak elastic walks, snapshot scans, occasional irrevocable
// writes) across worker counts; -shards overrides the engine's stripe
// count (0 = GOMAXPROCS-derived default, 1 = the old centralized
// layout, for A/B comparison).
//
// -bench recover is the checkpoint + restart-cost experiment behind
// incremental checkpoints: a -recover-keys store is filled, base-
// checkpointed, churned at 1% and 10%, checkpointed again under the
// full-only policy (Durability.MaxChain < 0) and the incremental
// default, then closed and re-opened with the recovery wall time
// measured. JSON rows carry churn_pct, ckpt_bytes (the
// churn checkpoint's cost), base_bytes, and restart_sec — the claim
// under test is that the incremental ckpt_bytes track churn while the
// full ones track keyspace size.
//
// -bench replica runs the replication read-split experiment: an
// in-process durable batch-fsync primary on a loopback listener, driven
// through the wire client with a GET/SCAN/SET mix (-get-pct, -scan-pct;
// the remainder is SETs), measured alone, with a streaming follower
// attached, and with the replica-aware client splitting GET/SCAN across
// the follower while SETs stay pinned to the primary. JSON rows carry
// the topology and the replication lag in bytes sampled at the end of
// the measured window.
//
// -json switches the output to a JSON array of result records (name,
// workers, ops, txns/s, aborts, per-semantics classes) for recording
// BENCH_*.json trajectories; an unknown -bench exits nonzero.
//
// The scale and replica experiments additionally record allocator cost
// (allocs/op and B/op, from runtime.MemStats deltas across the measured
// section, all goroutines included — for the replica experiment that
// means client and servers together). -allocs prints those columns
// in table mode; JSON records always carry them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"polytm/internal/baseline"
	"polytm/internal/core"
	"polytm/internal/harness"
	"polytm/internal/lockfree"
	"polytm/internal/repl"
	"polytm/internal/server"
	"polytm/internal/server/client"
	"polytm/internal/stm"
	"polytm/internal/structures"
	"polytm/internal/wal"
	"polytm/internal/wire"
	"polytm/internal/workload"
)

// shutdownContext bounds a loopback server teardown.
func shutdownContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 5*time.Second)
}

// sleepCtx sleeps the measurement window, waking early when ctx is
// cancelled (Ctrl-C mid-benchmark).
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// semRecord is the per-semantics-class slice of a JSON record.
type semRecord struct {
	Starts    uint64  `json:"starts"`
	Commits   uint64  `json:"commits"`
	Aborts    uint64  `json:"aborts"`
	AbortRate float64 `json:"abort_rate"`
}

// record is one machine-readable benchmark result row.
type record struct {
	Bench        string               `json:"bench"`
	Name         string               `json:"name"`
	Workers      int                  `json:"workers"`
	DurationSec  float64              `json:"duration_sec"`
	Ops          uint64               `json:"ops"`
	TxnsPerSec   float64              `json:"txns_per_sec"`
	AllocsPerOp  *float64             `json:"allocs_per_op,omitempty"`
	BytesPerOp   *float64             `json:"b_per_op,omitempty"`
	Aborts       *uint64              `json:"aborts,omitempty"`
	AbortRate    *float64             `json:"abort_rate,omitempty"`
	StoreShards  int                  `json:"store_shards,omitempty"`
	Session      map[string]uint64    `json:"session,omitempty"`
	Dist         string               `json:"dist,omitempty"`
	Topology     string               `json:"topology,omitempty"`
	LagBytes     *uint64              `json:"lag_bytes,omitempty"`
	ChurnPct     int                  `json:"churn_pct,omitempty"`
	RestartSec   *float64             `json:"restart_sec,omitempty"`
	CkptBytes    *uint64              `json:"ckpt_bytes,omitempty"`
	BaseBytes    *uint64              `json:"base_bytes,omitempty"`
	PerSemantics map[string]semRecord `json:"per_semantics,omitempty"`
}

// memCounters snapshots the allocator's monotonic counters around a
// measured section; the delta divided by the op count gives allocs/op
// and B/op the way `go test -benchmem` reports them, except that every
// goroutine in the process is included.
type memCounters struct{ mallocs, bytes uint64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// memDelta is the per-op allocator cost of one measured section.
type memDelta struct{ allocsPerOp, bytesPerOp float64 }

// perOp folds a counter pair and an op count into a memDelta.
func (m memCounters) perOp(end memCounters, ops uint64) *memDelta {
	if ops == 0 {
		return nil
	}
	return &memDelta{
		allocsPerOp: float64(end.mallocs-m.mallocs) / float64(ops),
		bytesPerOp:  float64(end.bytes-m.bytes) / float64(ops),
	}
}

// report collects result rows and owns the output mode: human tables on
// stdout, or one JSON array at exit.
type report struct {
	json   bool
	allocs bool
	rows   []record
}

// printf writes table output unless JSON mode is on.
func (r *report) printf(format string, args ...any) {
	if !r.json {
		fmt.Printf(format, args...)
	}
}

// add records one row.
func (r *report) add(rec record) { r.rows = append(r.rows, rec) }

// tagLast annotates the most recently added row with the server
// experiment's store-shard count and key distribution.
func (r *report) tagLast(storeShards int, dist string) {
	if len(r.rows) == 0 {
		return
	}
	r.rows[len(r.rows)-1].StoreShards = storeShards
	r.rows[len(r.rows)-1].Dist = dist
}

// tagReplica annotates the most recently added row with the replica
// experiment's topology and (when a follower was attached) the
// replication lag sampled at the end of the measured window.
func (r *report) tagReplica(topology string, lag *uint64) {
	if len(r.rows) == 0 {
		return
	}
	r.rows[len(r.rows)-1].Topology = topology
	r.rows[len(r.rows)-1].LagBytes = lag
}

// memSuffix renders the optional allocs/op table column.
func (r *report) memSuffix(mem *memDelta) string {
	if !r.allocs || mem == nil {
		return ""
	}
	return fmt.Sprintf("  %7.2f allocs/op %8.0f B/op", mem.allocsPerOp, mem.bytesPerOp)
}

// addResult records a harness row (no engine stats available).
func (r *report) addResult(bench string, res harness.Result) {
	r.add(record{
		Bench:       bench,
		Name:        res.Name,
		Workers:     res.Workers,
		DurationSec: res.Duration.Seconds(),
		Ops:         res.Ops,
		TxnsPerSec:  res.Throughput(),
	})
}

// addWithStats records a row with engine counters (and, when measured,
// allocator cost) attached.
func (r *report) addWithStats(bench, name string, workers int, dur time.Duration, ops uint64, s stm.StatsSnapshot, mem *memDelta) {
	aborts := s.Aborts
	rate := s.AbortRate()
	rec := record{
		Bench:       bench,
		Name:        name,
		Workers:     workers,
		DurationSec: dur.Seconds(),
		Ops:         ops,
		TxnsPerSec:  float64(ops) / dur.Seconds(),
		Aborts:      &aborts,
		AbortRate:   &rate,
	}
	if mem != nil {
		rec.AllocsPerOp = &mem.allocsPerOp
		rec.BytesPerOp = &mem.bytesPerOp
	}
	per := map[string]semRecord{}
	for _, p := range []stm.Semantics{stm.SemanticsDef, stm.SemanticsWeak, stm.SemanticsSnapshot, stm.SemanticsIrrevocable} {
		c := s.Sem(p)
		if c.Starts == 0 {
			continue
		}
		per[p.String()] = semRecord{Starts: c.Starts, Commits: c.Commits, Aborts: c.Aborts, AbortRate: c.AbortRate()}
	}
	if len(per) > 0 {
		rec.PerSemantics = per
	}
	r.add(rec)
}

// flush emits the JSON array in JSON mode.
func (r *report) flush() {
	if !r.json {
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.rows); err != nil {
		fmt.Fprintf(os.Stderr, "polybench: json: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	bench := flag.String("bench", "all", "which experiment: list, hash, skip, scan, cm, scale, replica, recover, session, reshard, all")
	updates := flag.Int("updates", 10, "update percentage")
	keyRange := flag.Uint64("range", 512, "key range (steady-state size is half)")
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated worker counts")
	dur := flag.Duration("dur", 200*time.Millisecond, "duration per configuration")
	resizeEvery := flag.Duration("resize-every", 10*time.Millisecond, "resize cadence for -bench hash")
	seed := flag.Int64("seed", 1, "workload seed")
	shards := flag.Int("shards", 0, "engine shard count for -bench scale and the loopback servers (0 = GOMAXPROCS default)")
	storeShards := flag.Int("store-shards", 1, "keyspace shard count for -bench replica/session/reshard (0 = GOMAXPROCS, capped at 16)")
	getPct := flag.Int("get-pct", 80, "GET percentage for -bench replica/reshard")
	scanPct := flag.Int("scan-pct", 10, "SCAN percentage for -bench replica/reshard (remainder is SETs)")
	scanLimit := flag.Uint64("scan-limit", 16, "SCAN window for -bench replica/reshard")
	recoverKeys := flag.Int("recover-keys", 200000, "key count for -bench recover")
	fsyncFlag := flag.String("fsync", "", "fsync mode of -bench replica's primary (always, batch, off); empty = batch")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON results instead of tables")
	allocs := flag.Bool("allocs", false, "print allocs/op and B/op columns for -bench scale/replica table output")
	flag.Parse()

	var workers []int
	for _, f := range strings.Split(*workersFlag, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w <= 0 {
			fmt.Fprintf(os.Stderr, "polybench: bad worker count %q\n", f)
			os.Exit(2)
		}
		workers = append(workers, w)
	}
	if *getPct < 0 || *scanPct < 0 || *getPct+*scanPct > 100 {
		fmt.Fprintf(os.Stderr, "polybench: bad mix: -get-pct %d -scan-pct %d (must be >= 0 and sum <= 100)\n",
			*getPct, *scanPct)
		os.Exit(2)
	}
	if *storeShards <= 0 {
		*storeShards = min(runtime.GOMAXPROCS(0), 16)
	}
	mix := workload.Mix{UpdatePct: *updates, KeyRange: *keyRange}
	base := harness.Config{Duration: *dur, Mix: mix, Seed: *seed}
	rep := &report{json: *jsonOut, allocs: *allocs}

	// Ctrl-C (or SIGTERM) cancels the whole run through the same context
	// plumbing the engine exposes: measurement sleeps wake, worker loops
	// drain, the loopback server's Shutdown cancels its in-flight
	// transactions, and whatever rows completed are still reported. A
	// second signal falls back to the runtime's immediate exit.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// One source of truth for the bench catalogue: "all" runs the slice
	// in order, a named bench is looked up in it, and the usage string
	// is derived from it.
	benches := []struct {
		name string
		run  func()
	}{
		{"list", func() { benchList(ctx, rep, base, workers) }},
		{"hash", func() { benchHash(ctx, rep, base, workers, *resizeEvery) }},
		{"skip", func() { benchSkip(ctx, rep, base, workers) }},
		{"scan", func() { benchScan(ctx, rep, base, workers) }},
		{"cm", func() { benchCM(ctx, rep, base, workers) }},
		{"scale", func() { benchScale(ctx, rep, base, workers, *shards) }},
		{"replica", func() {
			benchReplica(ctx, rep, base, workers, *shards, *storeShards, *getPct, *scanPct, *scanLimit, *fsyncFlag)
		}},
		{"recover", func() { benchRecover(ctx, rep, *recoverKeys) }},
		{"session", func() { benchSession(ctx, rep, base, workers, *shards, *storeShards) }},
		{"reshard", func() {
			benchReshard(ctx, rep, base, workers, *shards, *storeShards, *getPct, *scanPct, *scanLimit)
		}},
	}
	ran := false
	var names []string
	for _, b := range benches {
		names = append(names, b.name)
		if *bench == "all" && ctx.Err() == nil {
			b.run()
			ran = true
		} else if *bench == b.name {
			b.run()
			ran = true
		}
	}
	if !ran && !(*bench == "all" && ctx.Err() != nil) {
		fmt.Fprintf(os.Stderr, "polybench: unknown bench %q (valid: %s, all)\n", *bench, strings.Join(names, ", "))
		os.Exit(2)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "polybench: interrupted — reporting completed rows")
	}
	rep.flush()
}

func benchList(ctx context.Context, rep *report, base harness.Config, workers []int) {
	title := fmt.Sprintf("B1: sorted-list integer set, %d%% updates, range %d",
		base.Mix.UpdatePct, base.Mix.KeyRange)
	var rows []harness.Result
	mk := map[string]func() workload.IntSet{
		"coarse-lock":         func() workload.IntSet { return baseline.NewCoarseList() },
		"lazy-lock (tuned)":   func() workload.IntSet { return baseline.NewLazyList() },
		"lock-free (Michael)": func() workload.IntSet { return lockfree.NewList() },
		"stm-mono (def)":      func() workload.IntSet { return structures.NewTList(core.NewDefault(), core.Def) },
		"stm-poly (weak)":     func() workload.IntSet { return structures.NewTList(core.NewDefault(), core.Weak) },
	}
	for _, name := range []string{"coarse-lock", "lazy-lock (tuned)", "lock-free (Michael)", "stm-mono (def)", "stm-poly (weak)"} {
		if ctx.Err() != nil {
			break
		}
		cfg := base
		cfg.Name = name
		rows = append(rows, harness.Sweep(mk[name], cfg, workers)...)
	}
	for _, r := range rows {
		rep.addResult("list", r)
	}
	rep.printf("%s", harness.Table(title, rows))
}

func benchHash(ctx context.Context, rep *report, base harness.Config, workers []int, every time.Duration) {
	title := fmt.Sprintf("B2: hash set with background resize every %v, %d%% updates, range %d",
		every, base.Mix.UpdatePct, base.Mix.KeyRange)
	var rows []harness.Result
	for _, w := range workers {
		if ctx.Err() != nil {
			break
		}
		cfg := base
		cfg.Workers = w
		cfg.ResizeEvery = every

		cfg.Name = "stm-mono (def ops)"
		tmM := core.NewDefault()
		hm := structures.NewTHash(tmM, core.Def, 16)
		growM := true
		cfg.Resizer = func() { hm.Resize(growM); growM = !growM }
		rows = append(rows, harness.Run(hm, cfg))

		cfg.Name = "stm-poly (weak ops)"
		tmP := core.NewDefault()
		hp := structures.NewTHash(tmP, core.Weak, 16)
		growP := true
		cfg.Resizer = func() { hp.Resize(growP); growP = !growP }
		rows = append(rows, harness.Run(hp, cfg))

		cfg.Name = "coarse-lock"
		hc := baseline.NewCoarseHash(16)
		growC := true
		cfg.Resizer = func() { hc.Resize(growC); growC = !growC }
		rows = append(rows, harness.Run(hc, cfg))

		cfg.Name = "striped-lock"
		hs := baseline.NewStripedHash(16, 16)
		growS := true
		cfg.Resizer = func() { hs.Resize(growS); growS = !growS }
		rows = append(rows, harness.Run(hs, cfg))

		cfg.Name = "split-ordered (lock-free)"
		cfg.Resizer = nil // grows automatically; that is its point
		rows = append(rows, harness.Run(lockfree.NewSplitOrdered(), cfg))
	}
	for _, r := range rows {
		rep.addResult("hash", r)
	}
	rep.printf("%s", harness.Table(title, rows))
}

func benchSkip(ctx context.Context, rep *report, base harness.Config, workers []int) {
	title := fmt.Sprintf("B3: skip-list integer set, %d%% updates, range %d",
		base.Mix.UpdatePct, base.Mix.KeyRange)
	var rows []harness.Result
	for _, spec := range []struct {
		name string
		mk   func() workload.IntSet
	}{
		{"coarse-lock", func() workload.IntSet { return baseline.NewCoarseSkipList() }},
		{"stm-mono (def)", func() workload.IntSet { return structures.NewTSkipList(core.NewDefault(), core.Def) }},
		{"stm-poly (weak search)", func() workload.IntSet { return structures.NewTSkipList(core.NewDefault(), core.Weak) }},
	} {
		if ctx.Err() != nil {
			break
		}
		cfg := base
		cfg.Name = spec.name
		rows = append(rows, harness.Sweep(spec.mk, cfg, workers)...)
	}
	for _, r := range rows {
		rep.addResult("skip", r)
	}
	rep.printf("%s", harness.Table(title, rows))
}

// benchScan measures full-structure scans concurrent with writers under
// def vs snapshot semantics (B4).
func benchScan(ctx context.Context, rep *report, base harness.Config, workers []int) {
	rep.printf("== B4: full-list scans under concurrent writers ==\n")
	for _, w := range workers {
		for _, sem := range []core.Semantics{core.Def, core.Snapshot} {
			if ctx.Err() != nil {
				return
			}
			tm := core.NewDefault()
			l := structures.NewTList(tm, core.Weak)
			for k := uint64(0); k < base.Mix.KeyRange; k += 2 {
				l.Insert(k)
			}
			stop := make(chan struct{})
			done := make(chan struct{})
			// Writers churn the list.
			for i := 0; i < w; i++ {
				go func(seed int64) {
					g := workload.NewGenerator(seed, workload.Mix{UpdatePct: 100, KeyRange: base.Mix.KeyRange})
					for {
						select {
						case <-stop:
							return
						default:
						}
						workload.Apply(l, g.Next())
					}
				}(base.Seed + int64(i))
			}
			// One scanner under the chosen semantics.
			var scans uint64
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					_ = scanList(tm, l, sem)
					scans++
				}
			}()
			start := time.Now()
			sleepCtx(ctx, base.Duration)
			close(stop)
			<-done
			el := time.Since(start)
			s := tm.Stats()
			rep.printf("  scan(%-8v) writers=%-3d %10.1f scans/s (engine aborts total: %d)\n",
				sem, w, float64(scans)/el.Seconds(), s.Aborts)
			rep.addWithStats("scan", fmt.Sprintf("scan-%v", sem), w, el, scans, s, nil)
		}
	}
}

func scanList(tm *core.TM, l *structures.TList, sem core.Semantics) uint64 {
	if sem == core.Snapshot {
		return l.Sum()
	}
	var sum uint64
	for _, k := range l.Snapshot() {
		sum += k
	}
	return sum
}

// benchScale is the engine-scalability experiment (B7): a mixed-
// semantics transaction stream — the paper's polymorphism exercised as
// a load profile — directly against one engine, across worker counts.
// It is the experiment the sharded engine state (striped stats, sharded
// live/snapshot registries, batched id allocation) exists for.
func benchScale(ctx context.Context, rep *report, base harness.Config, workers []int, shards int) {
	printedHeader := false
	for _, w := range workers {
		if ctx.Err() != nil {
			return
		}
		e := stm.NewEngine(stm.Config{Shards: shards})
		if !printedHeader {
			rep.printf("== B7: mixed-semantics engine scalability (shards=%d) ==\n", e.Shards())
			printedHeader = true
		}
		vars := workload.MixedVars(e, 64)
		stop := make(chan struct{})
		doneCh := make(chan uint64, w)
		ready := make(chan struct{})
		for i := 0; i < w; i++ {
			go func(seed uint64) {
				var n uint64
				mw := workload.NewMixedWorker(e, vars, workload.MixedSeed(seed+uint64(base.Seed)*7919))
				<-ready
				for {
					select {
					case <-stop:
						doneCh <- n
						return
					default:
					}
					mw.Step()
					n++
				}
			}(uint64(i + 1))
		}
		m0 := readMem()
		start := time.Now()
		close(ready)
		sleepCtx(ctx, base.Duration)
		close(stop)
		var total uint64
		for i := 0; i < w; i++ {
			total += <-doneCh
		}
		el := time.Since(start)
		m1 := readMem()
		mem := m0.perOp(m1, total)
		s := e.Stats()
		rep.printf("  workers=%-3d %12.0f txns/s  abort-rate=%.3f%s\n",
			w, float64(total)/el.Seconds(), s.AbortRate(), rep.memSuffix(mem))
		rep.addWithStats("scale", fmt.Sprintf("scale-shards%d", e.Shards()), w, el, total, s, mem)
	}
}

// benchCM is the contention-manager ablation (B5): a high-contention
// counter array under each manager.
func benchCM(ctx context.Context, rep *report, base harness.Config, workers []int) {
	rep.printf("== B5: contention-manager ablation (8-counter hotspot) ==\n")
	cms := []struct {
		name string
		f    stm.CMFactory
	}{
		{"suicide", stm.NewSuicide()},
		{"polite", stm.NewPolite(8)},
		{"backoff", stm.NewBackoff(0, 0)},
		{"karma", stm.NewKarma()},
		{"timestamp", stm.NewTimestamp()},
		{"aggressive", stm.NewAggressive()},
	}
	for _, w := range workers {
		for _, cm := range cms {
			if ctx.Err() != nil {
				return
			}
			tm := core.NewDefault()
			vars := make([]*core.TVar[int], 8)
			for i := range vars {
				vars[i] = core.NewTVar(tm, 0)
			}
			stop := make(chan struct{})
			doneCh := make(chan uint64, w)
			for i := 0; i < w; i++ {
				go func(seed uint64) {
					var n uint64
					r := seed
					for {
						select {
						case <-stop:
							doneCh <- n
							return
						default:
						}
						r = r*1664525 + 1013904223
						i := int(r>>8) % len(vars)
						j := int(r>>16) % len(vars)
						_ = tm.Atomic(func(tx *core.Tx) error {
							a, err := core.Get(tx, vars[i])
							if err != nil {
								return err
							}
							if err := core.Set(tx, vars[i], a+1); err != nil {
								return err
							}
							return core.Modify(tx, vars[j], func(v int) int { return v - 1 })
						}, core.WithContentionManager(cm.f))
						n++
					}
				}(uint64(i + 1))
			}
			start := time.Now()
			sleepCtx(ctx, base.Duration)
			close(stop)
			var total uint64
			for i := 0; i < w; i++ {
				total += <-doneCh
			}
			el := time.Since(start)
			s := tm.Stats()
			rep.printf("  cm=%-10s workers=%-3d %12.0f txns/s  abort-rate=%.3f\n",
				cm.name, w, float64(total)/el.Seconds(), s.AbortRate())
			rep.addWithStats("cm", "cm-"+cm.name, w, el, total, s, nil)
		}
	}
}

// zipfGen draws keys from a zipfian popularity distribution over
// [0, n) with the YCSB constant theta=0.99, using the standard
// Gray et al. rejection-free inversion: the generator is immutable
// after construction, so one instance is shared read-only across all
// workers, each feeding it its own uniform stream.
type zipfGen struct {
	n                 uint64
	theta             float64
	alpha, zetan, eta float64
	halfPowTheta      float64
}

func newZipfGen(n uint64) *zipfGen {
	const theta = 0.99
	zeta := func(n uint64) float64 {
		var z float64
		for i := uint64(1); i <= n; i++ {
			z += 1 / math.Pow(float64(i), theta)
		}
		return z
	}
	zetan := zeta(n)
	zeta2 := zeta(2)
	return &zipfGen{
		n:            n,
		theta:        theta,
		alpha:        1 / (1 - theta),
		zetan:        zetan,
		eta:          (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		halfPowTheta: 1 + math.Pow(0.5, theta),
	}
}

// next maps a uniform u in [0,1) to a zipfian-distributed key rank.
func (z *zipfGen) next(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// kvConn is the slice of the client surface the replica experiment
// drives — both *client.Client and *client.ReplicaSet satisfy it, so
// the same worker loop measures a plain primary connection and the
// replica-aware read-splitting client.
type kvConn interface {
	Get(key []byte) (val []byte, ok bool, err error)
	Scan(from, to []byte, limit uint64) ([]wire.KV, error)
	Set(key, val []byte) error
	Close() error
}

// benchReplica is the replication read-split experiment (B11): a
// durable primary measured three ways — alone (the no-follower
// baseline), with a streaming follower attached (the cost of shipping
// the WAL), and with the replica-aware client splitting GET/SCAN
// across the follower while SETs stay pinned to the primary (the
// payoff). Throughput is wire round trips per second against the pair;
// rows carry the topology and the replication lag in bytes sampled at
// the end of the measured window. Engine stats are the primary's —
// in the read-split rows the follower absorbs the read transactions,
// which is the point.
func benchReplica(ctx context.Context, rep *report, base harness.Config, workers []int, shards, storeShards, getPct, scanPct int, scanLimit uint64, fsync string) {
	mode := wal.ModeBatch
	if fsync != "" {
		m, err := wal.ParseMode(fsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polybench: %v\n", err)
			os.Exit(2)
		}
		mode = m
	}
	rep.printf("== B11: replication read-split [fsync=%s], %d%% GET / %d%% SCAN / %d%% SET, range %d, store-shards %d ==\n",
		mode, getPct, scanPct, 100-getPct-scanPct, base.Mix.KeyRange, storeShards)
	variants := []struct {
		name     string
		topology string
		follower bool // attach a streaming follower
		split    bool // route reads through it
	}{
		{"repl-baseline", "primary-only", false, false},
		{"repl-attached", "primary+follower", true, false},
		{"repl-readsplit", "read-split", true, true},
	}
	for _, w := range workers {
		for _, v := range variants {
			if ctx.Err() != nil {
				return
			}
			benchReplicaVariant(ctx, rep, base, w, shards, storeShards, getPct, scanPct, scanLimit, mode, v.name, v.topology, v.follower, v.split)
		}
	}
}

func benchReplicaVariant(ctx context.Context, rep *report, base harness.Config, w, shards, storeShards, getPct, scanPct int, scanLimit uint64, mode wal.Mode, name, topology string, follower, split bool) {
	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "polybench: "+format+"\n", args...)
		os.Exit(1)
	}
	key := func(k uint64) []byte {
		return []byte(fmt.Sprintf("k%08d", k%base.Mix.KeyRange))
	}

	// The primary: durable (feeds ship the WAL, so there must be one),
	// batch-fsync'd, replication enabled whenever a follower will attach.
	psrv := server.New(server.Config{Shards: shards, StoreShards: storeShards})
	tmp, err := os.MkdirTemp("", "polybench-repl-*")
	if err != nil {
		fatal("wal dir: %v", err)
	}
	defer os.RemoveAll(tmp)
	if _, err := psrv.Store().EnableDurability(server.Durability{Dir: tmp, Fsync: mode, CheckpointEvery: -1}); err != nil {
		fatal("durability: %v", err)
	}
	if follower {
		if err := psrv.EnableReplication(server.ReplConfig{}); err != nil {
			fatal("replication: %v", err)
		}
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal("primary listen: %v", err)
	}
	pServeDone := make(chan error, 1)
	go func() { pServeDone <- psrv.Serve(pln) }()
	paddr := pln.Addr().String()

	// Prefill half the key range before the follower attaches, so
	// catch-up really replays a snapshot, not an empty shard.
	pre, err := client.Dial(paddr)
	if err != nil {
		fatal("dial: %v", err)
	}
	prefill := 0
	for k := uint64(0); k < base.Mix.KeyRange; k += 2 {
		if err := pre.Set(key(k), []byte("0")); err != nil {
			fatal("prefill: %v", err)
		}
		prefill++
	}

	var fsrv *server.Server
	var faddr string
	if follower {
		fsrv = server.New(server.Config{Shards: shards, StoreShards: storeShards})
		if err := fsrv.EnableReplication(server.ReplConfig{
			Follow:  paddr,
			Backoff: repl.Backoff{Min: 5 * time.Millisecond},
		}); err != nil {
			fatal("follower: %v", err)
		}
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal("follower listen: %v", err)
		}
		fServeDone := make(chan error, 1)
		go func() { fServeDone <- fsrv.Serve(fln) }()
		faddr = fln.Addr().String()
		defer func() {
			sdCtx, cancel := shutdownContext()
			if err := fsrv.Shutdown(sdCtx); err != nil {
				fmt.Fprintf(os.Stderr, "polybench: follower shutdown: %v\n", err)
			}
			cancel()
			<-fServeDone
		}()

		// Wait for catch-up: the follower serves the full prefill.
		fcl, err := client.Dial(faddr, client.WithPoolSize(1))
		if err != nil {
			fatal("follower dial: %v", err)
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			kvs, err := fcl.Scan(nil, nil, 0)
			if err == nil && len(kvs) >= prefill {
				break
			}
			if time.Now().After(deadline) {
				fatal("follower never caught up (%v)", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		fcl.Close()
	}
	psrv.Store().ResetStats()

	dial := func() (kvConn, error) {
		if split {
			return client.DialReplicaSet(paddr, []string{faddr}, client.WithPoolSize(1))
		}
		return client.Dial(paddr, client.WithPoolSize(1))
	}

	var ops atomic.Uint64
	stop := make(chan struct{})
	ready := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			cl, err := dial()
			if err != nil {
				fmt.Fprintf(os.Stderr, "polybench: worker dial: %v\n", err)
				return
			}
			defer cl.Close()
			r := seed*0x9E3779B97F4A7C15 + 1
			var n uint64
			<-ready
			for {
				select {
				case <-stop:
					ops.Add(n)
					return
				default:
				}
				r = r*6364136223846793005 + 1442695040888963407
				k := (r >> 33) % base.Mix.KeyRange
				var opErr error
				switch roll := int((r >> 16) % 100); {
				case roll < getPct:
					_, _, opErr = cl.Get(key(k))
				case roll < getPct+scanPct:
					_, opErr = cl.Scan(key(k), nil, scanLimit)
				default:
					opErr = cl.Set(key(k), []byte(strconv.FormatUint(r&0xFFFF, 10)))
				}
				if opErr != nil {
					fmt.Fprintf(os.Stderr, "polybench: worker op: %v\n", opErr)
					return
				}
				n++
			}
		}(uint64(base.Seed)*7919 + uint64(i+1))
	}
	m0 := readMem()
	start := time.Now()
	close(ready)
	sleepCtx(ctx, base.Duration)
	// Sample the lag while the load is still applying — after the
	// window closes the follower drains it to zero in microseconds.
	var lag *uint64
	if h := psrv.Hub(); h != nil {
		l := h.LagBytes()
		lag = &l
	}
	close(stop)
	wg.Wait()
	el := time.Since(start)
	m1 := readMem()
	pre.Close()

	s := psrv.Stats()
	total := ops.Load()
	mem := m0.perOp(m1, total)
	lagStr := ""
	if lag != nil {
		lagStr = fmt.Sprintf("  lag=%dB", *lag)
	}
	rep.printf("  %-15s workers=%-3d %12.0f txns/s  abort-rate=%.3f%s%s\n",
		name, w, float64(total)/el.Seconds(), s.AbortRate(), lagStr, rep.memSuffix(mem))
	rep.addWithStats("replica", fmt.Sprintf("%s-store%d", name, storeShards), w, el, total, s, mem)
	rep.tagLast(storeShards, "uniform")
	rep.tagReplica(topology, lag)

	sdCtx, cancel := shutdownContext()
	if err := psrv.Shutdown(sdCtx); err != nil {
		fmt.Fprintf(os.Stderr, "polybench: shutdown: %v\n", err)
	}
	cancel()
	<-pServeDone
	if err := psrv.Store().CloseDurability(); err != nil {
		fmt.Fprintf(os.Stderr, "polybench: wal close: %v\n", err)
	}
}

// benchSession is the session-layer experiment (B13): the three loads
// the session subsystem exists for, each measured against a loopback
// server across worker counts.
//
//   - watch-fanout: 8 prefix watchers on dedicated session connections
//     while w writers SET under the prefix; throughput is EVENTS
//     DELIVERED per second (writes × fan-out when nothing is lost), and
//     rows carry the sets/events_pushed/events_lost gauges — the
//     overflow-cuts-not-blocks contract priced as a number.
//   - incr vs cas-loop: w workers all incrementing ONE hot counter, as
//     a server-side INCR (one round trip, def semantics) and as the
//     client-side GET+CAS retry loop it replaces; the gap is the
//     round-trip amplification plus the CAS abort tax under contention.
//   - ttl-churn: w workers SETEX short-lived keys against a fast
//     reaper; rows carry keys_expired and the deadlines still armed at
//     window close, showing reap keeping pace with arming.
func benchSession(ctx context.Context, rep *report, base harness.Config, workers []int, shards, storeShards int) {
	rep.printf("== B13: session layer (watch fan-out, INCR contention, TTL churn), store-shards %d ==\n", storeShards)
	for _, w := range workers {
		if ctx.Err() != nil {
			return
		}
		benchSessionWatch(ctx, rep, base, w, shards, storeShards)
		benchSessionIncr(ctx, rep, base, w, shards, storeShards, true)
		benchSessionIncr(ctx, rep, base, w, shards, storeShards, false)
		benchSessionTTL(ctx, rep, base, w, shards, storeShards)
	}
}

// sessionLoopback brings up one loopback server for a session variant
// and hands back a teardown.
func sessionLoopback(cfg server.Config) (*server.Server, string, func()) {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "polybench: listen: %v\n", err)
		os.Exit(1)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), func() {
		sdCtx, cancel := shutdownContext()
		if err := srv.Shutdown(sdCtx); err != nil {
			fmt.Fprintf(os.Stderr, "polybench: shutdown: %v\n", err)
		}
		cancel()
		<-serveDone
	}
}

// sessionGauges plucks the session stat rows from a live server.
func sessionGauges(cl *client.Client, extra map[string]uint64) map[string]uint64 {
	st, err := cl.Stats()
	if err != nil {
		return extra
	}
	out := map[string]uint64{}
	for _, k := range []string{"watch_sessions", "events_pushed", "events_lost", "keys_expired", "ttl_armed", "incr_ops"} {
		if v, ok := st[k]; ok {
			out[k] = v
		}
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

const sessionFanWatchers = 8

func benchSessionWatch(ctx context.Context, rep *report, base harness.Config, w, shards, storeShards int) {
	srv, addr, teardown := sessionLoopback(server.Config{Shards: shards, StoreShards: storeShards, TTLReapEvery: -1})
	defer teardown()
	_ = srv

	var delivered atomic.Uint64
	watchers := make([]*client.Watcher, sessionFanWatchers)
	var drain sync.WaitGroup
	for i := range watchers {
		wt, err := client.Watch(addr, []byte("s:"), true, client.WithoutReconnect(), client.WithWatchBuffer(4096))
		if err != nil {
			fmt.Fprintf(os.Stderr, "polybench: watch: %v\n", err)
			os.Exit(1)
		}
		watchers[i] = wt
		drain.Add(1)
		go func() {
			defer drain.Done()
			for range wt.Events() {
				delivered.Add(1)
			}
		}()
	}

	var sets atomic.Uint64
	stop := make(chan struct{})
	ready := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.WithPoolSize(1))
			if err != nil {
				fmt.Fprintf(os.Stderr, "polybench: worker dial: %v\n", err)
				return
			}
			defer cl.Close()
			r := seed*0x9E3779B97F4A7C15 + 1
			var n uint64
			<-ready
			for {
				select {
				case <-stop:
					sets.Add(n)
					return
				default:
				}
				r = r*6364136223846793005 + 1442695040888963407
				k := (r >> 33) % base.Mix.KeyRange
				if err := cl.Set([]byte(fmt.Sprintf("s:%08d", k)), []byte("v")); err != nil {
					fmt.Fprintf(os.Stderr, "polybench: worker set: %v\n", err)
					return
				}
				n++
			}
		}(uint64(base.Seed)*7919 + uint64(i+1))
	}
	start := time.Now()
	close(ready)
	sleepCtx(ctx, base.Duration)
	close(stop)
	wg.Wait()
	el := time.Since(start)
	for _, wt := range watchers {
		wt.Close()
	}
	drain.Wait()

	cl, err := client.Dial(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "polybench: dial: %v\n", err)
		os.Exit(1)
	}
	gauges := sessionGauges(cl, map[string]uint64{"sets": sets.Load(), "delivered": delivered.Load()})
	cl.Close()
	ev := delivered.Load()
	rep.printf("  watch-fanout%-2d writers=%-3d %12.0f events/s  (%0.f sets/s, lost=%d)\n",
		sessionFanWatchers, w, float64(ev)/el.Seconds(), float64(sets.Load())/el.Seconds(), gauges["events_lost"])
	rep.add(record{
		Bench:       "session",
		Name:        fmt.Sprintf("session-watch-fan%d", sessionFanWatchers),
		Workers:     w,
		DurationSec: el.Seconds(),
		Ops:         ev,
		TxnsPerSec:  float64(ev) / el.Seconds(),
		StoreShards: storeShards,
		Session:     gauges,
	})
}

func benchSessionIncr(ctx context.Context, rep *report, base harness.Config, w, shards, storeShards int, useIncr bool) {
	srv, addr, teardown := sessionLoopback(server.Config{Shards: shards, StoreShards: storeShards, TTLReapEvery: -1})
	defer teardown()

	var ops atomic.Uint64
	stop := make(chan struct{})
	ready := make(chan struct{})
	var wg sync.WaitGroup
	hot := []byte("hot-counter")
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := client.Dial(addr, client.WithPoolSize(1))
			if err != nil {
				fmt.Fprintf(os.Stderr, "polybench: worker dial: %v\n", err)
				return
			}
			defer cl.Close()
			var n uint64
			<-ready
			for {
				select {
				case <-stop:
					ops.Add(n)
					return
				default:
				}
				if useIncr {
					if _, err := cl.Incr(hot, 1); err != nil {
						fmt.Fprintf(os.Stderr, "polybench: incr: %v\n", err)
						return
					}
				} else {
					// The client-side emulation INCR replaces: read, parse,
					// CAS, retry on interleaved writers.
					for {
						cur, ok, err := cl.Get(hot)
						if err != nil {
							fmt.Fprintf(os.Stderr, "polybench: get: %v\n", err)
							return
						}
						v := int64(0)
						if ok {
							v, _ = strconv.ParseInt(string(cur), 10, 64)
						}
						next := []byte(strconv.FormatInt(v+1, 10))
						if !ok {
							// First write: CAS can't express create, SET races
							// are absorbed by the next round's read.
							if err := cl.Set(hot, next); err != nil {
								fmt.Fprintf(os.Stderr, "polybench: set: %v\n", err)
								return
							}
							break
						}
						swapped, _, _, err := cl.CAS(hot, cur, next)
						if err != nil {
							fmt.Fprintf(os.Stderr, "polybench: cas: %v\n", err)
							return
						}
						if swapped {
							break
						}
					}
				}
				n++
			}
		}()
	}
	start := time.Now()
	close(ready)
	sleepCtx(ctx, base.Duration)
	close(stop)
	wg.Wait()
	el := time.Since(start)

	name := "session-casloop"
	if useIncr {
		name = "session-incr"
	}
	s := srv.Stats()
	total := ops.Load()
	rep.printf("  %-15s workers=%-3d %12.0f incs/s  abort-rate=%.3f\n",
		name, w, float64(total)/el.Seconds(), s.AbortRate())
	rep.addWithStats("session", name, w, el, total, s, nil)
	rep.tagLast(storeShards, "hotspot")
}

func benchSessionTTL(ctx context.Context, rep *report, base harness.Config, w, shards, storeShards int) {
	srv, addr, teardown := sessionLoopback(server.Config{Shards: shards, StoreShards: storeShards, TTLReapEvery: 10 * time.Millisecond})
	defer teardown()
	_ = srv

	var ops atomic.Uint64
	stop := make(chan struct{})
	ready := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.WithPoolSize(1))
			if err != nil {
				fmt.Fprintf(os.Stderr, "polybench: worker dial: %v\n", err)
				return
			}
			defer cl.Close()
			r := seed*0x9E3779B97F4A7C15 + 1
			var n uint64
			<-ready
			for {
				select {
				case <-stop:
					ops.Add(n)
					return
				default:
				}
				r = r*6364136223846793005 + 1442695040888963407
				k := (r >> 33) % base.Mix.KeyRange
				ttl := time.Duration(10+(r>>20)%40) * time.Millisecond
				if err := cl.SetEx([]byte(fmt.Sprintf("ttl:%08d", k)), []byte("v"), ttl); err != nil {
					fmt.Fprintf(os.Stderr, "polybench: setex: %v\n", err)
					return
				}
				n++
			}
		}(uint64(base.Seed)*7919 + uint64(i+1))
	}
	start := time.Now()
	close(ready)
	sleepCtx(ctx, base.Duration)
	close(stop)
	wg.Wait()
	el := time.Since(start)

	cl, err := client.Dial(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "polybench: dial: %v\n", err)
		os.Exit(1)
	}
	gauges := sessionGauges(cl, map[string]uint64{"setex": ops.Load()})
	cl.Close()
	total := ops.Load()
	rep.printf("  ttl-churn       workers=%-3d %12.0f setex/s  (expired=%d, armed=%d)\n",
		w, float64(total)/el.Seconds(), gauges["keys_expired"], gauges["ttl_armed"])
	rep.add(record{
		Bench:       "session",
		Name:        "session-ttl-churn",
		Workers:     w,
		DurationSec: el.Seconds(),
		Ops:         total,
		TxnsPerSec:  float64(total) / el.Seconds(),
		StoreShards: storeShards,
		Session:     gauges,
	})
}

// benchReshard is the online-resharding experiment (B14): a durable
// loopback server under a zipfian GET/SCAN/SET load — the skew that
// concentrates most of the traffic on one shard — measured in two
// windows of the SAME continuously-running worker pool: before and
// after a live SPLIT of the hottest shard (found by the shard<ID>.ops
// STATS rows). The load never pauses across the cutover; rows carry
// the failed-request count (the zero-failures claim under test), the
// split's wall time, and the routing epoch. The claim: splitting the
// hot shard raises post-split throughput by halving the keyspace
// behind its irrevocable token and fsync queue.
func benchReshard(ctx context.Context, rep *report, base harness.Config, workers []int, shards, storeShards, getPct, scanPct int, scanLimit uint64) {
	rep.printf("== B14: online SPLIT of the hot shard under zipfian skew, %d%% GET / %d%% SCAN / %d%% SET, range %d, store-shards %d ==\n",
		getPct, scanPct, 100-getPct-scanPct, base.Mix.KeyRange, storeShards)
	for _, w := range workers {
		if ctx.Err() != nil {
			return
		}
		benchReshardVariant(ctx, rep, base, w, shards, storeShards, getPct, scanPct, scanLimit)
	}
}

func benchReshardVariant(ctx context.Context, rep *report, base harness.Config, w, shards, storeShards, getPct, scanPct int, scanLimit uint64) {
	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "polybench: "+format+"\n", args...)
		os.Exit(1)
	}
	key := func(k uint64) []byte {
		return []byte(fmt.Sprintf("k%08d", k%base.Mix.KeyRange))
	}
	zipf := newZipfGen(base.Mix.KeyRange)

	srv := server.New(server.Config{Shards: shards, StoreShards: storeShards})
	tmp, err := os.MkdirTemp("", "polybench-reshard-*")
	if err != nil {
		fatal("wal dir: %v", err)
	}
	defer os.RemoveAll(tmp)
	if _, err := srv.Store().EnableDurability(server.Durability{Dir: tmp, Fsync: wal.ModeOff, CheckpointEvery: -1}); err != nil {
		fatal("durability: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	pre, err := client.Dial(addr)
	if err != nil {
		fatal("dial: %v", err)
	}
	for k := uint64(0); k < base.Mix.KeyRange; k += 2 {
		if err := pre.Set(key(k), []byte("0")); err != nil {
			fatal("prefill: %v", err)
		}
	}

	// One worker pool runs across BOTH windows — the split happens under
	// this live load. ops counts per completed round trip (not batched at
	// exit) so window boundaries can sample it; failed counts request
	// errors, the acceptance gauge for the online-cutover claim.
	var ops, failed atomic.Uint64
	stop := make(chan struct{})
	ready := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.WithPoolSize(1))
			if err != nil {
				fmt.Fprintf(os.Stderr, "polybench: worker dial: %v\n", err)
				failed.Add(1)
				return
			}
			defer cl.Close()
			r := seed*0x9E3779B97F4A7C15 + 1
			<-ready
			for {
				select {
				case <-stop:
					return
				default:
				}
				r = r*6364136223846793005 + 1442695040888963407
				k := zipf.next(float64(r>>11) / (1 << 53))
				var opErr error
				switch roll := int((r >> 16) % 100); {
				case roll < getPct:
					_, _, opErr = cl.Get(key(k))
				case roll < getPct+scanPct:
					_, opErr = cl.Scan(key(k), nil, scanLimit)
				default:
					opErr = cl.Set(key(k), []byte(strconv.FormatUint(r&0xFFFF, 10)))
				}
				if opErr != nil {
					fmt.Fprintf(os.Stderr, "polybench: worker op: %v\n", opErr)
					failed.Add(1)
					return
				}
				ops.Add(1)
			}
		}(uint64(base.Seed)*7919 + uint64(i+1))
	}
	close(ready)

	// Window 1: pre-split.
	ops.Store(0)
	preStart := time.Now()
	sleepCtx(ctx, base.Duration)
	preOps := ops.Load()
	preEl := time.Since(preStart)

	// Find the hottest shard by routed ops and SPLIT it — the load keeps
	// running the whole time.
	stats, err := pre.Stats()
	if err != nil {
		fatal("stats: %v", err)
	}
	hot, hotOps := uint64(0), uint64(0)
	for name, v := range stats {
		var id uint64
		if _, err := fmt.Sscanf(name, "shard%d.ops", &id); err == nil && v >= hotOps {
			hot, hotOps = id, v
		}
	}
	splitStart := time.Now()
	epoch, err := pre.Split(hot)
	if err != nil {
		fatal("SPLIT %d: %v", hot, err)
	}
	splitMS := uint64(time.Since(splitStart).Milliseconds())

	// Window 2: post-split, same pool, same skew.
	ops.Store(0)
	postStart := time.Now()
	sleepCtx(ctx, base.Duration)
	postOps := ops.Load()
	postEl := time.Since(postStart)

	close(stop)
	wg.Wait()
	pre.Close()

	nFailed := failed.Load()
	rep.printf("  workers=%-3d pre %12.0f txns/s | split shard %d in %dms (epoch %d) | post %12.0f txns/s  failed=%d\n",
		w, float64(preOps)/preEl.Seconds(), hot, splitMS, epoch, float64(postOps)/postEl.Seconds(), nFailed)
	gauges := map[string]uint64{
		"hot_shard": hot, "split_ms": splitMS, "routing_epoch": epoch, "failed_requests": nFailed,
	}
	for _, pr := range []struct {
		phase string
		ops   uint64
		el    time.Duration
	}{{"pre", preOps, preEl}, {"post", postOps, postEl}} {
		rep.add(record{
			Bench:       "reshard",
			Name:        fmt.Sprintf("reshard-%s-store%d", pr.phase, storeShards),
			Workers:     w,
			DurationSec: pr.el.Seconds(),
			Ops:         pr.ops,
			TxnsPerSec:  float64(pr.ops) / pr.el.Seconds(),
			StoreShards: storeShards,
			Dist:        "zipfian",
			Session:     gauges,
		})
	}

	sdCtx, cancel := shutdownContext()
	if err := srv.Shutdown(sdCtx); err != nil {
		fmt.Fprintf(os.Stderr, "polybench: shutdown: %v\n", err)
	}
	cancel()
	<-serveDone
	if err := srv.Store().CloseDurability(); err != nil {
		fmt.Fprintf(os.Stderr, "polybench: wal close: %v\n", err)
	}
}

// benchRecover is the checkpoint + restart-cost experiment (B12): the
// same fill-checkpoint-churn-checkpoint-restart cycle measured under
// the full-only checkpoint policy and the incremental default, at two
// churn ratios. The full policy rewrites the whole keyspace on every
// pass and replays it all on restart; the incremental one writes a
// delta sized by the churn and restarts through base + delta — the
// rows make both costs visible side by side.
func benchRecover(ctx context.Context, rep *report, keys int) {
	if keys < 1000 {
		fmt.Fprintf(os.Stderr, "polybench: -recover-keys %d too small (need >= 1000)\n", keys)
		os.Exit(2)
	}
	rep.printf("== B12: checkpoint + restart cost, %d keys ==\n", keys)
	for _, churn := range []int{1, 10} {
		for _, v := range []struct {
			label    string
			maxChain int
		}{{"full", -1}, {"incr", 8}} {
			if ctx.Err() != nil {
				return
			}
			benchRecoverVariant(ctx, rep, keys, churn, v.maxChain, v.label)
		}
	}
}

func benchRecoverVariant(ctx context.Context, rep *report, keys, churnPct, maxChain int, label string) {
	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "polybench: "+format+"\n", args...)
		os.Exit(1)
	}
	tmp, err := os.MkdirTemp("", "polybench-recover-*")
	if err != nil {
		fatal("wal dir: %v", err)
	}
	defer os.RemoveAll(tmp)
	dur := server.Durability{Dir: tmp, Fsync: wal.ModeOff, CheckpointEvery: -1, MaxChain: maxChain}
	st := server.NewStore(core.NewDefault())
	if _, err := st.EnableDurability(dur); err != nil {
		fatal("durability: %v", err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	exec := func(req *wire.Request) {
		if resp := st.Execute(req); resp.Status == wire.StatusErr {
			fatal("%v: %s", req.Op, resp.Msg)
		}
	}

	// Fill in TXN batches (one WAL record each), then cut the base.
	const batch = 256
	for lo := 0; lo < keys; lo += batch {
		hi := lo + batch
		if hi > keys {
			hi = keys
		}
		reqs := make([]wire.Request, 0, batch)
		for i := lo; i < hi; i++ {
			reqs = append(reqs, wire.Request{Op: wire.OpSet, Key: key(i),
				Val: []byte(fmt.Sprintf("val-%08d-%08x", i, i*2654435761))})
		}
		exec(&wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: reqs})
	}
	if err := st.Checkpoint(ctx); err != nil {
		fatal("base checkpoint: %v", err)
	}
	chain := st.WAL().Chain()
	baseBytes := chain.BaseBytes

	// Churn, then cut the checkpoint whose cost is under measurement.
	for i := 0; i < keys; i += 100 / churnPct {
		exec(&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: key(i),
			Val: []byte("churn-" + strconv.Itoa(i))})
	}
	ckptStart := time.Now()
	if err := st.Checkpoint(ctx); err != nil {
		fatal("churn checkpoint: %v", err)
	}
	ckptDur := time.Since(ckptStart)
	chain = st.WAL().Chain()
	ckptBytes := chain.BaseBytes
	if chain.Len() > 0 {
		ckptBytes = chain.DeltaBytes()
	}
	if err := st.CloseDurability(); err != nil {
		fatal("wal close: %v", err)
	}

	// Restart: recovery loads base (+ deltas) and replays the tail.
	st2 := server.NewStore(core.NewDefault())
	restartStart := time.Now()
	if _, err := st2.EnableDurability(dur); err != nil {
		fatal("recovery: %v", err)
	}
	restartSec := time.Since(restartStart).Seconds()
	if err := st2.CloseDurability(); err != nil {
		fatal("wal close: %v", err)
	}

	rep.printf("  %-4s churn=%2d%%  ckpt %9dB in %7.1fms (base %9dB)  restart %7.1fms\n",
		label, churnPct, ckptBytes, float64(ckptDur.Milliseconds()), baseBytes, restartSec*1000)
	rep.add(record{
		Bench:       "recover",
		Name:        fmt.Sprintf("recover-%s-churn%d", label, churnPct),
		Workers:     1,
		DurationSec: restartSec,
		Ops:         uint64(keys),
		TxnsPerSec:  float64(keys) / restartSec,
		ChurnPct:    churnPct,
		RestartSec:  &restartSec,
		CkptBytes:   &ckptBytes,
		BaseBytes:   &baseBytes,
	})
}
