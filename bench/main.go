// Command bench is the repository's benchmark: it sets one workload up,
// drives it closed-loop, checks every reply, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a ladder replay).
// README.md in this directory defines the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a set file (-append): a result plus what
// produced it, which is all -compare needs.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: kv-read-mostly, kv-durable-write, txn-zipf-2pc or lib-skipmap")
		seed     = flag.Uint64("seed", 1, "seed of the generated operation streams")
		seconds  = flag.Int("seconds", 15, "measured time of the untraced run in seconds (a traced run measures half of it before its ladder)")
		trace    = flag.Int("trace", 0, "1 runs the traced ladder replay and prints the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "small and short: 10k keys, 1 s measured, every check on")
		appendTo = flag.String("append", "", "append this run's record to a set file (JSON lines)")
		compare  = flag.Bool("compare", false, "compare two set files: -compare A.jsonl B.jsonl")
		outDir   = flag.String("out", "out", "directory for trace files and temporary WAL directories")
	)
	flag.Parse()
	// The reference box has two cores; pinning the value keeps a larger
	// machine from changing the load shape.
	runtime.GOMAXPROCS(2)

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare A.jsonl B.jsonl"))
		}
		metrics, err := readContract(contractPath)
		if err != nil {
			fatal(err)
		}
		regressed, err := compareSets(os.Stdout, metrics, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	sp, err := findSpec(*workload)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("-seconds must be at least 1 and -trace 0 or 1"))
	}
	p := newParams(sp, *seconds, *smoke, *outDir)
	var res *result
	if *trace == 1 {
		res, err = runTraced(sp, p, *seed)
	} else {
		res, err = runEndToEnd(sp, p, *seed)
	}
	if err != nil {
		fatal(err)
	}
	if *appendTo != "" {
		if err := appendRecord(*appendTo, record{Workload: sp.name, Seed: *seed, Trace: *trace, result: *res}); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func newParams(sp *spec, seconds int, smoke bool, outDir string) *params {
	p := &params{
		keys:      sp.keys,
		streamLen: 1 << 20,
		setups:    3,
		warmup:    5 * time.Second,
		measure:   time.Duration(seconds) * time.Second,
		window:    time.Second,
		minWindow: 5000,
		replayOps: 100_000,
		outDir:    outDir,
	}
	if smoke {
		p.keys = 10_000
		p.streamLen = 1 << 16
		p.setups = 1
		p.warmup = 200 * time.Millisecond
		p.measure = time.Second
		p.window = 100 * time.Millisecond
		p.minWindow = 0
		p.replayOps = 4000
	}
	// The traced run spends half the time on its untraced segment and the
	// rest on the ladder.
	p.segment = max(p.measure/2/p.window, 1) * p.window
	return p
}

// timedSetup sets the workload up p.setups times from scratch and times
// each; all but the last are torn down at once. It returns the last
// set-up and the median time.
func timedSetup(sp *spec, p *params) (env, float64, error) {
	var e env
	var times []float64
	for i := 0; i < p.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, 0, fmt.Errorf("tear-down: %w", err)
			}
		}
		// Each set-up starts from a collected heap, so the collector's pace
		// during it does not depend on what the previous one left behind.
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setupEnv(sp, p); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), nil
}

// measureEnv runs the closed loop on a set-up workload, reads its live
// heap, runs its end-of-run checks, and tears it down — on every path, so
// a failed check leaves no WAL directory behind.
func measureEnv(e env, streams [][]op, p *params) (_ *loadResult, heap uint64, err error) {
	defer func() {
		if cerr := e.close(); err == nil && cerr != nil {
			err = fmt.Errorf("tear-down: %w", cerr)
		}
	}()
	load, err := runLoad(e, streams, p, p.measure, nil)
	if err != nil {
		return nil, 0, err
	}
	if heap, err = liveHeap(e); err != nil {
		return nil, 0, err
	}
	if err := e.verify(); err != nil {
		return nil, 0, fmt.Errorf("correctness: %w", err)
	}
	if load.failed > 0 {
		return nil, 0, fmt.Errorf("correctness: %d of %d operations failed their check", load.failed, load.attempted)
	}
	return load, heap, nil
}

// timing reduces a phase's windows to the four clock metrics (window
// medians). A window below the p99 sample floor is reported, not fatal:
// on a shared box a neighbour can stall any window, the window median
// drops it, and no bounded metric reads a clock.
func timing(load *loadResult, p *params) windowStats {
	if least := minSamples(load.windows); least < p.minWindow {
		fmt.Fprintf(os.Stderr, "bench: note: a window holds only %d samples; its p99 wants at least %d\n", least, p.minWindow)
	}
	return summarizeWindows(load.windows)
}

// runEndToEnd is the untraced run. The workload is set up p.setups times
// (setup_s is the median), the last set-up is warmed and measured in
// windows, then its live heap is read, its checks run and it is torn
// down. The result line carries the end-to-end metrics of BENCHMARK.json;
// the clock metrics, which do not repeat within a 10% bound on the
// reference box and so are per-layer metrics of the traced run, are
// printed beside them for the reader.
func runEndToEnd(sp *spec, p *params, seed uint64) (*result, error) {
	streams := genStreams(sp, p, seed)
	e, setup, err := timedSetup(sp, p)
	if err != nil {
		return nil, err
	}
	load, heap, err := measureEnv(e, streams, p)
	if err != nil {
		return nil, err
	}
	m := timing(load, p)
	res := &result{Correct: true, Attempted: load.attempted, Metrics: map[string]metric{
		"allocs_per_op": {m.allocs, "count"},
		"live_heap_mb":  {float64(heap) / (1 << 20), "MB"},
		"setup_s":       {setup, "s"},
	}}
	fmt.Printf("workload %s  seed %d  keys %d  clients %d (closed loop)\n", sp.name, seed, p.keys, numClients)
	fmt.Printf("%d set-ups; the last warmed %s and measured %s in windows of %s; %d samples, at least %d per window\n",
		p.setups, p.warmup, p.measure, p.window, load.ops, minSamples(load.windows))
	fmt.Printf("not bounded (window medians): %.0f ops/s, p50 %.2f us, p99 %.2f us, cpu %.2f us/op\n", m.rate, m.p50us, m.p99us, m.cpuUs)
	printMetrics(res)
	return res, nil
}

func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("operations attempted %d, failed %d, checks passed\n", res.Attempted, res.Failed)
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
