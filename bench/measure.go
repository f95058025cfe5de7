package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// loadResult is what one closed-loop phase observed.
type loadResult struct {
	windows   []windowStats
	ops       uint64 // operations completed inside the measured phase
	attempted uint64 // operations issued, warm-up included
	failed    uint64
	byOp      [numOpcodes]uint64 // completed operations by opcode
	before    map[string]uint64  // the program's counters around the measured phase
	after     map[string]uint64
}

// usage is a reading of the two process-wide meters the cost metrics
// come from: CPU time (getrusage, user+system) and heap objects
// allocated (exact: ReadMemStats flushes the per-P caches).
type usage struct {
	cpu     time.Duration
	mallocs uint64
}

func readUsage(ms *runtime.MemStats) usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	runtime.ReadMemStats(ms)
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), mallocs: ms.Mallocs}
}

// runLoad drives e with one closed-loop goroutine per stream: a client
// sends its next operation only when the previous one has returned. After
// p.warmup (discarded) every goroutine parks, the program's counters are
// read, started (when not nil) runs, the heap is collected once, and the
// measured phase of measure starts for all of them together. An
// operation's latency is the time since the client's previous completion
// — there is no think time, so that is its full service time, and it
// costs one clock read per operation. Client 0 also reads the process's
// CPU and allocation meters each time it crosses a window boundary (once
// a second), so the cost metrics are per-window figures like the timing
// ones and a checkpoint or a collection lands in a window, not in the
// result.
func runLoad(e env, streams [][]op, p *params, measure time.Duration, started func()) (*loadResult, error) {
	nwin := int(measure / p.window)
	hists := make([][]hist, len(streams))
	for c := range hists {
		hists[c] = make([]hist, nwin)
	}
	type tally struct {
		attempted, failed uint64
		byOp              [numOpcodes]uint64 // measured phase only
		_                 [56]byte
	}
	tallies := make([]tally, len(streams))
	ends := make([]usage, nwin) // reading at the end of each window
	var ms runtime.MemStats

	var warmed, done sync.WaitGroup
	release := make(chan struct{})
	var start time.Time
	warmEnd := time.Now().Add(p.warmup)
	for c := range streams {
		warmed.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			s, i := streams[c], 0
			t := &tallies[c]
			next := func() op {
				o := s[i]
				if i++; i == len(s) {
					i = 0
				}
				return o
			}
			for time.Now().Before(warmEnd) {
				t.attempted++
				if !e.do(c, next()) {
					t.failed++
				}
			}
			warmed.Done()
			<-release
			h := hists[c]
			var last time.Duration
			sampled := 0 // windows whose end reading is taken (client 0)
			for {
				t.attempted++
				o := next()
				ok := e.do(c, o)
				now := time.Since(start)
				if !ok {
					t.failed++
				}
				w := min(int(now/p.window), nwin)
				if c == 0 && w > sampled {
					// A stall that skips whole windows leaves them with
					// no usage; the window median does not care.
					u := readUsage(&ms)
					for ; sampled < w; sampled++ {
						ends[sampled] = u
					}
				}
				if w == nwin {
					return
				}
				if ok {
					h[w].record(int64(now - last))
					t.byOp[o.code()]++
				}
				last = now
			}
		}(c)
	}
	warmed.Wait()
	res := &loadResult{}
	var err error
	if res.before, err = e.counters(); err != nil {
		close(release)
		done.Wait()
		return nil, err
	}
	if started != nil {
		started()
	}
	runtime.GC()
	base := readUsage(&ms)
	start = time.Now()
	close(release)
	done.Wait()
	if res.after, err = e.counters(); err != nil {
		return nil, err
	}

	res.windows = reduceWindows(hists, p.window.Seconds(), new(hist))
	for w := range res.windows {
		ws := &res.windows[w]
		res.ops += ws.samples
		if ws.samples > 0 {
			ws.cpuUs = float64((ends[w].cpu - base.cpu).Nanoseconds()) / 1e3 / float64(ws.samples)
			ws.allocs = float64(ends[w].mallocs-base.mallocs) / float64(ws.samples)
		}
		base = ends[w]
	}
	for i := range tallies {
		res.attempted += tallies[i].attempted
		res.failed += tallies[i].failed
		for o, n := range tallies[i].byOp {
			res.byOp[o] += n
		}
	}
	return res, nil
}

// liveHeap is HeapAlloc after e has settled and the heap has been
// collected: what the set-up workload holds once the load has stopped.
func liveHeap(e env) (uint64, error) {
	if err := e.settle(); err != nil {
		return 0, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, nil
}
