// Hash-table resize — the paper's motivating example, live. Michael's
// lock-free hash table cannot resize at all; a monomorphic STM hash
// table resizes but the resize transaction and the operations fight as
// peers (every operation conflicts with the resize's full-table read
// set); a polymorphic table runs its operations elastically and its
// resize monomorphically, so searches slide past the resize and only
// genuine structural conflicts abort. This program churns a table with
// a background resizer under both configurations and reports throughput
// and abort rates.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polytm/internal/core"
	"polytm/internal/structures"
	"polytm/internal/workload"
)

func main() {
	const (
		workers  = 4
		keyRange = 4096
		duration = 500 * time.Millisecond
	)

	for _, cfg := range []struct {
		name string
		sem  core.Semantics
	}{
		{"monomorphic (all def)", core.Def},
		{"polymorphic (weak ops, def resize)", core.Weak},
	} {
		tm := core.NewDefault()
		h := structures.NewTHash(tm, cfg.sem, 64)
		workload.Prefill(h, keyRange)
		tm.ResetStats()

		var ops atomic.Uint64
		var resizes atomic.Uint64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				g := workload.NewGenerator(seed, workload.Mix{UpdatePct: 25, KeyRange: keyRange})
				n := uint64(0)
				for {
					select {
					case <-stop:
						ops.Add(n)
						return
					default:
					}
					workload.Apply(h, g.Next())
					n++
				}
			}(int64(w) + 1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			grow := true
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Resize(grow)
				grow = !grow
				resizes.Add(1)
				timer := time.NewTimer(10 * time.Millisecond)
				select {
				case <-stop:
					timer.Stop()
					return
				case <-timer.C:
				}
			}
		}()
		time.Sleep(duration)
		close(stop)
		wg.Wait()

		s := tm.Stats()
		fmt.Printf("%-36s %10.0f ops/s  resizes=%d  abort-rate=%.3f  elastic-cuts=%d\n",
			cfg.name, float64(ops.Load())/duration.Seconds(), resizes.Load(),
			s.AbortRate(), s.ElasticCuts)
	}
	fmt.Println("\nexpected shape: the polymorphic configuration sustains more ops/s")
	fmt.Println("with a lower abort rate, while both keep resizing concurrently —")
	fmt.Println("the genericity the paper claims over hand-tuned lock-free tables.")
}
