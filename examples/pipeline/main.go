// Pipeline: transactional queues composed into a multi-stage pipeline.
// Every hand-off is one atomic transaction (dequeue + enqueue in a
// single step, composed from DequeueTx and EnqueueTx), so no item is
// ever in zero or two stages at once — an invariant a snapshot monitor
// verifies live while the pipeline runs.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"polytm/internal/core"
	"polytm/internal/structures"
)

func main() {
	tm := core.NewDefault()
	inbox := structures.NewTQueue[int](tm)
	work := structures.NewTQueue[int](tm)
	done := structures.NewTQueue[int](tm)

	const items = 2000
	inflight := core.NewTVar(tm, 0) // items currently inside the pipeline

	// Producer: admit items into the pipeline atomically with the
	// in-flight counter.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= items; i++ {
			_ = tm.Atomic(func(tx *core.Tx) error {
				if err := inbox.EnqueueTx(tx, i); err != nil {
					return err
				}
				return core.Modify(tx, inflight, func(v int) int { return v + 1 })
			})
		}
	}()

	// Stage workers: move items inbox -> work (doubling them), then
	// work -> done (negating). Each move is one transaction.
	var moved1, moved2 atomic.Int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for moved1.Load() < items {
				ok := false
				_ = tm.Atomic(func(tx *core.Tx) error {
					v, has, err := inbox.DequeueTx(tx)
					if err != nil || !has {
						ok = false
						return err
					}
					ok = true
					return work.EnqueueTx(tx, v*2)
				})
				if ok {
					moved1.Add(1)
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for moved2.Load() < items {
				ok := false
				_ = tm.Atomic(func(tx *core.Tx) error {
					v, has, err := work.DequeueTx(tx)
					if err != nil || !has {
						ok = false
						return err
					}
					ok = true
					return done.EnqueueTx(tx, -v)
				})
				if ok {
					moved2.Add(1)
				}
			}
		}()
	}

	// Snapshot monitor: at any instant, items in the three queues must
	// equal the in-flight counter — a cross-structure invariant readable
	// without blocking anyone.
	monitorStop := make(chan struct{})
	var monitorWg sync.WaitGroup
	monitorWg.Add(1)
	violations := 0
	checks := 0
	go func() {
		defer monitorWg.Done()
		for {
			select {
			case <-monitorStop:
				return
			default:
			}
			var q1, q2, q3, inf int
			_ = tm.Atomic(func(tx *core.Tx) error {
				var err error
				if q1, err = queueLenTx(tx, inbox); err != nil {
					return err
				}
				if q2, err = queueLenTx(tx, work); err != nil {
					return err
				}
				if q3, err = queueLenTx(tx, done); err != nil {
					return err
				}
				inf, err = core.Get(tx, inflight)
				return err
			}, core.WithSemantics(core.Snapshot))
			checks++
			if q1+q2+q3 != inf {
				violations++
			}
		}
	}()

	wg.Wait()
	close(monitorStop)
	monitorWg.Wait()

	// Drain and verify.
	sum := 0
	n := 0
	for {
		v, ok := done.Dequeue()
		if !ok {
			break
		}
		sum += v
		n++
	}
	wantSum := 0
	for i := 1; i <= items; i++ {
		wantSum += -2 * i
	}
	fmt.Printf("pipeline: %d items through 2 stages; sum=%d (want %d)\n", n, sum, wantSum)
	fmt.Printf("monitor: %d snapshot checks, %d invariant violations\n", checks, violations)
}

func queueLenTx(tx *core.Tx, q *structures.TQueue[int]) (int, error) {
	return q.LenTx(tx)
}
