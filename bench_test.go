// Benchmark harness: one benchmark family per experiment README
// "Running things" lists. Run everything with
//
//	go test -bench=. -benchmem
//
// B1  BenchmarkIntSetList        sorted-list integer set across synchronizations
// B2  BenchmarkHashResize        hash table with a background resizer
// B3  BenchmarkIntSetSkip        skip-list integer set
// B4  BenchmarkSnapshotScan      full scans under writers, def vs snapshot
// B5  BenchmarkContentionManagers  CM ablation on a hotspot
// B6  BenchmarkNestingPolicies   nested-transaction composition overhead
// F1  BenchmarkFigure1Acceptance the three executors on Figure 1
// T1/T2 BenchmarkTheoremCheck    bounded exhaustive theorem checking
// A1  BenchmarkAcceptanceRate    random-schedule acceptance sampling
package polytm_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"polytm"
	"polytm/internal/accept"
	"polytm/internal/baseline"
	"polytm/internal/core"
	"polytm/internal/lockfree"
	"polytm/internal/schedule"
	"polytm/internal/stm"
	"polytm/internal/structures"
	"polytm/internal/workload"
)

// runIntSet drives the standard integer-set workload through b.N
// parallel operations.
func runIntSet(b *testing.B, s workload.IntSet, mix workload.Mix) {
	b.Helper()
	workload.Prefill(s, mix.KeyRange)
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := workload.NewGenerator(seed.Add(1)*7919, mix)
		for pb.Next() {
			workload.Apply(s, g.Next())
		}
	})
}

// B1: sorted-list integer set. The shape that reproduces the paper's
// claim: stm-poly(weak) >= stm-mono(def) everywhere, with the gap
// widening on search-dominated mixes (low update %), approaching the
// hand-tuned lazy/lock-free lists.
func BenchmarkIntSetList(b *testing.B) {
	impls := []struct {
		name string
		mk   func() workload.IntSet
	}{
		{"coarse-lock", func() workload.IntSet { return baseline.NewCoarseList() }},
		{"lazy-lock", func() workload.IntSet { return baseline.NewLazyList() }},
		{"lock-free", func() workload.IntSet { return lockfree.NewList() }},
		{"stm-mono", func() workload.IntSet { return structures.NewTList(core.NewDefault(), core.Def) }},
		{"stm-poly", func() workload.IntSet { return structures.NewTList(core.NewDefault(), core.Weak) }},
	}
	for _, impl := range impls {
		for _, upd := range []int{0, 10, 50} {
			b.Run(fmt.Sprintf("%s/upd=%d", impl.name, upd), func(b *testing.B) {
				runIntSet(b, impl.mk(), workload.Mix{UpdatePct: upd, KeyRange: 256})
			})
		}
	}
}

// B2: hash table under a background resizer. stm-mono's operations and
// the resize collide as monolithic peers; stm-poly's elastic operations
// slide past it. The lock baselines stop the world; split-ordered (no
// resizer needed) is the tuned upper bound.
func BenchmarkHashResize(b *testing.B) {
	mix := workload.Mix{UpdatePct: 25, KeyRange: 2048}
	type resizable interface {
		workload.IntSet
		Resize(bool) int
	}
	impls := []struct {
		name string
		mk   func() resizable
	}{
		{"stm-mono", func() resizable { return structures.NewTHash(core.NewDefault(), core.Def, 64) }},
		{"stm-poly", func() resizable { return structures.NewTHash(core.NewDefault(), core.Weak, 64) }},
		{"coarse-lock", func() resizable { return baseline.NewCoarseHash(64) }},
		{"striped-lock", func() resizable { return baseline.NewStripedHash(64, 16) }},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			s := impl.mk()
			workload.Prefill(s, mix.KeyRange)
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				grow := true
				for {
					select {
					case <-stop:
						return
					default:
						s.Resize(grow)
						grow = !grow
						time.Sleep(2 * time.Millisecond)
					}
				}
			}()
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := workload.NewGenerator(seed.Add(1)*104729, mix)
				for pb.Next() {
					workload.Apply(s, g.Next())
				}
			})
			b.StopTimer()
			close(stop)
			<-done
		})
	}
	b.Run("split-ordered", func(b *testing.B) {
		runIntSet(b, lockfree.NewSplitOrdered(), mix)
	})
}

// B3: skip-list integer set.
func BenchmarkIntSetSkip(b *testing.B) {
	impls := []struct {
		name string
		mk   func() workload.IntSet
	}{
		{"coarse-lock", func() workload.IntSet { return baseline.NewCoarseSkipList() }},
		{"stm-mono", func() workload.IntSet { return structures.NewTSkipList(core.NewDefault(), core.Def) }},
		{"stm-poly", func() workload.IntSet { return structures.NewTSkipList(core.NewDefault(), core.Weak) }},
	}
	for _, impl := range impls {
		for _, upd := range []int{10} {
			b.Run(fmt.Sprintf("%s/upd=%d", impl.name, upd), func(b *testing.B) {
				runIntSet(b, impl.mk(), workload.Mix{UpdatePct: upd, KeyRange: 2048})
			})
		}
	}
}

// B4: full-structure scans concurrent with writers: def scans abort and
// retry under churn; snapshot scans never do.
func BenchmarkSnapshotScan(b *testing.B) {
	for _, semName := range []struct {
		name string
		sem  core.Semantics
	}{{"def", core.Def}, {"snapshot", core.Snapshot}} {
		b.Run(semName.name, func(b *testing.B) {
			tm := core.NewDefault()
			const n = 128
			vars := make([]*core.TVar[int], n)
			for i := range vars {
				vars[i] = core.NewTVar(tm, 1)
			}
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				r := uint32(1)
				for {
					select {
					case <-stop:
						return
					default:
					}
					r = r*1664525 + 1013904223
					i, j := int(r>>8)%n, int(r>>16)%n
					if i == j {
						continue
					}
					_ = tm.Atomic(func(tx *core.Tx) error {
						if err := core.Modify(tx, vars[i], func(v int) int { return v - 1 }); err != nil {
							return err
						}
						return core.Modify(tx, vars[j], func(v int) int { return v + 1 })
					})
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum := 0
				_ = tm.Atomic(func(tx *core.Tx) error {
					sum = 0
					for k := 0; k < n; k++ {
						v, err := core.Get(tx, vars[k])
						if err != nil {
							return err
						}
						sum += v
					}
					return nil
				}, core.WithSemantics(semName.sem))
				if sum != n {
					b.Fatalf("torn sum %d", sum)
				}
			}
			b.StopTimer()
			close(stop)
			<-done
		})
	}
}

// B5: contention-manager ablation on an 8-variable hotspot.
func BenchmarkContentionManagers(b *testing.B) {
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
	for _, cm := range cms {
		b.Run(cm.name, func(b *testing.B) {
			tm := core.NewDefault()
			vars := make([]*core.TVar[int], 8)
			for i := range vars {
				vars[i] = core.NewTVar(tm, 0)
			}
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				r := uint32(seed.Add(1))
				for pb.Next() {
					r = r*1664525 + 1013904223
					i, j := int(r>>8)%8, int(r>>16)%8
					_ = tm.Atomic(func(tx *core.Tx) error {
						if err := core.Modify(tx, vars[i], func(v int) int { return v + 1 }); err != nil {
							return err
						}
						return core.Modify(tx, vars[j], func(v int) int { return v - 1 })
					}, core.WithContentionManager(cm.f))
				}
			})
		})
	}
}

// B6: nesting-policy ablation — a def transaction wrapping a weak scope
// per iteration, under each composition policy.
func BenchmarkNestingPolicies(b *testing.B) {
	for _, pol := range []polytm.NestingPolicy{polytm.NestStrongest, polytm.NestParam, polytm.NestParent} {
		b.Run(pol.String(), func(b *testing.B) {
			tm := polytm.NewWithConfig(polytm.Config{Nesting: pol})
			const n = 32
			vars := make([]*polytm.TVar[int], n)
			for i := range vars {
				vars[i] = polytm.NewTVar(tm, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = tm.Atomic(func(tx *polytm.Tx) error {
					return tx.Atomic(func(tx *polytm.Tx) error {
						for k := 0; k < n; k++ {
							if _, err := polytm.Get(tx, vars[k]); err != nil {
								return err
							}
						}
						return nil
					}, polytm.WithSemantics(polytm.Weak))
				})
			}
		})
	}
}

// F1: the three executors on the paper's Figure 1.
func BenchmarkFigure1Acceptance(b *testing.B) {
	tm := schedule.Figure1TM()
	lk := schedule.Figure1Lock()
	sems := schedule.Figure1LockSems()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if schedule.ExecMonomorphic(tm).Accepted {
			b.Fatal("mono accepted Figure 1")
		}
		if !schedule.ExecPolymorphic(tm).Accepted {
			b.Fatal("poly rejected Figure 1")
		}
		if !schedule.ExecLockBased(lk, sems).Accepted {
			b.Fatal("locks rejected Figure 1")
		}
	}
}

// T1/T2: bounded exhaustive theorem checking (one-access operations per
// iteration keeps the space small enough to repeat).
func BenchmarkTheoremCheck(b *testing.B) {
	cfg := accept.EnumConfig{
		MaxAccesses: 1,
		Registers:   []schedule.Register{"x", "y"},
		Params:      []schedule.Sem{schedule.SemDef, schedule.SemWeak},
	}
	b.Run("theorem1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !accept.CheckTheorem1(cfg).Holds() {
				b.Fatal("theorem 1 failed")
			}
		}
	})
	b.Run("theorem2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !accept.CheckTheorem2(cfg).Holds() {
				b.Fatal("theorem 2 failed")
			}
		}
	})
}

// A1: random-schedule acceptance-rate sampling.
func BenchmarkAcceptanceRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := accept.AcceptanceRates(int64(i+1), 200, 3)
		if r.Lock < r.Poly || r.Poly < r.Mono {
			b.Fatalf("hierarchy violated: %v", r)
		}
	}
}

// Ablation: where elasticity pays — the poly/mono gap versus structure
// depth. Longer lists mean longer read prefixes for def to drag along.
func BenchmarkListLengthSweep(b *testing.B) {
	for _, keys := range []uint64{64, 256, 1024} {
		for _, sem := range []struct {
			name string
			s    core.Semantics
		}{{"mono", core.Def}, {"poly", core.Weak}} {
			b.Run(fmt.Sprintf("keys=%d/%s", keys, sem.name), func(b *testing.B) {
				s := structures.NewTList(core.NewDefault(), sem.s)
				runIntSet(b, s, workload.Mix{UpdatePct: 10, KeyRange: keys})
			})
		}
	}
}

// Scalability: a mixed-semantics workload (the paper's polymorphism in
// one memory — def updates, weak elastic walks, snapshot scans, the
// occasional irrevocable write) at increasing parallelism. This is the
// benchmark the sharded engine state exists for: before striping, five
// global contention points (stats counters, txn-id counter, the live
// map, the snapshot registry, the var-id counter) flatten the curve.
func BenchmarkScalabilityMixed(b *testing.B) {
	maxProcs := runtime.GOMAXPROCS(0)
	procSet := []int{1, 4, maxProcs}
	seen := map[int]bool{}
	for _, procs := range procSet {
		if procs < 1 || seen[procs] {
			continue
		}
		seen[procs] = true
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			e := stm.NewDefaultEngine()
			vars := workload.MixedVars(e, 64)
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := workload.NewMixedWorker(e, vars, workload.MixedSeed(uint64(seed.Add(1))))
				for pb.Next() {
					w.Step()
				}
			})
		})
	}
}

// Scalability: snapshot-registry churn. Every snapshot transaction
// registers at begin and unregisters at finish; with many concurrent
// snapshot readers the pre-sharding registry serialized all of them on
// one mutex and rescanned the whole active table on every finish —
// O(live snapshots) work under a global lock. The sharded registry
// splits both the lock and the rescan.
func BenchmarkSnapshotRegistryChurn(b *testing.B) {
	for _, par := range []int{4, 16} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			e := stm.NewDefaultEngine()
			const nvars = 16
			vars := make([]*stm.Var, nvars)
			for i := range vars {
				vars[i] = e.NewVar(i)
			}
			b.SetParallelism(par)
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(seed.Add(1)) % nvars
				for pb.Next() {
					_ = e.Run(stm.SemanticsSnapshot, func(tx *stm.Txn) error {
						_, err := tx.Read(vars[i])
						return err
					})
				}
			})
		})
	}
}

// Engine micro-benchmarks: the cost model behind the experiment shapes.
func BenchmarkEngineReadWrite(b *testing.B) {
	b.Run("read-only-8", func(b *testing.B) {
		e := stm.NewDefaultEngine()
		vars := make([]*stm.Var, 8)
		for i := range vars {
			vars[i] = e.NewVar(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = e.Run(stm.SemanticsDef, func(tx *stm.Txn) error {
				for _, v := range vars {
					if _, err := tx.Read(v); err != nil {
						return err
					}
				}
				return nil
			})
		}
	})
	b.Run("write-4", func(b *testing.B) {
		e := stm.NewDefaultEngine()
		vars := make([]*stm.Var, 4)
		for i := range vars {
			vars[i] = e.NewVar(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = e.Run(stm.SemanticsDef, func(tx *stm.Txn) error {
				for _, v := range vars {
					if err := tx.Write(v, i); err != nil {
						return err
					}
				}
				return nil
			})
		}
	})
	b.Run("elastic-walk-64", func(b *testing.B) {
		e := stm.NewDefaultEngine()
		vars := make([]*stm.Var, 64)
		for i := range vars {
			vars[i] = e.NewVar(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = e.Run(stm.SemanticsWeak, func(tx *stm.Txn) error {
				for _, v := range vars {
					if _, err := tx.Read(v); err != nil {
						return err
					}
				}
				return nil
			})
		}
	})
	b.Run("def-walk-64", func(b *testing.B) {
		e := stm.NewDefaultEngine()
		vars := make([]*stm.Var, 64)
		for i := range vars {
			vars[i] = e.NewVar(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = e.Run(stm.SemanticsDef, func(tx *stm.Txn) error {
				for _, v := range vars {
					if _, err := tx.Read(v); err != nil {
						return err
					}
				}
				return nil
			})
		}
	})
}
