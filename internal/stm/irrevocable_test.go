package stm

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestIrrevocableCommitsFirstAttempt(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	attempts := 0
	err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
		attempts++
		v, err := tx.Read(x)
		if err != nil {
			return err
		}
		return tx.Write(x, v.(int)+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 1 {
		t.Fatalf("irrevocable ran %d attempts, want exactly 1", attempts)
	}
	if got := x.LoadDirect().(int); got != 1 {
		t.Fatalf("x = %d, want 1", got)
	}
}

// TestIrrevocableCannotBeKilled: a rival kills only an attempt it
// resolved through the live registry. An irrevocable attempt is never
// in it, even mid-commit with its write set locked under its id; and a
// kill that lands late, through a stale pointer to a shell since
// re-armed as an irrevocable, carries the old attempt's id, so the
// irrevocable reads, writes and commits through it.
func TestIrrevocableCannotBeKilled(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)

	irr := e.Begin(SemanticsIrrevocable)
	if err := irr.Write(x, 1); err != nil {
		t.Fatal(err)
	}
	// What commitIrrevocable does first: lock the write set.
	prev, ok := x.tryLock(irr.id)
	if !ok {
		t.Fatal("irrevocable could not lock its write set")
	}
	if owner, locked := x.lockedBy(); !locked || owner != irr.id {
		t.Fatalf("lock word owner %d (locked %v), want %d", owner, locked, irr.id)
	}
	if e.live.lookup(irr.id) != nil {
		t.Fatal("the live registry resolves an irrevocable attempt")
	}
	x.unlockTo(prev)
	if err := irr.Commit(); err != nil {
		t.Fatal(err)
	}

	// A def attempt registers as a lock owner (what passGate does), a
	// rival resolves it, and it finishes; its shell is then re-armed as
	// an irrevocable, as a pooled reuse does, before the kill lands.
	shell := e.Begin(SemanticsDef)
	shell.registerLive()
	old := shell.id
	stale := e.live.lookup(old)
	if stale != shell {
		t.Fatal("the live registry does not resolve a registered def attempt")
	}
	shell.Abort()
	shell.recycle()
	shell.sem, shell.cmFac = SemanticsIrrevocable, defaultCM
	shell.begin()
	stale.kill(old)
	v, err := shell.Read(x)
	if err != nil {
		t.Fatalf("irrevocable read after a stale kill: %v", err)
	}
	if err := shell.Write(x, v.(int)+1); err != nil {
		t.Fatal(err)
	}
	if err := shell.Commit(); err != nil {
		t.Fatalf("irrevocable commit after a stale kill: %v", err)
	}
	if got := x.LoadDirect().(int); got != 2 {
		t.Fatalf("x = %d, want 2", got)
	}
}

func TestIrrevocableSerializedByToken(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	var inside atomic.Int32
	var maxInside atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
					n := inside.Add(1)
					for {
						m := maxInside.Load()
						if n <= m || maxInside.CompareAndSwap(m, n) {
							break
						}
					}
					v, err := tx.Read(x)
					if err != nil {
						return err
					}
					if err := tx.Write(x, v.(int)+1); err != nil {
						return err
					}
					inside.Add(-1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m := maxInside.Load(); m != 1 {
		t.Fatalf("observed %d concurrent irrevocable transactions, want 1", m)
	}
	if got := x.LoadDirect().(int); got != 200 {
		t.Fatalf("x = %d, want 200", got)
	}
}

// TestIrrevocableVsOptimistic: one irrevocable transaction mixed with
// optimistic writers; the irrevocable one must commit exactly once and
// the counter must not lose updates.
func TestIrrevocableVsOptimistic(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	const optWorkers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < optWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := e.Run(SemanticsDef, func(tx *Txn) error {
					v, err := tx.Read(x)
					if err != nil {
						return err
					}
					return tx.Write(x, v.(int)+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			if err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
				v, err := tx.Read(x)
				if err != nil {
					return err
				}
				return tx.Write(x, v.(int)+1)
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	want := (optWorkers + 1) * per
	if got := x.LoadDirect().(int); got != want {
		t.Fatalf("x = %d, want %d", got, want)
	}
}

// TestIrrevocableReadLocksRestoreVersion: a read-only irrevocable
// transaction must leave the variable's version word as it found it, so
// later readers see an unchanged version.
func TestIrrevocableReadLocksRestoreVersion(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(5)
	before := x.lw.Load()
	if err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
		_, err := tx.Read(x)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	after := x.lw.Load()
	if before != after {
		t.Fatalf("read-only irrevocable changed lock word %#x -> %#x", before, after)
	}
	if _, locked := x.lockedBy(); locked {
		t.Fatal("variable left locked")
	}
}

func TestIrrevocableUserErrorReleasesLocks(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(1)
	sentinel := errTest{}
	err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
		if err := tx.Write(x, 99); err != nil {
			return err
		}
		return sentinel
	})
	if err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if _, locked := x.lockedBy(); locked {
		t.Fatal("abort left a lock held")
	}
	if got := x.LoadDirect().(int); got != 1 {
		t.Fatalf("aborted irrevocable write leaked: %d", got)
	}
	// The engine must accept new irrevocable transactions (token freed).
	if err := e.Run(SemanticsIrrevocable, func(tx *Txn) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestIrrevocableDropsItsSets: once an irrevocable walk that also
// writes has committed or aborted, its pooled shell holds no pointer to
// any variable it touched. Otherwise a walk over a whole structure (a
// FLUSH's count) would keep every node alive behind the
// sets' capacity for as long as the shell is reused.
func TestIrrevocableDropsItsSets(t *testing.T) {
	e := NewDefaultEngine()
	vars := make([]*Var, 1000)
	for i := range vars {
		vars[i] = e.NewVar(i)
	}
	for _, end := range []error{nil, errTest{}} {
		var shell *Txn
		err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
			shell = tx
			for i, v := range vars {
				if _, err := tx.Read(v); err != nil {
					return err
				}
				if i%2 == 0 {
					if err := tx.Write(v, -i); err != nil {
						return err
					}
				}
			}
			return end
		})
		if err != end {
			t.Fatalf("Run = %v, want %v", err, end)
		}
		for i, r := range shell.rset[:cap(shell.rset)] {
			if r.v != nil || r.ver != nil {
				t.Fatalf("after Run returned %v, read-set slot %d still holds a variable", end, i)
			}
		}
		for i, w := range shell.wset[:cap(shell.wset)] {
			if w.v != nil || w.rec != nil {
				t.Fatalf("after Run returned %v, write-set slot %d still holds a variable", end, i)
			}
		}
	}
}

// TestIrrevocableBlocksNoReader: an irrevocable transaction parked
// after reading x holds no lock on it, so a snapshot read and a def
// read-only transaction of x both commit while it is parked.
func TestIrrevocableBlocksNoReader(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(7)
	holder := e.Begin(SemanticsIrrevocable)
	defer holder.Abort() // releases a reader stuck behind a lock, if any
	if v, err := holder.Read(x); err != nil || v.(int) != 7 {
		t.Fatalf("irrevocable read: %v, %v", v, err)
	}
	for _, sem := range []Semantics{SemanticsSnapshot, SemanticsDef} {
		done := make(chan error, 1)
		go func() {
			done <- e.Run(sem, func(tx *Txn) error {
				v, err := tx.Read(x)
				if err == nil && v.(int) != 7 {
					err = fmt.Errorf("read %v, want 7", v)
				}
				return err
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%v reader: %v", sem, err)
			}
		case <-time.After(100 * time.Millisecond):
			t.Fatalf("%v reader of x waited for the irrevocable body", sem)
		}
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestIrrevocableGateInvariant: three def goroutines move units between
// eight variables and a snapshot reader checks their sum never changes.
// Beside them, irrevocable transactions each read every variable twice,
// yielding in between: both passes must agree and sum to the invariant
// — no writing commit may publish inside an irrevocable span — before
// each moves one unit itself. Dropping either the drain or the gate
// check in Commit makes this fail.
func TestIrrevocableGateInvariant(t *testing.T) {
	e := NewDefaultEngine()
	const n, each = 8, 100
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = e.NewVar(each)
	}
	move := func(tx *Txn, from, to *Var) error {
		a, err := tx.Read(from)
		if err != nil || a.(int) == 0 {
			return err
		}
		b, err := tx.Read(to)
		if err != nil {
			return err
		}
		if err := tx.Write(from, a.(int)-1); err != nil {
			return err
		}
		return tx.Write(to, b.(int)+1)
	}
	sum := func(tx *Txn, into []int) (int, error) {
		s := 0
		for i, v := range vars {
			x, err := tx.Read(v)
			if err != nil {
				return 0, err
			}
			into[i] = x.(int)
			s += into[i]
		}
		return s, nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var runs atomic.Int64
	background := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := f(i); err != nil {
					t.Error(err)
					return
				}
				runs.Add(1)
			}
		}()
	}
	for w := 1; w <= 3; w++ {
		// Each commit moves a unit across four disjoint pairs, so it
		// changes every variable: a publish landing anywhere inside an
		// irrevocable's first pass shows in its second.
		background(func(i int) error {
			return e.Run(SemanticsDef, func(tx *Txn) error {
				for j := 0; j < n; j += 2 {
					a, b := vars[(i*w+j)%n], vars[(i*w+j+1)%n]
					if i%2 == 1 {
						a, b = b, a
					}
					if err := move(tx, a, b); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
	background(func(int) error {
		seen := make([]int, n)
		return e.Run(SemanticsSnapshot, func(tx *Txn) error {
			if s, err := sum(tx, seen); err != nil || s != n*each {
				return fmt.Errorf("snapshot sum %d (%v), want %d: %v", s, seen, n*each, err)
			}
			return nil
		})
	})

	for runs.Load() < 100 && !t.Failed() { // let the rivals get going first
		runtime.Gosched()
	}
	first, second := make([]int, n), make([]int, n)
	for i := 0; i < 3000 && !t.Failed(); i++ {
		err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
			s1, err := sum(tx, first)
			if err != nil {
				return err
			}
			runtime.Gosched()
			s2, err := sum(tx, second)
			if err != nil {
				return err
			}
			if s1 != n*each || s2 != n*each || !slices.Equal(first, second) {
				return fmt.Errorf("irrevocable span saw a commit: %v (sum %d) then %v (sum %d)", first, s1, second, s2)
			}
			return move(tx, vars[i%n], vars[(i+3)%n])
		})
		if err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	total := 0
	for _, v := range vars {
		total += v.LoadDirect().(int)
	}
	if total != n*each {
		t.Fatalf("final sum %d, want %d", total, n*each)
	}
}

// TestIrrevocableDrainsSpilledCommitters: with more writing commits in
// flight in one registry shard than it has slots, an irrevocable
// transaction must wait out the ones that spilled into the overflow map
// as well as the slot holders.
func TestIrrevocableDrainsSpilledCommitters(t *testing.T) {
	e := NewEngine(Config{Shards: 1})
	committers := make([]*Txn, registrySlots+4)
	for i := range committers {
		// What passGate leaves behind: registered, the gate seen down.
		committers[i] = e.Begin(SemanticsDef)
		committers[i].registerLive()
	}
	if n := e.live.shards[0].spilled.Load(); n != 4 {
		t.Fatalf("%d committers spilled, want 4", n)
	}
	began := make(chan struct{})
	go func() {
		_ = e.Run(SemanticsIrrevocable, func(*Txn) error {
			close(began)
			return nil
		})
	}()
	for _, group := range [][]*Txn{committers[:registrySlots], committers[registrySlots:]} {
		select {
		case <-began:
			t.Fatalf("irrevocable began with %d committers in flight", len(group))
		case <-time.After(20 * time.Millisecond):
		}
		for _, tx := range group {
			tx.Abort()
		}
	}
	select {
	case <-began:
	case <-time.After(5 * time.Second):
		t.Fatal("irrevocable never began after every committer finished")
	}
}

// TestIrrevocableRetryWaitBacksOff: an irrevocable body has no read set
// for ErrRetryWait to wait on, so the run re-executes it on a growing
// backoff rather than at once. Waiting for a producer that commits after
// 50 ms takes about 60 attempts, not hundreds of thousands; the
// producer's commit, which must pass the gate each attempt raises,
// lands; and cancellation still wakes the waiter.
func TestIrrevocableRetryWaitBacksOff(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	produced := make(chan error, 1)
	start := time.Now()
	go func() {
		time.Sleep(50 * time.Millisecond)
		produced <- e.Run(SemanticsDef, func(tx *Txn) error { return tx.Write(x, 1) })
	}()
	attempts := 0
	err := e.RunOpts(context.Background(), SemanticsIrrevocable, RunOptions{}, func(tx *Txn) error {
		attempts++
		if v, err := tx.Read(x); err != nil || v.(int) != 0 {
			return err
		}
		return ErrRetryWait
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-produced; err != nil {
		t.Fatalf("producer: %v", err)
	}
	// Ten yields, then at most one attempt per millisecond slept: a late
	// producer on a loaded machine may stretch the wait, not the rate.
	if limit := max(100, 12+int(time.Since(start)/time.Millisecond)); attempts > limit {
		t.Fatalf("irrevocable retry ran %d attempts in %v, want <= %d", attempts, time.Since(start), limit)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start = time.Now()
	err = e.RunOpts(ctx, SemanticsIrrevocable, RunOptions{}, func(*Txn) error { return ErrRetryWait })
	requireCancelled(t, err, context.DeadlineExceeded)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry backoff held the cancelled run for %v", elapsed)
	}
}

type errTest struct{}

func (errTest) Error() string { return "test error" }
