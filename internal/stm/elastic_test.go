package stm

import (
	"sync"
	"testing"
)

// TestFigure1EngineLevel replays the transactional schedule of the
// paper's Figure 1 against the real engine:
//
//	p1: start(weak) r(x)            r(y)                      r(z) commit
//	p3:        start(def) w(z)            commit
//	p2:                                     start(def) w(x) commit
//
// The weak (elastic) transaction of p1 must commit — this is exactly the
// schedule the paper proves a polymorphic TM accepts — while the same
// interleaving under start(def) must abort (monomorphic rejection,
// Theorem 2's 6⇐ direction on this witness).
func TestFigure1EngineLevel(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar("x0")
	y := e.NewVar("y0")
	z := e.NewVar("z0")

	p1 := e.Begin(SemanticsWeak)

	vx, err := p1.Read(x)
	if err != nil {
		t.Fatalf("p1 r(x): %v", err)
	}

	// p3: start(def), w(z), commit
	p3 := e.Begin(SemanticsDef)
	if err := p3.Write(z, "z3"); err != nil {
		t.Fatal(err)
	}
	if err := p3.Commit(); err != nil {
		t.Fatal(err)
	}

	vy, err := p1.Read(y)
	if err != nil {
		t.Fatalf("p1 r(y): %v", err)
	}

	// p2: start(def), w(x), commit — overwrites p1's first read.
	p2 := e.Begin(SemanticsDef)
	if err := p2.Write(x, "x2"); err != nil {
		t.Fatal(err)
	}
	if err := p2.Commit(); err != nil {
		t.Fatal(err)
	}

	// p1 r(z): z was committed after p1's start, so this read triggers
	// an elastic cut — x (already outside the window) is dropped, the
	// window {y} revalidates, and the read succeeds.
	vz, err := p1.Read(z)
	if err != nil {
		t.Fatalf("p1 r(z) must succeed under weak semantics: %v", err)
	}
	if err := p1.Commit(); err != nil {
		t.Fatalf("p1 commit must succeed under weak semantics: %v", err)
	}

	if vx != "x0" || vy != "y0" || vz != "z3" {
		t.Fatalf("p1 observed (%v,%v,%v), want (x0,y0,z3)", vx, vy, vz)
	}
	if e.Stats().ElasticCuts == 0 {
		t.Fatal("expected an elastic cut to be recorded")
	}
}

// TestFigure1MonomorphicRejects runs the identical interleaving with
// start(def) for p1: the monomorphic transaction must abort, because its
// three reads form a single critical step that no serialization point
// satisfies once both writers committed in the middle.
func TestFigure1MonomorphicRejects(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar("x0")
	y := e.NewVar("y0")
	z := e.NewVar("z0")

	p1 := e.Begin(SemanticsDef)
	if _, err := p1.Read(x); err != nil {
		t.Fatal(err)
	}

	p3 := e.Begin(SemanticsDef)
	if err := p3.Write(z, "z3"); err != nil {
		t.Fatal(err)
	}
	if err := p3.Commit(); err != nil {
		t.Fatal(err)
	}

	if _, err := p1.Read(y); err != nil {
		t.Fatal(err) // y untouched; still consistent at p1's rv
	}

	p2 := e.Begin(SemanticsDef)
	if err := p2.Write(x, "x2"); err != nil {
		t.Fatal(err)
	}
	if err := p2.Commit(); err != nil {
		t.Fatal(err)
	}

	// r(z) forces an extension (z changed after p1 started); the
	// extension revalidates x, which p2 overwrote — abort.
	_, err := p1.Read(z)
	if !IsRetryable(err) {
		t.Fatalf("monomorphic p1 must abort on r(z), got %v", err)
	}
}

// TestElasticWindowInvalidated: if the *window itself* (the immediately
// preceding read) is overwritten before the next read, the pairwise
// critical step is unsatisfiable and the elastic transaction must abort.
func TestElasticWindowInvalidated(t *testing.T) {
	e := NewDefaultEngine()
	y := e.NewVar("y0")
	z := e.NewVar("z0")

	p1 := e.Begin(SemanticsWeak)
	if _, err := p1.Read(y); err != nil {
		t.Fatal(err)
	}

	// Overwrite y (in the window) AND z (to force the cut attempt).
	w := e.Begin(SemanticsDef)
	if err := w.Write(y, "y1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(z, "z1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	_, err := p1.Read(z)
	if !IsRetryable(err) {
		t.Fatalf("elastic txn must abort when its window is invalidated, got %v", err)
	}
}

// TestElasticBecomesMonomorphicAfterWrite: once an elastic transaction
// writes, later reads are fully tracked and a stale read set aborts the
// commit — elasticity applies to the search prefix only.
func TestElasticBecomesMonomorphicAfterWrite(t *testing.T) {
	e := NewDefaultEngine()
	a := e.NewVar(1)
	b := e.NewVar(2)
	c := e.NewVar(3)

	p := e.Begin(SemanticsWeak)
	if _, err := p.Read(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(b, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(c); err != nil {
		t.Fatal(err)
	}

	// Invalidate c after p read it, post-write: commit must fail.
	w := e.Begin(SemanticsDef)
	if err := w.Write(c, 30); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := p.Commit(); !IsRetryable(err) {
		t.Fatalf("post-write elastic commit must validate reads, got %v", err)
	}
	if got := b.LoadDirect().(int); got != 2 {
		t.Fatalf("aborted elastic write leaked: %d", got)
	}
}

// TestElasticReadOnlyNeverValidatesAtCommit: a pure search (read-only
// elastic transaction) commits even if every variable it ever read has
// since been overwritten — only pairwise consistency at read time
// matters.
func TestElasticReadOnlyCommitsDespiteStaleHistory(t *testing.T) {
	e := NewDefaultEngine()
	vars := make([]*Var, 10)
	for i := range vars {
		vars[i] = e.NewVar(i)
	}

	p := e.Begin(SemanticsWeak)
	for i := range vars {
		if _, err := p.Read(vars[i]); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		// After each read, overwrite a variable read two steps ago —
		// always outside the window.
		if i >= 2 {
			w := e.Begin(SemanticsDef)
			if err := w.Write(vars[i-2], i*100); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Commit(); err != nil {
		t.Fatalf("read-only elastic commit: %v", err)
	}
}

// TestElasticCutChain: multiple successive cuts in one transaction.
func TestElasticCutChain(t *testing.T) {
	e := NewDefaultEngine()
	a := e.NewVar("a")
	b := e.NewVar("b")
	c := e.NewVar("c")
	d := e.NewVar("d")

	p := e.Begin(SemanticsWeak)
	if _, err := p.Read(a); err != nil {
		t.Fatal(err)
	}

	commitWrite := func(v *Var, val string) {
		t.Helper()
		w := e.Begin(SemanticsDef)
		if err := w.Write(v, val); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	commitWrite(b, "b1") // makes next read of b trigger a cut
	if _, err := p.Read(b); err != nil {
		t.Fatalf("cut 1: %v", err)
	}
	commitWrite(c, "c1")
	if _, err := p.Read(c); err != nil {
		t.Fatalf("cut 2: %v", err)
	}
	commitWrite(d, "d1")
	if _, err := p.Read(d); err != nil {
		t.Fatalf("cut 3: %v", err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if cuts := e.Stats().ElasticCuts; cuts < 3 {
		t.Fatalf("recorded %d cuts, want >= 3", cuts)
	}
}

// TestElasticRecycleKeepsNoReads: an elastic run slides its window
// over ten variables past a pinned anchor and cuts once; the pooled
// shell it leaves must hold no variable in any read-set slot up to the
// set's capacity. A slot the window vacated is past the length recycle
// clears, so one left as it was would keep its variable, and the
// version chain behind it, alive for as long as the shell is pooled.
func TestElasticRecycleKeepsNoReads(t *testing.T) {
	e := NewDefaultEngine()
	anchor, z := e.NewVar("anchor"), e.NewVar("z")
	vars := make([]*Var, 10)
	for i := range vars {
		vars[i] = e.NewVar(i)
	}
	var shell *Txn
	err := e.Run(SemanticsWeak, func(tx *Txn) error {
		shell = tx
		if _, err := tx.ReadVersion(anchor, true); err != nil {
			return err
		}
		for _, v := range vars {
			if _, err := tx.Read(v); err != nil {
				return err
			}
		}
		if tx.Attempt() == 1 { // z newer than rv: the read below cuts
			w := e.Begin(SemanticsDef)
			if err := w.Write(z, "z1"); err != nil {
				return err
			}
			if err := w.Commit(); err != nil {
				return err
			}
		}
		_, err := tx.Read(z)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().ElasticCuts == 0 {
		t.Fatal("the run made no elastic cut")
	}
	for i, r := range shell.rset[:cap(shell.rset)] {
		if r.v != nil || r.ver != nil {
			t.Fatalf("read-set slot %d of %d still holds a variable or version", i, cap(shell.rset))
		}
	}
}

// TestElasticConcurrentSearchers: many elastic readers walking a chain
// of variables while writers churn values they have already passed. All
// searches must complete without aborts in Run (retries allowed but the
// workload is designed so the window is never invalidated).
func TestElasticConcurrentSearchers(t *testing.T) {
	e := NewDefaultEngine()
	const n = 64
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = e.NewVar(i)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers churn the first half of the chain.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := uint32(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r = r*1664525 + 1013904223
				i := int(r>>8) % (n / 2)
				_ = e.Run(SemanticsDef, func(tx *Txn) error {
					v, err := tx.Read(vars[i])
					if err != nil {
						return err
					}
					return tx.Write(vars[i], v.(int)+1000)
				})
			}
		}(w + 7)
	}
	// Elastic searchers walk the whole chain left to right.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				err := e.Run(SemanticsWeak, func(tx *Txn) error {
					for i := 0; i < n; i++ {
						if _, err := tx.Read(vars[i]); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Join searchers first, then stop writers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// The searchers signal completion through wg; writers need stop.
	// Close stop once searchers are done: poll via a second waitgroup
	// would be cleaner, but the searchers' 4 goroutines exit on their
	// own; give writers the signal right away and wait for everyone.
	close(stop)
	<-done
}
