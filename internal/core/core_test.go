package core

import (
	"errors"
	"sync"
	"testing"

	"polytm/internal/stm"
)

func TestTypedGetSet(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, "hello")
	err := tm.Atomic(func(tx *Tx) error {
		v, err := Get(tx, x)
		if err != nil {
			return err
		}
		if v != "hello" {
			t.Fatalf("got %q", v)
		}
		return Set(tx, x, "world")
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.LoadDirect(); got != "world" {
		t.Fatalf("got %q, want world", got)
	}
}

func TestDefaultSemanticsIsDef(t *testing.T) {
	tm := NewDefault()
	_ = tm.Atomic(func(tx *Tx) error {
		if tx.Semantics() != Def {
			t.Fatalf("default semantics = %v, want def", tx.Semantics())
		}
		return nil
	})
}

func TestWithSemantics(t *testing.T) {
	tm := NewDefault()
	for _, s := range []Semantics{Def, Weak, Snapshot, Irrevocable} {
		err := tm.Atomic(func(tx *Tx) error {
			if tx.Semantics() != s {
				t.Fatalf("semantics = %v, want %v", tx.Semantics(), s)
			}
			return nil
		}, WithSemantics(s))
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfiguredDefaultSemantics(t *testing.T) {
	tm := New(Config{Default: Weak})
	_ = tm.Atomic(func(tx *Tx) error {
		if tx.Semantics() != Weak {
			t.Fatalf("semantics = %v, want weak", tx.Semantics())
		}
		return nil
	})
}

func TestModify(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, 10)
	if err := tm.Atomic(func(tx *Tx) error {
		return Modify(tx, x, func(v int) int { return v * 3 })
	}); err != nil {
		t.Fatal(err)
	}
	if got := x.LoadDirect(); got != 30 {
		t.Fatalf("got %d, want 30", got)
	}
}

func TestUserErrorPropagates(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, 0)
	boom := errors.New("boom")
	err := tm.Atomic(func(tx *Tx) error {
		if err := Set(tx, x, 5); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := x.LoadDirect(); got != 0 {
		t.Fatalf("failed txn leaked write: %d", got)
	}
}

func TestComposeTable(t *testing.T) {
	cases := []struct {
		parent, child Semantics
		policy        NestingPolicy
		want          Semantics
	}{
		{Def, Weak, NestStrongest, Def},
		{Weak, Def, NestStrongest, Def},
		{Weak, Weak, NestStrongest, Weak},
		{Def, Irrevocable, NestStrongest, Irrevocable},
		{Snapshot, Weak, NestStrongest, Snapshot},
		{Def, Weak, NestParam, Weak},
		{Weak, Def, NestParam, Def},
		{Def, Weak, NestParent, Def},
		{Weak, Irrevocable, NestParent, Weak},
	}
	for _, c := range cases {
		if got := Compose(c.parent, c.child, c.policy); got != c.want {
			t.Errorf("Compose(%v,%v,%v) = %v, want %v", c.parent, c.child, c.policy, got, c.want)
		}
	}
}

func TestNestedStrongestEscalatesWeakChildToDef(t *testing.T) {
	tm := New(Config{Nesting: NestStrongest})
	observed := Semantics(255)
	_ = tm.Atomic(func(tx *Tx) error {
		return tx.Atomic(func(tx *Tx) error {
			observed = tx.Semantics()
			return nil
		}, WithSemantics(Weak))
	}, WithSemantics(Def))
	if observed != Def {
		t.Fatalf("nested effective semantics = %v, want def (strongest)", observed)
	}
}

func TestNestedParamKeepsChildSemantics(t *testing.T) {
	tm := New(Config{Nesting: NestParam})
	observed := Semantics(255)
	_ = tm.Atomic(func(tx *Tx) error {
		return tx.Atomic(func(tx *Tx) error {
			observed = tx.Semantics()
			return nil
		}, WithSemantics(Weak))
	}, WithSemantics(Def))
	if observed != Weak {
		t.Fatalf("nested effective semantics = %v, want weak (param)", observed)
	}
}

func TestNestedParentOverridesChild(t *testing.T) {
	tm := New(Config{Nesting: NestParent})
	observed := Semantics(255)
	_ = tm.Atomic(func(tx *Tx) error {
		return tx.Atomic(func(tx *Tx) error {
			observed = tx.Semantics()
			return nil
		}, WithSemantics(Def))
	}, WithSemantics(Weak))
	if observed != Weak {
		t.Fatalf("nested effective semantics = %v, want weak (parent)", observed)
	}
}

func TestNestedScopePopsOnReturn(t *testing.T) {
	tm := New(Config{Nesting: NestParam})
	_ = tm.Atomic(func(tx *Tx) error {
		if err := tx.Atomic(func(tx *Tx) error { return nil }, WithSemantics(Weak)); err != nil {
			return err
		}
		if tx.Semantics() != Def {
			t.Fatalf("after nested scope, semantics = %v, want def", tx.Semantics())
		}
		return nil
	})
}

func TestNestedIrrevocableEscalatesWholeTransaction(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, 0)
	outerRuns := 0
	var sawIrrevocable bool
	err := tm.Atomic(func(tx *Tx) error {
		outerRuns++
		if _, err := Get(tx, x); err != nil {
			return err
		}
		return tx.Atomic(func(tx *Tx) error {
			sawIrrevocable = tx.Semantics() == Irrevocable
			return Set(tx, x, 7)
		}, WithSemantics(Irrevocable))
	})
	if err != nil {
		t.Fatal(err)
	}
	if outerRuns != 2 {
		t.Fatalf("outer body ran %d times, want 2 (optimistic then irrevocable)", outerRuns)
	}
	if !sawIrrevocable {
		t.Fatal("nested scope never ran irrevocably")
	}
	if got := x.LoadDirect(); got != 7 {
		t.Fatalf("x = %d, want 7", got)
	}
}

func TestNestedIrrevocableInsideIrrevocableNoEscalation(t *testing.T) {
	tm := NewDefault()
	runs := 0
	err := tm.Atomic(func(tx *Tx) error {
		runs++
		return tx.Atomic(func(tx *Tx) error { return nil }, WithSemantics(Irrevocable))
	}, WithSemantics(Irrevocable))
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("ran %d times, want 1", runs)
	}
}

func TestPerTransactionContentionManager(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				err := tm.Atomic(func(tx *Tx) error {
					return Modify(tx, x, func(v int) int { return v + 1 })
				}, WithContentionManager(stm.NewKarma()))
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := x.LoadDirect(); got != 400 {
		t.Fatalf("x = %d, want 400", got)
	}
}

// TestMixedSemanticsConcurrent is the paper's headline scenario: weak
// (elastic) searches, def writers, and snapshot scanners all running in
// one memory, each with its own semantics, all correct.
func TestMixedSemanticsConcurrent(t *testing.T) {
	tm := NewDefault()
	const n = 32
	vars := make([]*TVar[int], n)
	total := 0
	for i := range vars {
		vars[i] = NewTVar(tm, i)
		total += i
	}
	var writers, bounded sync.WaitGroup
	stop := make(chan struct{})

	// def writers: swap values between two slots (sum preserved).
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed uint32) {
			defer writers.Done()
			r := seed
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
				_ = tm.Atomic(func(tx *Tx) error {
					a, err := Get(tx, vars[i])
					if err != nil {
						return err
					}
					b, err := Get(tx, vars[j])
					if err != nil {
						return err
					}
					if err := Set(tx, vars[i], b); err != nil {
						return err
					}
					return Set(tx, vars[j], a)
				})
			}
		}(uint32(w + 5))
	}

	// weak searchers: walk all variables; must always complete.
	for s := 0; s < 2; s++ {
		bounded.Add(1)
		go func() {
			defer bounded.Done()
			for rep := 0; rep < 200; rep++ {
				if err := tm.Atomic(func(tx *Tx) error {
					for i := 0; i < n; i++ {
						if _, err := Get(tx, vars[i]); err != nil {
							return err
						}
					}
					return nil
				}, WithSemantics(Weak)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// snapshot scanners: the sum must be exactly invariant.
	bounded.Add(1)
	go func() {
		defer bounded.Done()
		for rep := 0; rep < 200; rep++ {
			sum := 0
			if err := tm.Atomic(func(tx *Tx) error {
				sum = 0
				for i := 0; i < n; i++ {
					v, err := Get(tx, vars[i])
					if err != nil {
						return err
					}
					sum += v
				}
				return nil
			}, WithSemantics(Snapshot)); err != nil {
				t.Error(err)
				return
			}
			if sum != total {
				t.Errorf("snapshot sum = %d, want %d", sum, total)
				return
			}
		}
	}()

	// Join the bounded workers first, then stop the writers.
	bounded.Wait()
	close(stop)
	writers.Wait()
}

func TestStatsExposed(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, 0)
	_ = tm.Atomic(func(tx *Tx) error { return Set(tx, x, 1) })
	if tm.Stats().Commits == 0 {
		t.Fatal("stats not wired through")
	}
	tm.ResetStats()
	if tm.Stats().Commits != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}
