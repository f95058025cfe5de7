package stm

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSemanticsStringAndStrength(t *testing.T) {
	cases := []struct {
		s    Semantics
		name string
	}{
		{SemanticsDef, "def"},
		{SemanticsWeak, "weak"},
		{SemanticsSnapshot, "snapshot"},
		{SemanticsIrrevocable, "irrevocable"},
	}
	for _, c := range cases {
		if c.s.String() != c.name {
			t.Errorf("String() = %q, want %q", c.s.String(), c.name)
		}
		if !c.s.Valid() {
			t.Errorf("%v should be valid", c.s)
		}
	}
	if Semantics(200).Valid() {
		t.Error("out-of-range semantics should be invalid")
	}
	// Strength total order: irrevocable > def > snapshot > weak.
	order := []Semantics{SemanticsWeak, SemanticsSnapshot, SemanticsDef, SemanticsIrrevocable}
	for i := 1; i < len(order); i++ {
		if order[i].Strength() <= order[i-1].Strength() {
			t.Fatalf("strength order broken at %v", order[i])
		}
		if Stronger(order[i], order[i-1]) != order[i] {
			t.Fatalf("Stronger(%v,%v) wrong", order[i], order[i-1])
		}
	}
	if Stronger(SemanticsDef, SemanticsDef) != SemanticsDef {
		t.Fatal("Stronger must be reflexive")
	}
}

func TestAbortErrorDetails(t *testing.T) {
	tx := &Txn{sem: SemanticsDef, attempt: 1}
	err := tx.abortConflict("test site", 42)
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatal("not an AbortError")
	}
	if ae.Reason != "test site" || ae.VarID != 42 {
		t.Fatalf("fields = %q/%d", ae.Reason, ae.VarID)
	}
	if !errors.Is(err, ErrConflict) {
		t.Fatal("must unwrap to ErrConflict")
	}
	if !IsRetryable(err) {
		t.Fatal("conflict aborts are retryable")
	}
	if !strings.Contains(err.Error(), "test site") {
		t.Fatalf("Error() = %q", err.Error())
	}
	if IsRetryable(errors.New("user error")) {
		t.Fatal("user errors are not retryable")
	}
}

func TestStatsString(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	_ = e.Run(SemanticsDef, func(tx *Txn) error { return tx.Write(x, 1) })
	s := e.Stats().String()
	for _, frag := range []string{"commits=1", "abort-rate="} {
		if !strings.Contains(s, frag) {
			t.Fatalf("stats string %q missing %q", s, frag)
		}
	}
}

func TestBeginUsesDefaultCM(t *testing.T) {
	e := NewDefaultEngine()
	tx := e.Begin(SemanticsDef)
	if tx.cm.Name() != "polite" {
		t.Fatalf("default cm = %q, want polite", tx.cm.Name())
	}
	tx.Abort()
}

// TestRunHonoursRetry: Retry has one meaning whichever entry point runs
// the body. A plain Run body that returns ErrRetryWait parks on its read
// set (OnWait seen) and commits once another goroutine writes what it
// read; it never returns ErrRetryWait to the caller.
func TestRunHonoursRetry(t *testing.T) {
	obs := &countingObserver{}
	e := NewEngine(Config{Observer: obs})
	x := e.NewVar(0)
	done := make(chan error, 1)
	go func() {
		done <- e.Run(SemanticsDef, func(tx *Txn) error {
			v, err := tx.Read(x)
			if err != nil {
				return err
			}
			if v.(int) == 0 {
				return ErrRetryWait
			}
			return nil
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for obs.waits.Load() == 0 {
		select {
		case err := <-done:
			t.Fatalf("Run returned %v before x changed, want it parked on its read set", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("Run never parked on its read set")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := e.Run(SemanticsDef, func(tx *Txn) error { return tx.Write(x, 1) }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("woken Run = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked Run never woke after x was written")
	}
	if got := obs.commits.Load(); got != 2 {
		t.Fatalf("commits = %d, want 2 (the writer and the woken reader)", got)
	}
}

func TestEffectiveSemanticsStack(t *testing.T) {
	e := NewDefaultEngine()
	tx := e.Begin(SemanticsDef)
	if tx.EffectiveSemantics() != SemanticsDef {
		t.Fatal("base semantics wrong")
	}
	tx.PushMode(SemanticsWeak)
	if tx.EffectiveSemantics() != SemanticsWeak {
		t.Fatal("pushed weak not effective")
	}
	tx.PushMode(SemanticsSnapshot)
	// Nested snapshot inside a non-snapshot transaction degrades to def.
	if tx.EffectiveSemantics() != SemanticsDef {
		t.Fatal("nested snapshot must degrade to def")
	}
	tx.PopMode()
	tx.PopMode()
	if tx.EffectiveSemantics() != SemanticsDef {
		t.Fatal("stack not restored")
	}
	tx.PopMode() // extra pop is a defensive no-op
	tx.Abort()

	irr := e.Begin(SemanticsIrrevocable)
	irr.PushMode(SemanticsWeak)
	if irr.EffectiveSemantics() != SemanticsIrrevocable {
		t.Fatal("irrevocable transactions can never weaken")
	}
	irr.PopMode()
	irr.Commit()
}

// TestAllSemanticsConcurrentIntegration mixes all four semantics on one
// memory under load with a transfer invariant and verifies totals,
// snapshot consistency and irrevocable single-execution all at once.
func TestAllSemanticsConcurrentIntegration(t *testing.T) {
	e := NewDefaultEngine()
	const n = 24
	const initial = 500
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = e.NewVar(initial)
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup

	// Def transfer churn.
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
				_ = e.Run(SemanticsDef, func(tx *Txn) error {
					a, err := tx.Read(vars[i])
					if err != nil {
						return err
					}
					if err := tx.Write(vars[i], a.(int)-3); err != nil {
						return err
					}
					b, err := tx.Read(vars[j])
					if err != nil {
						return err
					}
					return tx.Write(vars[j], b.(int)+3)
				})
			}
		}(uint32(w + 21))
	}

	// Irrevocable transfers: exactly once each; count executions.
	irrevocableRuns := 0
	for k := 0; k < 50; k++ {
		if err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
			irrevocableRuns++
			a, err := tx.Read(vars[k%n])
			if err != nil {
				return err
			}
			if err := tx.Write(vars[k%n], a.(int)-1); err != nil {
				return err
			}
			b, err := tx.Read(vars[(k+1)%n])
			if err != nil {
				return err
			}
			return tx.Write(vars[(k+1)%n], b.(int)+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if irrevocableRuns != 50 {
		t.Fatalf("irrevocable bodies ran %d times, want 50", irrevocableRuns)
	}

	// Snapshot scans: invariant sum, never aborts.
	for rep := 0; rep < 300; rep++ {
		sum := 0
		tx := e.Begin(SemanticsSnapshot)
		for i := 0; i < n; i++ {
			v, err := tx.Read(vars[i])
			if err != nil {
				t.Fatal(err)
			}
			sum += v.(int)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if sum != n*initial {
			t.Fatalf("snapshot sum %d, want %d", sum, n*initial)
		}
	}

	// Weak walkers.
	for rep := 0; rep < 200; rep++ {
		if err := e.Run(SemanticsWeak, func(tx *Txn) error {
			for i := 0; i < n; i++ {
				if _, err := tx.Read(vars[i]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	close(stop)
	writers.Wait()
	total := 0
	for i := range vars {
		total += vars[i].LoadDirect().(int)
	}
	if total != n*initial {
		t.Fatalf("final total %d, want %d", total, n*initial)
	}
}
