package core

import (
	"errors"
	"sync"
	"testing"

	"polytm/internal/stm"
)

// TestGetAnchoredUnderEverySemantics: the anchored read returns correct
// values under all semantics (it only changes tracking, not values).
func TestGetAnchoredUnderEverySemantics(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, 99)
	for _, s := range []Semantics{Def, Weak, Snapshot, Irrevocable} {
		err := tm.Atomic(func(tx *Tx) error {
			v, err := GetAnchored(tx, x)
			if err != nil {
				return err
			}
			if v != 99 {
				t.Fatalf("%v: got %d", s, v)
			}
			return nil
		}, WithSemantics(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
}

// TestAnchoredRootProtectsElasticWriter is the hash-resize composition
// rule in miniature: an elastic writer anchors a root variable; a
// concurrent commit to the root forces the writer to retry, so its
// write can never land in a detached structure.
func TestAnchoredRootProtectsElasticWriter(t *testing.T) {
	tm := NewDefault()
	root := NewTVar(tm, 0)
	a := NewTVar(tm, 0)
	b := NewTVar(tm, 0)
	out := NewTVar(tm, 0)

	attempts := 0
	err := tm.Atomic(func(tx *Tx) error {
		attempts++
		rv, err := GetAnchored(tx, root)
		if err != nil {
			return err
		}
		if _, err := Get(tx, a); err != nil {
			return err
		}
		if _, err := Get(tx, b); err != nil {
			return err
		}
		if attempts == 1 {
			// Invalidate the anchor mid-transaction from outside.
			other := NewDefault()
			_ = other // separate memory would be rejected; use same tm
			if err := tm.Atomic(func(tx *Tx) error { return Set(tx, root, 1) }); err != nil {
				return err
			}
		}
		return Set(tx, out, rv+100)
	}, WithSemantics(Weak))
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (anchor must force retry)", attempts)
	}
	if got := out.LoadDirect(); got != 101 {
		t.Fatalf("out = %d, want 101 (committed against the new root)", got)
	}
}

func TestCrossTMVariableRejected(t *testing.T) {
	tm1 := NewDefault()
	tm2 := NewDefault()
	x2 := NewTVar(tm2, 0)
	err := tm1.Atomic(func(tx *Tx) error {
		_, err := Get(tx, x2)
		return err
	})
	if !errors.Is(err, stm.ErrCrossEngine) {
		t.Fatalf("err = %v, want ErrCrossEngine", err)
	}
}

func TestMaxAttemptsSurfacesThroughCore(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, 0)
	err := tm.Atomic(func(tx *Tx) error {
		if _, err := Get(tx, x); err != nil {
			return err
		}
		// Forcing a conflict every attempt by committing externally.
		if err := tm.Atomic(func(tx *Tx) error { return Set(tx, x, 1) }); err != nil {
			return err
		}
		return Set(tx, x, 2)
	}, WithMaxAttempts(2))
	if !errors.Is(err, stm.ErrTooManyAttempts) {
		t.Fatalf("err = %v, want ErrTooManyAttempts", err)
	}
}

// TestEscalationPreservesResults: irrevocable escalation rolls back the
// optimistic attempt completely; only the irrevocable re-run's effects
// survive.
func TestEscalationPreservesResults(t *testing.T) {
	tm := NewDefault()
	x := NewTVar(tm, 0)
	y := NewTVar(tm, 0)
	err := tm.Atomic(func(tx *Tx) error {
		if err := Set(tx, x, 1); err != nil { // optimistic write, attempt 1
			return err
		}
		return tx.Atomic(func(tx *Tx) error {
			return Set(tx, y, 2)
		}, WithSemantics(Irrevocable))
	})
	if err != nil {
		t.Fatal(err)
	}
	if x.LoadDirect() != 1 || y.LoadDirect() != 2 {
		t.Fatalf("x=%d y=%d, want 1,2 (irrevocable re-run must redo both)", x.LoadDirect(), y.LoadDirect())
	}
}

// TestConcurrentMixedNesting exercises nested scopes under concurrency:
// def parents wrapping weak children on a shared array, policy param.
func TestConcurrentMixedNesting(t *testing.T) {
	tm := New(Config{Nesting: NestParam})
	const n = 16
	vars := make([]*TVar[int], n)
	for i := range vars {
		vars[i] = NewTVar(tm, 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			r := seed
			for i := 0; i < 200; i++ {
				r = r*1664525 + 1013904223
				target := int(r>>8) % n
				err := tm.Atomic(func(tx *Tx) error {
					// Weak child: scan a few variables elastically.
					if err := tx.Atomic(func(tx *Tx) error {
						for k := 0; k < 4; k++ {
							if _, err := Get(tx, vars[(target+k)%n]); err != nil {
								return err
							}
						}
						return nil
					}, WithSemantics(Weak)); err != nil {
						return err
					}
					// Parent def write.
					return Modify(tx, vars[target], func(v int) int { return v + 1 })
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(uint32(w + 9))
	}
	wg.Wait()
	total := 0
	for i := range vars {
		total += vars[i].LoadDirect()
	}
	if total != 4*200 {
		t.Fatalf("total = %d, want 800", total)
	}
}
