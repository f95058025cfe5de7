package stm

import "testing"

// TestPinnedReadSurvivesSliding: an anchored read stays in the validated
// set of an elastic transaction while ordinary reads slide away.
func TestPinnedReadSurvivesSliding(t *testing.T) {
	e := NewDefaultEngine()
	root := e.NewVar("root")
	a := e.NewVar(1)
	b := e.NewVar(2)
	c := e.NewVar(3)
	d := e.NewVar(4)

	p := e.Begin(SemanticsWeak)
	if _, err := p.ReadVersion(root, true); err != nil {
		t.Fatal(err)
	}
	for _, v := range []*Var{a, b, c} {
		if _, err := p.Read(v); err != nil {
			t.Fatal(err)
		}
	}
	// Invalidate the root, then force a cut by committing to d before p
	// reads it: the cut must fail because the pinned root is stale.
	w := e.Begin(SemanticsDef)
	if err := w.Write(root, "root2"); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(d, 40); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(d); !IsRetryable(err) {
		t.Fatalf("cut must fail on stale pinned root, got %v", err)
	}
}

// TestPinnedReadValidatedAtWriteCommit: an elastic writer whose anchor
// went stale must abort at commit even if its window is fine.
func TestPinnedReadValidatedAtWriteCommit(t *testing.T) {
	e := NewDefaultEngine()
	root := e.NewVar("root")
	a := e.NewVar(1)
	b := e.NewVar(2)
	out := e.NewVar(0)

	p := e.Begin(SemanticsWeak)
	if _, err := p.ReadVersion(root, true); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(out, 99); err != nil {
		t.Fatal(err)
	}

	w := e.Begin(SemanticsDef)
	if err := w.Write(root, "root2"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := p.Commit(); !IsRetryable(err) {
		t.Fatalf("commit must validate the pinned root, got %v", err)
	}
	if got := out.LoadDirect().(int); got != 0 {
		t.Fatalf("aborted write leaked: %d", got)
	}
}

// TestUnpinnedSlidingStillWorks: with an anchor present, ordinary elastic
// reads still slide and cuts still succeed when only old unpinned reads
// went stale.
func TestUnpinnedSlidingStillWorksWithAnchor(t *testing.T) {
	e := NewDefaultEngine()
	root := e.NewVar("root")
	vars := make([]*Var, 6)
	for i := range vars {
		vars[i] = e.NewVar(i)
	}
	extra := e.NewVar(100)

	p := e.Begin(SemanticsWeak)
	if _, err := p.ReadVersion(root, true); err != nil {
		t.Fatal(err)
	}
	for _, v := range vars {
		if _, err := p.Read(v); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite an early, slid-away variable and the not-yet-read extra:
	// the cut validates {anchor, window} and succeeds.
	w := e.Begin(SemanticsDef)
	if err := w.Write(vars[0], -1); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(extra, 200); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(extra); err != nil {
		t.Fatalf("cut with valid anchor must succeed: %v", err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedUnderDefIsOrdinaryRead(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(5)
	err := e.Run(SemanticsDef, func(tx *Txn) error {
		rec, err := tx.ReadVersion(x, true)
		if err != nil {
			return err
		}
		if v := unboxed(rec); v.(int) != 5 {
			t.Fatalf("got %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
