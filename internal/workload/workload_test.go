package workload

import (
	"testing"

	"polytm/internal/baseline"
	"polytm/internal/core"
	"polytm/internal/lockfree"
	"polytm/internal/structures"
)

// TestEveryImplementationSatisfiesIntSet pins the structural contract:
// all three families of sets implement the benchmark interface.
func TestEveryImplementationSatisfiesIntSet(t *testing.T) {
	tm := core.NewDefault()
	var sets []IntSet = []IntSet{
		structures.NewTList(tm, core.Weak),
		structures.NewTHash(tm, core.Weak, 8),
		structures.NewTSkipList(tm, core.Def),
		baseline.NewCoarseList(),
		baseline.NewLazyList(),
		baseline.NewCoarseHash(8),
		baseline.NewStripedHash(16, 8),
		baseline.NewCoarseSkipList(),
		lockfree.NewList(),
		lockfree.NewSplitOrdered(),
	}
	for i, s := range sets {
		if !s.Insert(42) || !s.Contains(42) || !s.Remove(42) {
			t.Fatalf("set %d failed the smoke sequence", i)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	mix := Mix{UpdatePct: 20, KeyRange: 128}
	g1 := NewGenerator(7, mix)
	g2 := NewGenerator(7, mix)
	for i := 0; i < 1000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("op %d diverged: %v vs %v", i, a, b)
		}
	}
}

func TestGeneratorRespectsUpdateRatio(t *testing.T) {
	for _, pct := range []int{0, 10, 50, 100} {
		g := NewGenerator(3, Mix{UpdatePct: pct, KeyRange: 64})
		updates := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if op := g.Next(); op.Kind != OpContains {
				updates++
			}
		}
		got := 100 * updates / n
		if got < pct-3 || got > pct+3 {
			t.Fatalf("update pct %d: observed %d%%", pct, got)
		}
	}
}

func TestGeneratorKeyRange(t *testing.T) {
	g := NewGenerator(11, Mix{UpdatePct: 50, KeyRange: 32})
	for i := 0; i < 5000; i++ {
		if op := g.Next(); op.Key >= 32 {
			t.Fatalf("key %d out of range", op.Key)
		}
	}
}

func TestPrefillHalfFull(t *testing.T) {
	s := baseline.NewCoarseList()
	Prefill(s, 100)
	n := 0
	for k := uint64(0); k < 100; k++ {
		if s.Contains(k) {
			n++
		}
	}
	if n != 50 {
		t.Fatalf("prefill len = %d, want 50", n)
	}
	if !s.Contains(0) || s.Contains(1) {
		t.Fatal("prefill should insert even keys only")
	}
}

func TestApplyDispatch(t *testing.T) {
	s := baseline.NewCoarseList()
	if Apply(s, Op{Kind: OpContains, Key: 1}) {
		t.Fatal("contains on empty set")
	}
	if !Apply(s, Op{Kind: OpInsert, Key: 1}) {
		t.Fatal("insert failed")
	}
	if !Apply(s, Op{Kind: OpContains, Key: 1}) {
		t.Fatal("contains after insert failed")
	}
	if !Apply(s, Op{Kind: OpRemove, Key: 1}) {
		t.Fatal("remove failed")
	}
}
