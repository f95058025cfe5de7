// Package workload defines the benchmark workloads: the integer-set
// interface every implementation under comparison satisfies (the
// micro-benchmark family of the STM literature the paper builds on),
// deterministic per-worker operation generators, and the standard
// parameter grid (update ratio, key range, initial fill).
package workload

import "math/rand"

// IntSet is the common shape of every integer-set implementation in the
// repository: transactional (internal/structures), lock-based
// (internal/baseline) and lock-free (internal/lockfree) sets all satisfy
// it structurally.
type IntSet interface {
	Insert(uint64) bool
	Remove(uint64) bool
	Contains(uint64) bool
}

// OpKind is one generated operation type.
type OpKind uint8

// The operation kinds of the classic integer-set benchmark.
const (
	OpContains OpKind = iota
	OpInsert
	OpRemove
)

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  uint64
}

// Mix describes an operation mix.
type Mix struct {
	// UpdatePct is the percentage (0..100) of operations that are
	// updates; updates split evenly between inserts and removes, so the
	// set size stays around its initial fill.
	UpdatePct int
	// KeyRange is the key universe [0, KeyRange); the steady-state set
	// size is about KeyRange/2 under an even insert/remove split.
	KeyRange uint64
}

// Generator produces a deterministic operation stream for one worker.
type Generator struct {
	rng *rand.Rand
	mix Mix
}

// NewGenerator creates a generator with the given seed and mix.
func NewGenerator(seed int64, mix Mix) *Generator {
	if mix.KeyRange == 0 {
		mix.KeyRange = 1024
	}
	return &Generator{rng: rand.New(rand.NewSource(seed)), mix: mix}
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	key := uint64(g.rng.Int63n(int64(g.mix.KeyRange)))
	r := g.rng.Intn(100)
	switch {
	case r >= g.mix.UpdatePct:
		return Op{Kind: OpContains, Key: key}
	case r%2 == 0:
		return Op{Kind: OpInsert, Key: key}
	default:
		return Op{Kind: OpRemove, Key: key}
	}
}

// Apply executes op against s, returning whether it "succeeded"
// (contains hit, insert added, remove removed).
func Apply(s IntSet, op Op) bool {
	switch op.Kind {
	case OpContains:
		return s.Contains(op.Key)
	case OpInsert:
		return s.Insert(op.Key)
	default:
		return s.Remove(op.Key)
	}
}

// Prefill inserts every other key of the range so the set starts at
// 50% occupancy, the standard initial condition of the benchmark.
func Prefill(s IntSet, keyRange uint64) {
	for k := uint64(0); k < keyRange; k += 2 {
		s.Insert(k)
	}
}
