package stm

import (
	"sync"
	"testing"
	"testing/quick"
)

// TestOpacityNoTornCommit is the regression test for the locked-read
// hazard: a committer locks its write set BEFORE taking its commit
// timestamp and publishes variable by variable, so a reader whose read
// timestamp is newer than that commit could — without the lock check in
// readDef — observe one variable's new head and another's old head from
// the same commit, mid-transaction, without any validation failing
// before user code runs on the torn values (this once crashed a transactional
// deque with a nil dereference).
//
// Writers keep p == q invariant; def readers read both and must never
// observe p != q *inside the body* on values the engine handed them.
// Commit publishes in address order, and the validation-order hole of
// readEntry.current only opened when q was published before p, so the
// pair lives in one array and both placements run.
func TestOpacityNoTornCommit(t *testing.T) {
	e := NewDefaultEngine()
	var pair [2]Var
	e.InitVar(&pair[0], boxed(0))
	e.InitVar(&pair[1], boxed(0))
	t.Run("p-first", func(t *testing.T) { opacityNoTornCommit(t, e, &pair[0], &pair[1]) })
	t.Run("q-first", func(t *testing.T) { opacityNoTornCommit(t, e, &pair[1], &pair[0]) })
}

func opacityNoTornCommit(t *testing.T, e *Engine, p, q *Var) {
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int) {
			defer writers.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				i += 2
				_ = e.Run(SemanticsDef, func(tx *Txn) error {
					if err := tx.Write(p, i); err != nil {
						return err
					}
					return tx.Write(q, i)
				})
			}
		}(w)
	}

	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; n < 10000; n++ {
				err := e.Run(SemanticsDef, func(tx *Txn) error {
					pv, err := tx.Read(p)
					if err != nil {
						return err
					}
					qv, err := tx.Read(q)
					if err != nil {
						return err
					}
					if pv.(int) != qv.(int) {
						t.Errorf("opacity violated: read p=%d q=%d inside one transaction", pv, qv)
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
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestEngineMatchesModelSequential property-checks the engine against a
// plain map model under random single-threaded transactional ops across
// all optimistic semantics.
func TestEngineMatchesModelSequential(t *testing.T) {
	f := func(ops []uint16, semSel []bool) bool {
		e := NewDefaultEngine()
		const nvars = 8
		vars := make([]*Var, nvars)
		model := make([]int, nvars)
		for i := range vars {
			vars[i] = e.NewVar(0)
		}
		for k, op := range ops {
			sem := SemanticsDef
			if k < len(semSel) && semSel[k] {
				sem = SemanticsWeak
			}
			i := int(op) % nvars
			j := int(op>>4) % nvars
			val := int(op >> 8)
			err := e.Run(sem, func(tx *Txn) error {
				got, err := tx.Read(vars[i])
				if err != nil {
					return err
				}
				if got.(int) != model[i] {
					return errModelMismatch
				}
				return tx.Write(vars[j], val)
			})
			if err != nil {
				return false
			}
			model[j] = val
		}
		for i := range vars {
			if vars[i].LoadDirect().(int) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

var errModelMismatch = errTest{}
