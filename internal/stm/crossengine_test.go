package stm

import (
	"errors"
	"testing"
	"time"
)

// TestCrossEngineEveryPath drives a variable of engine B from a
// transaction of engine A on every access path, with the variable in
// each state its lock word can show A: unlocked (B's word), held by a B
// attempt that lets go after a while, and held by a B attempt whose id
// equals A's own attempt id (ids are unique per engine only). Every case
// must fail with a typed ErrCrossEngine — from the access itself, or
// from Commit for an optimistic write that met the held lock — must not
// outlast the holder's release, and must publish nothing on either
// engine.
func TestCrossEngineEveryPath(t *testing.T) {
	type step func(tx *Txn, v *Var, released <-chan struct{}) error
	read := func(tx *Txn, v *Var, _ <-chan struct{}) error { _, err := tx.Read(v); return err }
	write := func(tx *Txn, v *Var, _ <-chan struct{}) error { return tx.Write(v, 1) }
	// settle waits for the holder to let go, so that Commit's lock CAS,
	// not the write, is what meets B's word.
	settle := func(_ *Txn, _ *Var, released <-chan struct{}) error { <-released; return nil }
	paths := []struct {
		name  string
		sem   Semantics
		steps []step
	}{
		{"read-def", SemanticsDef, []step{read}},
		{"read-weak", SemanticsWeak, []step{read}},
		{"read-snapshot", SemanticsSnapshot, []step{read}},
		{"read-irrevocable", SemanticsIrrevocable, []step{read}},
		{"write-def", SemanticsDef, []step{write}},
		{"write-irrevocable", SemanticsIrrevocable, []step{write}},
		{"write-ryw-def", SemanticsDef, []step{write, read, write}},
		{"write-ryw-irrevocable", SemanticsIrrevocable, []step{write, read, write}},
		{"write-def-commit", SemanticsDef, []step{write, settle}},
	}
	const hold = 10 * time.Millisecond
	for _, p := range paths {
		for _, state := range []string{"unlocked", "held", "held-same-id"} {
			t.Run(p.name+"/"+state, func(t *testing.T) {
				a, b := NewDefaultEngine(), NewDefaultEngine()
				x := b.NewVar(0)
				first := x.head.Load()
				released := make(chan struct{})
				var holderID uint64
				if state == "unlocked" {
					close(released)
				} else {
					// A B attempt with the wanted id. Both engines are
					// fresh: A's first run starts at attempt id 1, as does
					// B's first Begin, and each later Begin draws a new
					// block.
					holder := b.Begin(SemanticsDef)
					for (holder.id == 1) != (state == "held-same-id") {
						holder.Abort()
						holder = b.Begin(SemanticsDef)
					}
					defer holder.Abort()
					holderID = holder.id
					prev, ok := x.tryLock(holderID)
					if !ok {
						t.Fatal("could not take x's lock word")
					}
					go func() {
						time.Sleep(hold)
						x.unlockTo(prev)
						close(released)
					}()
				}
				done := make(chan error, 1)
				go func() {
					// Run, not Begin: an optimistic write that meets the
					// held lock aborts on conflict and retries until the
					// holder lets go, as any caller's would.
					done <- a.Run(p.sem, func(tx *Txn) error {
						if state == "held-same-id" && tx.Attempt() == 1 && tx.id != holderID {
							t.Errorf("attempt id %d, holder %d: the ids were meant to match", tx.id, holderID)
						}
						for _, s := range p.steps {
							if err := s(tx, x, released); err != nil {
								return err
							}
						}
						return nil
					})
				}()
				var err error
				select {
				case err = <-done:
				case <-time.After(hold + 10*time.Second):
					t.Fatal("still waiting long after the holder let go")
				}
				var ae *AbortError
				if !errors.Is(err, ErrCrossEngine) || !errors.As(err, &ae) {
					t.Fatalf("got %v, want a typed ErrCrossEngine", err)
				}
				<-released
				if a.clock.Now() != 0 || b.clock.Now() != 0 || x.head.Load() != first || x.lw.Load() != b.word {
					t.Fatalf("clocks %d and %d, head changed %v, word %#x: want nothing published and B's word back",
						a.clock.Now(), b.clock.Now(), x.head.Load() != first, x.lw.Load())
				}
			})
		}
	}
}
