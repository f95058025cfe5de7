package stm

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// The version record is allocated by the writer and installed by commit
// as is (see Version). These tests pin that rule at the engine level,
// with a stand-in for core's typed cell: a larger object whose first
// field is the record and whose value the record holds by address.

type intCell struct {
	Version
	n int
}

func newIntCell(n int) *Version {
	c := &intCell{n: n}
	return c.Hold(&c.n)
}

// chainCount reports how many times rec appears in v's version chain.
func chainCount(v *Var, rec *Version) (n int) {
	for cur := v.head.Load(); cur != nil; cur = cur.prev.Load() {
		if cur == rec {
			n++
		}
	}
	return n
}

// TestCellCommitInstallsHandedRecord: a committed write's record becomes
// the head — that very object, exactly once — under every writing
// semantics, with plain and cell records mixed on one chain; an aborted
// attempt's record,
// and a record replaced by a later write of the same transaction, are
// never stamped and never reach the chain. A snapshot reader held open
// throughout keeps the whole history linked, so "exactly once" is
// checked against everything ever installed.
func TestCellCommitInstallsHandedRecord(t *testing.T) {
	for _, sem := range []Semantics{SemanticsDef, SemanticsWeak, SemanticsIrrevocable} {
		t.Run(sem.String(), func(t *testing.T) {
			e := NewDefaultEngine()
			x, other := e.NewVar(new(int)), e.NewVar(0)
			first := x.head.Load()
			pin := e.Begin(SemanticsSnapshot)
			defer pin.Abort()

			// Explicit abort.
			aborted := newIntCell(1)
			tx := e.Begin(sem)
			if err := tx.WriteVersion(x, aborted); err != nil {
				t.Fatal(err)
			}
			tx.Abort()

			// A body error, then (optimistic semantics only) an attempt
			// that loses commit validation and is retried.
			failed := newIntCell(2)
			boom := errors.New("boom")
			if err := e.Run(sem, func(tx *Txn) error {
				if err := tx.WriteVersion(x, failed); err != nil {
					return err
				}
				return boom
			}); err != boom {
				t.Fatalf("body error = %v", err)
			}
			var attempts []*Version
			if err := e.Run(sem, func(tx *Txn) error {
				if _, err := tx.Read(other); err != nil {
					return err
				}
				if len(attempts) == 0 && sem != SemanticsIrrevocable {
					// Invalidate this attempt's read behind its back.
					if err := e.Run(SemanticsDef, func(w *Txn) error { return w.Write(other, 1) }); err != nil {
						return err
					}
				}
				replaced := newIntCell(3)
				if err := tx.WriteVersion(x, replaced); err != nil {
					return err
				}
				rec := newIntCell(4)
				attempts = append(attempts, replaced, rec)
				if err := tx.WriteVersion(x, rec); err != nil {
					return err
				}
				got, err := tx.Read(x) // read-your-writes: the last record's value
				if err != nil {
					return err
				}
				if got != rec.val || *got.(*int) != 4 {
					t.Errorf("read-your-writes returned %v, want the last record's value", got)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want := 4 // two attempts, two writes each
			if sem == SemanticsIrrevocable {
				want = 2
			}
			if len(attempts) != want {
				t.Fatalf("body handed over %d records, want %d", len(attempts), want)
			}
			committed := attempts[len(attempts)-1]
			if h := x.head.Load(); h != committed {
				t.Fatalf("head is %p, want the committed attempt's last record %p", h, committed)
			}
			if committed.ver == 0 || committed.prev.Load() != first {
				t.Errorf("committed record stamped ver=%d prev=%p, want a commit timestamp and prev=%p", committed.ver, committed.prev.Load(), first)
			}

			// A plain record and another cell go on top: the chain mixes.
			if err := e.Run(sem, func(tx *Txn) error { return tx.Write(x, new(int)) }); err != nil {
				t.Fatal(err)
			}
			plain := x.head.Load()
			cell := newIntCell(5)
			if err := e.Run(sem, func(tx *Txn) error { return tx.WriteVersion(x, cell) }); err != nil {
				t.Fatal(err)
			}
			if x.head.Load() != cell || cell.prev.Load() != plain || plain.prev.Load() != committed {
				t.Errorf("chain is not cell -> plain -> committed")
			}

			for _, rec := range []*Version{first, committed, plain, cell} {
				if n := chainCount(x, rec); n != 1 {
					t.Errorf("installed record %p appears %d times in the chain, want 1", rec, n)
				}
			}
			for _, rec := range append([]*Version{aborted, failed}, attempts[:len(attempts)-1]...) {
				if n := chainCount(x, rec); n != 0 || rec.ver != 0 || rec.prev.Load() != nil {
					t.Errorf("dropped record %p: in chain %d times, ver=%d prev=%p; want untouched", rec, n, rec.ver, rec.prev.Load())
				}
			}
			// The pinned snapshot still resolves the first version.
			if got, err := pin.Read(x); err != nil || got != first.val {
				t.Errorf("pinned snapshot read %v, %v; want the first version's value", got, err)
			}
		})
	}
}

// TestCellSnapshotResolvesMixedChain: a writer alternates cell and plain
// records on two variables it keeps equal; snapshot readers — each begun
// at an arbitrary point between overwrites — resolve both through the
// mixed chains and must see one commit's pair, and the same pair again
// once two more overwrites have landed on top. Run under -race: the record is
// stamped by the committer after the writer built it and read by
// snapshot readers that found it through head or prev.
func TestCellSnapshotResolvesMixedChain(t *testing.T) {
	e := NewDefaultEngine()
	p, q := e.NewVar(new(int)), e.NewVar(new(int))
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sem := SemanticsDef
			if i%7 == 0 {
				sem = SemanticsIrrevocable
			}
			if err := e.Run(sem, func(tx *Txn) error {
				n := i
				if i%2 == 0 {
					if err := tx.WriteVersion(p, newIntCell(i)); err != nil {
						return err
					}
					return tx.Write(q, &n)
				}
				if err := tx.Write(p, &n); err != nil {
					return err
				}
				return tx.WriteVersion(q, newIntCell(i))
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; n < 500; n++ {
				if err := e.Run(SemanticsSnapshot, func(tx *Txn) error {
					read := func(v *Var) int {
						raw, err := tx.Read(v)
						if err != nil {
							t.Error(err)
							return -1
						}
						return *raw.(*int)
					}
					p1, q1 := read(p), read(q)
					for seen := e.clock.Now(); e.clock.Now() < seen+2; { // two more overwrites of both
						runtime.Gosched()
					}
					if p2, q2 := read(p), read(q); p1 != q1 || p2 != p1 || q2 != q1 {
						t.Errorf("snapshot at rv=%d read p=%d q=%d, then p=%d q=%d", tx.rv, p1, q1, p2, q2)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if e.Stats().SnapshotReads == 0 {
		t.Error("no snapshot read ever resolved below the head: the chain walk was not exercised")
	}
}
