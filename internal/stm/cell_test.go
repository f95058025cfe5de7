package stm

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// The version record is allocated by the writer and installed by commit
// as is (see Version). These tests pin that rule at the engine level,
// with a stand-in for core's typed cell: a larger object that begins
// with the record header and stores the value after it, read back by
// casting the record a read returns.

type intCell struct {
	Version
	n int
}

func newIntCell(n int) *Version { return &(&intCell{n: n}).Version }

// cellValue reads the int behind a record newIntCell made.
func cellValue(rec *Version) int { return (*intCell)(unsafe.Pointer(rec)).n }

// newCellVar returns a variable of e whose records are intCells.
func newCellVar(e *Engine, n int) *Var {
	v := new(Var)
	e.InitVar(v, newIntCell(n))
	return v
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
// semantics, and every read hands back the record itself; an aborted
// attempt's record, and a record replaced by a later write of the same
// transaction, are never stamped and never reach the chain. A snapshot
// reader held open throughout keeps the whole history linked, so
// "exactly once" is checked against everything ever installed.
func TestCellCommitInstallsHandedRecord(t *testing.T) {
	for _, sem := range []Semantics{SemanticsDef, SemanticsWeak, SemanticsIrrevocable} {
		t.Run(sem.String(), func(t *testing.T) {
			e := NewDefaultEngine()
			x, other := newCellVar(e, 0), e.NewVar(0)
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
				got, err := tx.ReadVersion(x, false) // read-your-writes: the last record
				if err != nil {
					return err
				}
				if got != rec || cellValue(got) != 4 {
					t.Errorf("read-your-writes returned %p (%d), want the last record %p", got, cellValue(got), rec)
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

			// Two more records go on top, each read back as itself.
			var top []*Version
			for n := 5; n <= 6; n++ {
				rec := newIntCell(n)
				if err := e.Run(sem, func(tx *Txn) error { return tx.WriteVersion(x, rec) }); err != nil {
					t.Fatal(err)
				}
				if err := e.Run(SemanticsDef, func(tx *Txn) error {
					got, err := tx.ReadVersion(x, false)
					if err == nil && (got != rec || cellValue(got) != n) {
						t.Errorf("read %p (%d) after committing %p (%d)", got, cellValue(got), rec, n)
					}
					return err
				}); err != nil {
					t.Fatal(err)
				}
				top = append(top, rec)
			}
			if x.head.Load() != top[1] || top[1].prev.Load() != top[0] || top[0].prev.Load() != committed {
				t.Errorf("chain is not 6 -> 5 -> committed")
			}

			for _, rec := range []*Version{first, committed, top[0], top[1]} {
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
			if got, err := pin.ReadVersion(x, false); err != nil || got != first || cellValue(got) != 0 {
				t.Errorf("pinned snapshot read %p, %v; want the first record %p", got, err, first)
			}
		})
	}
}

// TestCellSnapshotResolvesMixedChain: a writer overwrites two variables
// it keeps equal, one of intCells and one of boxes, so every commit's
// pair mixes the two record shapes; snapshot readers — each begun at an
// arbitrary point between overwrites — resolve both chains and must see
// one commit's pair, and the same pair again once two more overwrites
// have landed on top. Run under -race: the record is stamped by the
// committer after the writer built it and read by snapshot readers that
// found it through head or prev.
func TestCellSnapshotResolvesMixedChain(t *testing.T) {
	e := NewDefaultEngine()
	p, q := newCellVar(e, 0), e.NewVar(0)
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
				if err := tx.WriteVersion(p, newIntCell(i)); err != nil {
					return err
				}
				return tx.Write(q, i)
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
						rec, err := tx.ReadVersion(v, false)
						if err != nil {
							t.Error(err)
							return -1
						}
						if v == p {
							return cellValue(rec)
						}
						return unboxed(rec).(int)
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
