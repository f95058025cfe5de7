package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"polytm/internal/raceflag"
	"polytm/internal/stm"
)

// A TVar[T] keeps its value in a typed version cell — the engine's
// record header and the T in one object (see record) — and reads it
// back by casting the record the engine returns (see value). These
// tests pin that every T, pointer-shaped or not, reads back what was
// written, through every access path, and what each record costs.

type cellNode struct{ id int }

type cellPair struct {
	name string
	n    int
}

// exerciseTVar drives one TVar[T] through every access path with three
// distinguishable values.
func exerciseTVar[T any](t *testing.T, a, b, c T) {
	t.Helper()
	same := func(where string, got, want T) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %#v, want %#v", where, got, want)
		}
	}
	tm := NewDefault()
	tv := NewTVar(tm, a)
	store := func(val T) {
		t.Helper()
		if err := tm.Atomic(func(tx *Tx) error { return Set(tx, tv, val) }); err != nil {
			t.Fatal(err)
		}
	}
	same("LoadDirect after NewTVar", tv.LoadDirect(), a)
	store(b)
	same("LoadDirect after a committed Set", tv.LoadDirect(), b)

	for _, sem := range []Semantics{Def, Weak, Irrevocable} {
		store(a)
		if err := tm.AtomicAs(sem, func(tx *Tx) error {
			got, err := Get(tx, tv)
			if err != nil {
				return err
			}
			same("Get of the committed value", got, a)
			if err := Set(tx, tv, b); err != nil {
				return err
			}
			if got, err = Get(tx, tv); err != nil {
				return err
			}
			same("read-your-writes", got, b)
			// A second write to the same variable: last wins.
			if err := Set(tx, tv, c); err != nil {
				return err
			}
			if got, err = GetAnchored(tx, tv); err != nil {
				return err
			}
			same("read-your-writes after the second Set", got, c)
			return nil
		}); err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		same("LoadDirect after commit", tv.LoadDirect(), c)
		if err := tm.AtomicAs(sem, func(tx *Tx) error {
			return Modify(tx, tv, func(cur T) T {
				same("Modify's argument", cur, c)
				return b
			})
		}); err != nil {
			t.Fatal(err)
		}
		var got T
		if err := tm.Atomic(func(tx *Tx) (err error) {
			got, err = Get(tx, tv)
			return err
		}, WithSemantics(Snapshot)); err != nil {
			t.Fatal(err)
		}
		same("snapshot Get after Modify", got, b)
	}

	// An attempt that fails leaves nothing behind.
	boom := errors.New("boom")
	if err := tm.Atomic(func(tx *Tx) error {
		if err := Set(tx, tv, a); err != nil {
			return err
		}
		return boom
	}); err != boom {
		t.Fatalf("body error = %v", err)
	}
	same("LoadDirect after an aborted Set", tv.LoadDirect(), b)

	// A by-value TVar initialised in place behaves the same.
	var arr [2]TVar[T]
	arr[1].Init(tm, c)
	same("LoadDirect of an Init'ed element", arr[1].LoadDirect(), c)
	if err := tm.Atomic(func(tx *Tx) error { return Set(tx, &arr[1], a) }); err != nil {
		t.Fatal(err)
	}
	same("LoadDirect of an Init'ed element after Set", arr[1].LoadDirect(), a)
}

func TestCellEveryValueShape(t *testing.T) {
	n1, n2 := &cellNode{1}, &cellNode{2}
	t.Run("int", func(t *testing.T) { exerciseTVar(t, 0, 7, 1<<40) })
	t.Run("string", func(t *testing.T) { exerciseTVar(t, "", "b", "a longer string value") })
	t.Run("struct", func(t *testing.T) { exerciseTVar(t, cellPair{}, cellPair{"b", 2}, cellPair{"c", 3}) })
	t.Run("pointer", func(t *testing.T) { exerciseTVar[*cellNode](t, nil, n1, n2) })
	t.Run("bytes", func(t *testing.T) { exerciseTVar(t, []byte(nil), []byte("b"), []byte("cc")) })
	t.Run("any", func(t *testing.T) { exerciseTVar[any](t, nil, 42, n1) })
	// An `any` holding a *any: the one dynamic type a cell-or-plain guess
	// by value (rather than by T) would misread.
	inner := any("inner")
	t.Run("any-of-pointer-to-any", func(t *testing.T) { exerciseTVar[any](t, &inner, nil, "plain") })
	t.Run("error", func(t *testing.T) { exerciseTVar[error](t, nil, errors.New("b"), stm.ErrConflict) })
	t.Run("zero-size", func(t *testing.T) { exerciseTVar(t, struct{}{}, struct{}{}, struct{}{}) })
	t.Run("map", func(t *testing.T) {
		exerciseTVar(t, map[string]int(nil), map[string]int{"b": 2}, map[string]int{"c": 3})
	})
	t.Run("func", func(t *testing.T) {
		// Funcs only compare to nil; check the shape survives the trip.
		tm := NewDefault()
		tv := NewTVar[func() int](tm, nil)
		if tv.LoadDirect() != nil {
			t.Fatal("nil func did not read back nil")
		}
		if err := tm.Atomic(func(tx *Tx) error { return Set(tx, tv, func() int { return 9 }) }); err != nil {
			t.Fatal(err)
		}
		if f := tv.LoadDirect(); f == nil || f() != 9 {
			t.Fatal("func value did not survive Set")
		}
	})
}

// TestCellPointerIdentity: a pointer T comes back as the same pointer,
// not a copy of its pointee (DeepEqual above would not notice).
func TestCellPointerIdentity(t *testing.T) {
	tm := NewDefault()
	n := &cellNode{1}
	tv := NewTVar(tm, n)
	if tv.LoadDirect() != n {
		t.Fatal("pointer identity lost through NewTVar")
	}
	m := &cellNode{1}
	if err := tm.Atomic(func(tx *Tx) error { return Set(tx, tv, m) }); err != nil {
		t.Fatal(err)
	}
	var got *cellNode
	if err := tm.Atomic(func(tx *Tx) (err error) {
		got, err = Get(tx, tv)
		return err
	}); err != nil || got != m {
		t.Fatal("pointer identity lost through Set")
	}
}

// TestCellNestedScopeAbortDropsItsRecord: nesting is flat — a nested scope
// writes into its parent's write set, and the only roll-back there is is
// the attempt's. A scope that forces one (an irrevocable scope inside an
// optimistic parent aborts the attempt and escalates; a scope whose
// error the body returns aborts the run) takes its record with it: the
// restarted attempt starts from the committed value, not from the
// dropped write, and what commits is only what that attempt wrote.
func TestCellNestedScopeAbortDropsItsRecord(t *testing.T) {
	tm := NewDefault()
	tv := NewTVar(tm, "committed")
	other := NewTVar(tm, 0)
	attempt := 0
	if err := tm.Atomic(func(tx *Tx) error {
		attempt++
		got, err := Get(tx, tv)
		if err != nil {
			return err
		}
		if got != "committed" {
			t.Errorf("attempt %d began with %q in its write set, want the committed value", attempt, got)
		}
		if attempt == 1 {
			if err := tx.AtomicAs(Def, func(tx *Tx) error { return Set(tx, tv, "nested, attempt 1") }); err != nil {
				return err
			}
			// The irrevocable scope cannot be granted mid-flight: the
			// attempt aborts, the nested write above with it.
			return tx.AtomicAs(Irrevocable, func(tx *Tx) error { return Set(tx, other, 1) })
		}
		return tx.AtomicAs(Def, func(tx *Tx) error { return Set(tx, other, attempt) })
	}); err != nil {
		t.Fatal(err)
	}
	if attempt != 2 || tv.LoadDirect() != "committed" || other.LoadDirect() != 2 {
		t.Fatalf("after escalation: attempts=%d tv=%q other=%d; want 2, the committed value, 2", attempt, tv.LoadDirect(), other.LoadDirect())
	}

	boom := errors.New("boom")
	if err := tm.Atomic(func(tx *Tx) error {
		return tx.Atomic(func(tx *Tx) error {
			if err := Set(tx, tv, "nested, failing"); err != nil {
				return err
			}
			return boom
		})
	}); err != boom {
		t.Fatalf("nested error = %v", err)
	}
	if got := tv.LoadDirect(); got != "committed" {
		t.Fatalf("a failed nested scope's write reached the variable: %q", got)
	}
}

// TestCellSnapshotUnderWriter: a string variable and a pointer variable
// (records of 32 and 24 bytes) are overwritten together by a
// concurrent writer; a snapshot reader begun before an overwrite
// resolves both to the pair it started with, before and after the
// writer has moved on.
func TestCellSnapshotUnderWriter(t *testing.T) {
	tm := NewDefault()
	name := NewTVar(tm, "0")
	node := NewTVar(tm, &cellPair{"0", 0})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := &cellPair{name: string(rune('a' + i%26)), n: i}
			if err := tm.Atomic(func(tx *Tx) error {
				if err := Set(tx, name, p.name); err != nil {
					return err
				}
				return Set(tx, node, p)
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for n := 0; n < 100; n++ {
		if err := tm.AtomicAs(Snapshot, func(tx *Tx) error {
			s1, err := Get(tx, name)
			if err != nil {
				return err
			}
			p1, err := Get(tx, node)
			if err != nil {
				return err
			}
			for c := tm.Stats().Commits; tm.Stats().Commits < c+2; {
				runtime.Gosched()
			}
			s2, _ := Get(tx, name)
			p2, _ := Get(tx, node)
			if s1 != p1.name || s2 != s1 || p2 != p1 {
				t.Errorf("snapshot read %q/%+v, then %q/%+v", s1, p1, s2, p2)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if tm.Stats().SnapshotReads == 0 {
		t.Error("no snapshot read resolved below the head")
	}
}

// TestNewTVarAllocs: a variable is one object plus its first version
// record, the cell that also stores the value.
func TestNewTVarAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts; budgets are asserted in the non-race CI step")
	}
	tm := NewDefault()
	n := &cellNode{1}
	var keepS *TVar[string]
	var keepP *TVar[*cellNode]
	if avg := testing.AllocsPerRun(500, func() { keepS = NewTVar(tm, "value") }); avg > 2 {
		t.Errorf("NewTVar[string]: %.2f allocs, want <= 2", avg)
	}
	if avg := testing.AllocsPerRun(500, func() { keepP = NewTVar(tm, n) }); avg > 2 {
		t.Errorf("NewTVar[*T]: %.2f allocs, want <= 2", avg)
	}
	// A committed typed write is the one cell.
	set := func(tx *Tx) error { return Set(tx, keepS, "other") }
	link := func(tx *Tx) error { return Set(tx, keepP, n) }
	for i := 0; i < 64; i++ {
		_ = tm.AtomicAs(Def, set)
	}
	if avg := testing.AllocsPerRun(500, func() { _ = tm.AtomicAs(Def, set) }); avg > 1 {
		t.Errorf("Set[string]: %.2f allocs per committed write, want <= 1", avg)
	}
	if avg := testing.AllocsPerRun(500, func() { _ = tm.AtomicAs(Def, link) }); avg > 1 {
		t.Errorf("Set[*T]: %.2f allocs per committed write, want <= 1", avg)
	}
	// ... and each is its header and its value: a skip-map link's record
	// is 24 bytes, a string's 32.
	if b := bytesPerRun(func() { _ = tm.AtomicAs(Def, link) }); b > 24 {
		t.Errorf("Set[*T]: %d bytes per committed write, want <= 24", b)
	}
	if b := bytesPerRun(func() { _ = tm.AtomicAs(Def, set) }); b > 32 {
		t.Errorf("Set[string]: %d bytes per committed write, want <= 32", b)
	}
}

// bytesPerRun is what one call of f allocates, averaged over 1000.
func bytesPerRun(f func()) uint64 {
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestRecordShapes pins what a version record is: its 16-byte header
// and the value right after it, in the object the writer allocated. A
// TVar's record is a cell of its T — 24 bytes for a pointer (every
// skip-map link) or an int, 32 for a string — a value written from
// borrowed bytes keeps them right after the header, its length in the
// header's tag, and an untyped variable's record is a 32-byte box.
func TestRecordShapes(t *testing.T) {
	if sz := unsafe.Sizeof(stm.Version{}); sz != 16 {
		t.Errorf("sizeof(stm.Version) = %d, want 16", sz)
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"cell[*cellNode]", unsafe.Sizeof(cell[*cellNode]{}), 24},
		{"cell[int]", unsafe.Sizeof(cell[int]{}), 24},
		{"cell[string]", unsafe.Sizeof(cell[string]{}), 32},
		{"a bytes cell's header", unsafe.Offsetof(bytesCell[[64]byte]{}.b), 16},
		{"bytesCell[[64]byte]", unsafe.Sizeof(bytesCell[[64]byte]{}), 80},
		{"bytesCell[[128]byte]", unsafe.Sizeof(bytesCell[[128]byte]{}), 144},
	} {
		if c.got != c.want {
			t.Errorf("sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
	// A bytes cell is its header and its bytes: what value reads is the
	// bytes written, stored right after the 16-byte header.
	for _, n := range []int{64, 128} {
		val := bytes.Repeat([]byte{'x'}, n)
		rec := bytesRecord(val)
		s := value[string](rec)
		off := uintptr(unsafe.Pointer(unsafe.StringData(s))) - uintptr(unsafe.Pointer(rec))
		if len(s) != n || off != 16 || s != string(val) || int(rec.Tag()) != n+1 {
			t.Errorf("%d-byte bytes cell reads %d bytes at offset %d, tagged %d; want the value right after its 16-byte header, tagged %d", n, len(s), off, rec.Tag(), n+1)
		}
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation changes allocation sizes; they are asserted in the non-race CI step")
	}
	tm := NewDefault()
	tv := NewTVar(tm, "")
	for _, c := range []struct{ n, class uint64 }{{64, 80}, {128, 144}} {
		val := make([]byte, c.n)
		write := func(tx *Tx) error { return SetBytes(tx, tv, val) }
		if b := bytesPerRun(func() { _ = tm.AtomicAs(Def, write) }); b != c.class {
			t.Errorf("SetBytes of %d bytes: %d bytes per committed write, want the %d-byte class", c.n, b, c.class)
		}
	}
	e := stm.NewDefaultEngine()
	p := new(int) // boxing a pointer allocates nothing
	x := e.NewVar(p)
	write := func(tx *stm.Txn) error { return tx.Write(x, p) }
	if b := bytesPerRun(func() { _ = e.Run(stm.SemanticsDef, write) }); b != 32 {
		t.Errorf("untyped Write: %d bytes per committed write, want one 32-byte box", b)
	}
}
