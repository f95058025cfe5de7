package stm

import (
	"errors"
	"testing"
	"testing/quick"
)

// tryLock takes v's lock for transaction owner from whatever unlocked
// word it holds, returning that word for unlockTo; it fails if v is
// locked. Tests use it to hold a lock as a committer in its publish
// window would.
func (v *Var) tryLock(owner uint64) (prev uint64, ok bool) {
	w := v.lw.Load()
	if isLocked(w) || !v.lw.CompareAndSwap(w, packOwner(owner)) {
		return 0, false
	}
	return w, true
}

// unlockTo releases a lock taken by tryLock, restoring the word w.
func (v *Var) unlockTo(w uint64) { v.lw.Store(w) }

// lockedBy reports whether v is locked and, if so, by which id.
func (v *Var) lockedBy() (owner uint64, locked bool) {
	w := v.lw.Load()
	return wordOwner(w), isLocked(w)
}

// TestLockWordEngineWordsUnlocked: each engine's word is non-zero,
// reads as unlocked, differs from every other engine's, and is what its
// variables hold while unlocked.
func TestLockWordEngineWordsUnlocked(t *testing.T) {
	a, b := NewDefaultEngine(), NewDefaultEngine()
	if a.word == 0 || b.word == 0 || a.word == b.word || isLocked(a.word) || isLocked(b.word) {
		t.Fatalf("engine words %#x and %#x: want two distinct unlocked non-zero words", a.word, b.word)
	}
	if w := a.NewVar(1).lw.Load(); w != a.word {
		t.Fatalf("fresh variable's word %#x, want its engine's %#x", w, a.word)
	}
}

func TestLockWordOwnerRoundTrip(t *testing.T) {
	f := func(o uint64) bool {
		o &^= lockBit
		w := packOwner(o)
		return isLocked(w) && wordOwner(w) == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLockWordStatesDisjoint(t *testing.T) {
	f := func(a, b uint64) bool {
		a &^= lockBit // an engine's word
		b &^= lockBit
		return a != packOwner(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLockWordZeroIsNoEngine: the zero word reads as unlocked and is no
// engine's, so a variable that was never initialised is refused as
// another engine's instead of dereferencing its nil head.
func TestLockWordZeroIsNoEngine(t *testing.T) {
	if isLocked(0) {
		t.Fatal("zero word must be unlocked")
	}
	tx := NewDefaultEngine().Begin(SemanticsDef)
	if _, err := tx.Read(new(Var)); !errors.Is(err, ErrCrossEngine) {
		t.Fatalf("read of a zero Var: %v, want ErrCrossEngine", err)
	}
}

func TestClockMonotonic(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock Now = %d, want 0", c.Now())
	}
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		v := c.Tick()
		if v <= prev {
			t.Fatalf("Tick not strictly increasing: %d after %d", v, prev)
		}
		prev = v
	}
	if c.Now() != prev {
		t.Fatalf("Now = %d, want %d", c.Now(), prev)
	}
}

func TestClockTickConcurrentUnique(t *testing.T) {
	var c Clock
	const workers, per = 8, 2000
	out := make(chan []uint64, workers)
	for w := 0; w < workers; w++ {
		go func() {
			vs := make([]uint64, per)
			for i := range vs {
				vs[i] = c.Tick()
			}
			out <- vs
		}()
	}
	seen := make(map[uint64]bool, workers*per)
	for w := 0; w < workers; w++ {
		for _, v := range <-out {
			if seen[v] {
				t.Fatalf("duplicate commit timestamp %d", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("got %d unique timestamps, want %d", len(seen), workers*per)
	}
}

// stamped returns an untyped record of val as if installed at ver.
func stamped(val any, ver uint64) *Version {
	rec := boxed(val)
	rec.ver = ver
	return rec
}

// chain links recs newest first and returns the head.
func chain(recs ...*Version) *Version {
	for i := 0; i+1 < len(recs); i++ {
		recs[i].prev.Store(recs[i+1])
	}
	return recs[0]
}

func TestVersionResolveAt(t *testing.T) {
	v3 := chain(stamped("c", 30), stamped("b", 20), stamped("a", 10))

	cases := []struct {
		at   uint64
		want any
	}{
		{30, "c"}, {31, "c"}, {29, "b"}, {20, "b"}, {15, "a"}, {10, "a"},
	}
	for _, c := range cases {
		got := v3.resolveAt(c.at)
		if got == nil || unboxed(got) != c.want {
			t.Fatalf("resolveAt(%d) = %v, want %v", c.at, got, c.want)
		}
	}
	if v3.resolveAt(9) != nil {
		t.Fatal("resolveAt before oldest version must return nil")
	}
}

// TestVersionTrim: a writer committing at 40 over the chain 30 -> 20 ->
// 10 keeps what the oldest live reader, at needed, resolves to and
// everything newer.
func TestVersionTrim(t *testing.T) {
	v3 := stamped("c", 30)
	v2 := stamped("b", 20)
	v1 := stamped("a", 10)

	got := retainHistory(chain(v3, v2, v1), 40, 25) // keep newest <= 25, i.e. v2; drop v1
	if got != v3 || v3.prev.Load() != v2 || v2.prev.Load() != nil {
		t.Fatal("needed 25 should keep v3->v2 and cut v1")
	}
	got = retainHistory(chain(v3, v2, v1), 40, 35) // newest <= 35 is v3 itself
	if got != v3 || v3.prev.Load() != nil {
		t.Fatal("needed 35 should keep only v3")
	}
	got = retainHistory(chain(v3, v2, v1), 40, 5) // nothing <= 5: keep the whole chain
	if got != v3 || v3.prev.Load() != v2 || v2.prev.Load() != v1 {
		t.Fatal("needed 5 should keep the full chain")
	}
	if got := retainHistory(chain(v3, v2, v1), 40, 40); got != nil {
		t.Fatal("no reader older than the commit: nothing should be kept")
	}
}
