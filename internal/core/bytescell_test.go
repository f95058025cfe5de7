package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"polytm/internal/raceflag"
)

// mallocClass is the Go allocator's size class of an n-byte object, for
// the range these tests cover.
func mallocClass(n int) int {
	for _, c := range []int{0, 8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704} {
		if n <= c {
			return c
		}
	}
	panic("mallocClass: out of table")
}

// TestBytesCellFootprint walks every value length from 0 to 600 through
// SetBytes and InitBytes and pins the four things the merged cell
// promises: the value reads back; the buffer it was copied from can be
// scribbled on afterwards; a committed write is one allocation for every
// length bytesRecord merges (two where it falls back); and the merged
// object is never larger than the cell plus separately cloned bytes —
// measured, against the size-class arithmetic next to bytesRecord.
func TestBytesCellFootprint(t *testing.T) {
	tm := NewDefault()
	tv := NewTVar(tm, "")
	src := make([]byte, 600)
	for n := 0; n <= 600; n++ {
		val := src[:n]
		for i := range val {
			val[i] = byte('a' + (i+n)%26)
		}
		want := string(val)
		write := func(tx *Tx) error { return SetBytes(tx, tv, val) }
		if err := tm.AtomicAs(Def, write); err != nil {
			t.Fatal(err)
		}
		fresh := new(TVar[string])
		InitBytes(tm, fresh, val)
		for i := range val {
			val[i] = '!'
		}
		if got := tv.LoadDirect(); got != want {
			t.Fatalf("len %d: SetBytes committed %q, want %q (source scribbled after the write)", n, got, want)
		}
		if got := fresh.LoadDirect(); got != want {
			t.Fatalf("len %d: InitBytes holds %q, want %q", n, got, want)
		}
		if raceflag.Enabled {
			continue // instrumentation inflates allocation counts
		}

		merged := n <= maxInlineBytes && !(n > 16 && n <= 24)
		wantAllocs := 2.0
		if merged {
			wantAllocs = 1
		}
		if avg := testing.AllocsPerRun(50, func() { _ = tm.AtomicAs(Def, write) }); avg != wantAllocs {
			t.Errorf("len %d: %.2f allocs per committed SetBytes, want %.0f", n, avg, wantAllocs)
		}
		// What the two objects cost: the 32-byte cell plus the bytes' own
		// class. A clone under 16 bytes comes out of a shared 16-byte tiny
		// block that lives as long as any of its tenants: counted whole.
		two := 32 + mallocClass(n)
		if n > 0 && n < 16 {
			two = 32 + 16
		}
		// Smallest of three rounds, rounded down to the 16 bytes every
		// class in range is a multiple of: a collection in the middle of
		// a round empties the engine's pools and bills their refill to
		// it, and the runtime's own odd allocation lands in the total too.
		const runs = 128
		got := 1 << 30
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				_ = tm.AtomicAs(Def, write)
			}
			runtime.ReadMemStats(&after)
			got = min(got, int(after.TotalAlloc-before.TotalAlloc)/runs&^15)
		}
		if got > two {
			t.Errorf("len %d: %d bytes per committed SetBytes, the two-object form costs %d", n, got, two)
		}
		if merged && got != mallocClass(32+n) {
			t.Errorf("len %d: %d bytes per committed SetBytes, want the %d-byte class", n, got, mallocClass(32+n))
		}
	}
}

// TestCellBytesUnderBufferReuse: writers overwrite a variable through
// SetBytes from one buffer each, which they rewrite the moment the
// write returns — the server's request buffer. Snapshot and def readers
// running alongside must only ever see whole values (every byte of a
// value is the same letter), also when they resolve below the head and
// hold the string across further overwrites. Run with -race on two Ps.
func TestCellBytesUnderBufferReuse(t *testing.T) {
	tm := NewDefault()
	tv := new(TVar[string])
	InitBytes(tm, tv, bytes.Repeat([]byte{'a'}, 40))
	whole := func(s string) bool {
		for i := 1; i < len(s); i++ {
			if s[i] != s[0] {
				return false
			}
		}
		return len(s) > 0
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, maxInlineBytes+8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Lengths sweep every cell shape and the fallback.
				val := buf[:1+(i*7+w)%len(buf)]
				for j := range val {
					val[j] = byte('a' + i%26)
				}
				if err := tm.AtomicAs(Def, func(tx *Tx) error { return SetBytes(tx, tv, val) }); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var held []string
	for n := 0; n < 300; n++ {
		sem := Snapshot
		if n%3 == 0 {
			sem = Def
		}
		if err := tm.AtomicAs(sem, func(tx *Tx) error {
			s1, err := Get(tx, tv)
			if err != nil {
				return err
			}
			runtime.Gosched()
			s2, err := Get(tx, tv)
			if err != nil {
				return err
			}
			if !whole(s1) || s1 != s2 {
				t.Errorf("%v reader saw %q then %q", sem, s1, s2)
			}
			held = append(held[:min(len(held), 8)], s1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, s := range held {
			if !whole(s) {
				t.Fatalf("a held value changed under later overwrites: %q", s)
			}
		}
	}
	close(stop)
	wg.Wait()
}
