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

// stringHeaderCost is what a committed write of n borrowed bytes costs
// when the record keeps a string header beside the engine's (a 32-byte
// cell[string] head): the bytes inline for the lengths n such that n and
// 32+n are classes, a clone and its cell otherwise. A clone under 16
// bytes comes out of a shared 16-byte tiny block that lives as long as
// any of its tenants: counted whole. The tag may never cost more.
func stringHeaderCost(n int) int {
	switch {
	case n == 0:
		return 32
	case n <= 16:
		return 48
	case n <= 24 || n > 224:
		return 32 + mallocClass(n)
	default:
		return mallocClass(32 + n)
	}
}

// TestBytesCellFootprint walks every value length from 0 to 600 through
// SetBytes and InitBytes and pins the four things the bytes cell
// promises: the value reads back; the buffer it was copied from can be
// scribbled on afterwards; a committed write is one allocation for every
// length up to maxInlineBytes (two past it, where the bytes are cloned);
// and that one object is exactly the class of the 16-byte header plus
// the value for every length from 1 to 240, never more than a record
// with its own string header costs — measured, against the size-class
// arithmetic next to bytesRecord.
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

		wantAllocs := 2.0
		if n <= maxInlineBytes {
			wantAllocs = 1
		}
		if avg := testing.AllocsPerRun(50, func() { _ = tm.AtomicAs(Def, write) }); avg != wantAllocs {
			t.Errorf("len %d: %.2f allocs per committed SetBytes, want %.0f", n, avg, wantAllocs)
		}
		// Smallest of three rounds, rounded down to the 8 bytes every
		// class is a multiple of: a collection in the middle of
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
			got = min(got, int(after.TotalAlloc-before.TotalAlloc)/runs&^7)
		}
		if bound := stringHeaderCost(n); got > bound {
			t.Errorf("len %d: %d bytes per committed SetBytes, a record with a string header costs %d", n, got, bound)
		}
		if n > 0 && n <= maxInlineBytes && got != mallocClass(16+n) {
			t.Errorf("len %d: %d bytes per committed SetBytes, want the %d-byte class", n, got, mallocClass(16+n))
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

// TestCellTaggedAndPlainRecordsMix writes one TVar[string] through Set
// (a cell[string], untagged) and SetBytes (a bytes cell, tagged with its
// length, or a cell[string] at length 0 and past maxInlineBytes) in
// turn, at every length from 0 to 300, and parks a snapshot reader after
// each write. Every reader must read the value written just before it
// began, first at the head and again once all later writes have landed,
// when it resolves below the head across records of both shapes. Run
// with -race on two Ps.
func TestCellTaggedAndPlainRecordsMix(t *testing.T) {
	const longest = 300
	tm := NewDefault()
	tv := NewTVar(tm, "")
	buf := make([]byte, longest)
	release := make(chan struct{})
	var readers sync.WaitGroup
	for n := 0; n <= longest; n++ {
		val := buf[:n]
		for i := range val {
			val[i] = byte('a' + (i+n)%26)
		}
		want := string(val)
		if err := tm.AtomicAs(Def, func(tx *Tx) error {
			if n%2 == 0 {
				return Set(tx, tv, want)
			}
			return SetBytes(tx, tv, val)
		}); err != nil {
			t.Fatal(err)
		}
		parked := make(chan struct{})
		readers.Add(1)
		go func() {
			defer readers.Done()
			if err := tm.AtomicAs(Snapshot, func(tx *Tx) error {
				first, err := Get(tx, tv)
				if err != nil {
					return err
				}
				close(parked)
				<-release
				again, err := Get(tx, tv)
				if err != nil {
					return err
				}
				if first != want || again != want {
					t.Errorf("reader after the length-%d write read %d bytes, then %d; want %q both times", n, len(first), len(again), want)
				}
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
		<-parked
	}
	close(release)
	readers.Wait()
	if got := tv.LoadDirect(); len(got) != longest {
		t.Errorf("head holds %d bytes, want the last write's %d", len(got), longest)
	}
}
