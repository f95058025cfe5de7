package wal

import (
	"bytes"
	"os"
	"slices"
	"testing"
	"time"

	"polytm/internal/raceflag"
)

// TestReserveAllocs pins the queue's cost: payloads are bumped into
// shared chunks, so ten thousand reservations cost the chunks they fill
// (170 B x 10 000 / 64 KB = 26) plus the queue's own growth, not one
// object each.
func TestReserveAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	l, _, _ := openT(t, t.TempDir(), Options{Mode: ModeOff})
	defer l.Close()
	payload := bytes.Repeat([]byte{0x01}, 170)
	const n = 10_000
	allocs := testing.AllocsPerRun(1, func() {
		var last uint64
		for i := 0; i < n; i++ {
			last = l.Reserve(payload)
			l.Commit(last)
		}
		if err := l.WaitDurable(last); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("%d reservations of %d B: %.0f allocations, budget 40", n, len(payload), allocs)
	}
	t.Logf("%d reservations of %d B: %.0f allocations", n, len(payload), allocs)
}

// TestOwnKeepsPayloadsApart: a queued payload is capped at its own
// length (an append through it cannot reach its neighbour), a payload
// that does not fit starts a fresh chunk instead of moving the old one,
// and an oversized payload never touches the chunk at all.
func TestOwnKeepsPayloadsApart(t *testing.T) {
	l, _, _ := openT(t, t.TempDir(), Options{Mode: ModeOff})
	defer l.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.own([]byte("aaaa"))
	b := l.own([]byte("bbbb"))
	if cap(a) != len(a) {
		t.Fatalf("payload not capped: len %d cap %d", len(a), cap(a))
	}
	_ = append(a, 'X')
	if string(b) != "bbbb" {
		t.Fatalf("append through one payload reached its neighbour: %q", b)
	}
	used := len(l.slab)
	big := l.own(make([]byte, slabSize/4+1))
	if len(l.slab) != used || len(big) != slabSize/4+1 {
		t.Fatalf("oversized payload used the chunk: %d -> %d", used, len(l.slab))
	}
	fill := make([]byte, slabSize/4)
	for i := 0; i < 8; i++ { // two chunks' worth: forces at least one new chunk
		l.own(fill)
	}
	if string(a) != "aaaa" || string(b) != "bbbb" {
		t.Fatalf("payloads changed after their chunk was dropped: %q %q", a, b)
	}
}

// TestDecideReverseOrder: a thousand outstanding reservations decided
// last-first. Every decision lands on its own record (the index is the
// sequence's distance from the queue head), nothing is written until
// the head itself is decided, and a decision for a sequence that is not
// queued is ignored.
func TestDecideReverseOrder(t *testing.T) {
	l, _, _ := openT(t, t.TempDir(), Options{Mode: ModeOff})
	defer l.Close()
	if err := l.Append([]byte{0x01, 0, 0}); err != nil { // the queue head is no longer seq 1
		t.Fatal(err)
	}
	var offered []uint64
	tap, _ := l.AttachTap(func(seq uint64, payload []byte) {
		if want := []byte{0x01, byte(seq), byte(seq >> 8)}; !bytes.Equal(payload, want) {
			t.Errorf("seq %d offered with payload %v, want %v", seq, payload, want)
		}
		offered = append(offered, seq)
	})
	defer l.DetachTap(tap)

	const n = 1000
	seqs := make([]uint64, n)
	for i := range seqs {
		seq := uint64(i + 2)
		if seqs[i] = l.Reserve([]byte{0x01, byte(seq), byte(seq >> 8)}); seqs[i] != seq {
			t.Fatalf("reservation %d got seq %d, want %d", i, seqs[i], seq)
		}
	}
	l.Commit(seqs[0] - 1)   // already flushed
	l.Commit(seqs[n-1] + 1) // never reserved
	var want []uint64
	for i := n - 1; i > 0; i-- {
		if i%3 == 0 {
			l.Cancel(seqs[i])
		} else {
			l.Commit(seqs[i])
			want = append(want, seqs[i])
		}
	}
	if _, records, _, _ := l.Stats(); records != 1 {
		t.Fatalf("%d records written while the queue head was undecided, want 1", records)
	}
	l.Commit(seqs[0])
	want = append(want, seqs[0])
	if err := l.WaitDurable(seqs[n-1]); err != nil {
		t.Fatal(err)
	}
	slices.Sort(want)
	l.mu.Lock() // the tap ran under mu
	defer l.mu.Unlock()
	if !slices.Equal(offered, want) {
		t.Fatalf("offered %d records, want %d committed ones in log order", len(offered), len(want))
	}
}

// TestBackgroundFsyncErrorPoisons: a background fsync that fails must
// not be logged and forgotten — the next one would succeed over pages
// the kernel may have dropped. The segment is swapped for a pipe, which
// takes writes and refuses fsync: the record written before the failed
// sync was acknowledged under ModeBatch's contract, every wait after it
// gets the sticky error, and Close reports it without panicking.
func TestBackgroundFsyncErrorPoisons(t *testing.T) {
	// A window this long keeps the real syncer out of the way: the test
	// ticks syncDirty itself.
	l, _, _ := openT(t, t.TempDir(), Options{Mode: ModeBatch, BatchWindow: time.Hour})
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	l.fileMu.Lock()
	l.mu.Lock()
	old := l.f
	l.f = w
	l.mu.Unlock()
	l.fileMu.Unlock()
	old.Close()

	if err := l.Append([]byte{0x01, 'a'}); err != nil {
		t.Fatalf("append before the failed fsync: %v", err)
	}
	l.syncDirty()
	seq := l.Reserve([]byte{0x01, 'b'})
	l.Commit(seq)
	if err := l.WaitDurable(seq); err == nil {
		t.Fatal("WaitDurable succeeded on a log whose background fsync failed")
	}
	if err := l.Append([]byte{0x01, 'c'}); err == nil {
		t.Fatal("Append succeeded on a poisoned log")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close hid the fsync failure")
	}
}
