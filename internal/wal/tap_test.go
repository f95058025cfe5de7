package wal

import (
	"bytes"
	"sync"
	"testing"
)

// TestTapOffersCommittedInOrder: a tap sees exactly the committed
// records appended after attach, in log order, with cancelled
// reservations skipped.
func TestTapOffersCommittedInOrder(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Mode: ModeOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Records before attach are covered by coverSeq, never offered.
	if err := l.Append([]byte{0x01, 'a'}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got []ShipRec
	tap, cover := l.AttachTap(func(seq uint64, payload []byte) {
		mu.Lock()
		got = append(got, ShipRec{Seq: seq, Payload: payload})
		mu.Unlock()
	})
	if cover != 1 {
		t.Fatalf("coverSeq = %d, want 1", cover)
	}

	// committed, cancelled, committed: the cancelled seq is skipped but
	// its position still advances ackSeq.
	s2 := l.Reserve([]byte{0x01, 'b'})
	s3 := l.Reserve([]byte{0x01, 'c'})
	s4 := l.Reserve([]byte{0x01, 'd'})
	l.Commit(s2)
	l.Cancel(s3)
	l.Commit(s4)
	if err := l.WaitDurable(s4); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("offered %d records, want 2: %+v", len(got), got)
	}
	if got[0].Seq != s2 || got[1].Seq != s4 {
		t.Fatalf("offered seqs %d,%d want %d,%d", got[0].Seq, got[1].Seq, s2, s4)
	}
	if string(got[0].Payload) != "\x01b" || string(got[1].Payload) != "\x01d" {
		t.Fatalf("offered payloads %q,%q", got[0].Payload, got[1].Payload)
	}

	// After detach, nothing more is offered.
	l.DetachTap(tap)
	if err := l.Append([]byte{0x01, 'e'}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("offered %d records after detach, want 2", len(got))
	}
}

// TestTapNoGapUnderConcurrentAppend: attach a tap mid-traffic and check
// the invariant replication relies on — every committed seq is either
// <= coverSeq or offered, never lost in between.
func TestTapNoGapUnderConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Mode: ModeOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const total = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			if err := l.Append([]byte{0x01, byte(i)}); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()

	var mu sync.Mutex
	offered := make(map[uint64]bool)
	tap, cover := l.AttachTap(func(seq uint64, payload []byte) {
		mu.Lock()
		if offered[seq] {
			t.Errorf("seq %d offered twice", seq)
		}
		offered[seq] = true
		mu.Unlock()
	})
	defer l.DetachTap(tap)
	<-done
	if err := l.WaitDurable(total); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for seq := uint64(1); seq <= total; seq++ {
		if seq <= cover {
			if offered[seq] {
				t.Fatalf("seq %d <= coverSeq %d but was offered", seq, cover)
			}
			continue
		}
		if !offered[seq] {
			t.Fatalf("seq %d > coverSeq %d but was never offered", seq, cover)
		}
	}
}

// TestTapRetainedPayloadSurvivesChunkTurnover: the tap contract says an
// offered payload is owned by the log and may be retained. Payloads are
// slices of shared chunks now, so the contract needs chunks that are
// dropped when full, never rewound: a retained payload must read the
// same after the log has filled three further chunks.
func TestTapRetainedPayloadSurvivesChunkTurnover(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{Mode: ModeOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var kept [][]byte
	tap, _ := l.AttachTap(func(seq uint64, payload []byte) {
		if len(kept) < 4 {
			kept = append(kept, payload)
		}
	})
	defer l.DetachTap(tap)

	want := make([][]byte, 4)
	for i := range want {
		want[i] = bytes.Repeat([]byte{0x01, byte('a' + i)}, 85)
		if err := l.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	fill := bytes.Repeat([]byte{0x01, 0xff}, 85)
	for written := 0; written < 3*slabSize+len(fill); written += len(fill) {
		if err := l.Append(fill); err != nil {
			t.Fatal(err)
		}
	}
	l.mu.Lock() // the tap ran under mu
	defer l.mu.Unlock()
	if len(kept) != len(want) {
		t.Fatalf("tap kept %d payloads, want %d", len(kept), len(want))
	}
	for i := range want {
		if !bytes.Equal(kept[i], want[i]) {
			t.Fatalf("retained payload %d changed after its chunk was left behind", i)
		}
	}
}
