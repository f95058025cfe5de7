package server

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"polytm/internal/repl"
	"polytm/internal/server/client"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// heldLen is the length of key's value on st, or -1 when st lacks it.
func heldLen(st *Store, key string) int {
	resp := st.Execute(&wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: []byte(key)})
	if resp.Status != wire.StatusOK {
		return -1
	}
	return len(resp.Val)
}

// startNearMaxPair starts a durable one-shard primary; start brings up a
// follower of it and waits until it streams.
func startNearMaxPair(t *testing.T) (pcl *client.Client, primary *Server, start func() *Server) {
	t.Helper()
	primary, paddr := startReplServer(t, Config{StoreShards: 1},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1}, &ReplConfig{})
	pcl, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pcl.Close() })
	start = func() *Server {
		fsrv, _ := startReplServer(t, Config{StoreShards: 1},
			&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1},
			&ReplConfig{Follow: paddr, Backoff: repl.Backoff{Min: 10 * time.Millisecond}})
		waitCond(t, 10*time.Second, "follower streaming", func() bool {
			fl := fsrv.Follower()
			return fl != nil && fl.State() == repl.StateStreaming
		})
		return fsrv
	}
	return pcl, primary, start
}

// TestNearMaxValueReplicates: a value whose record still fits one
// WAL-BATCH frame reaches a follower whether it streams live behind a
// smaller record or ships in catch-up behind one; a write whose record
// cannot fit is refused before it is logged, so no primary acks a write
// its followers can never apply.
func TestNearMaxValueReplicates(t *testing.T) {
	small := bytes.Repeat([]byte("s"), 2<<10)
	big := bytes.Repeat([]byte("b"), wire.MaxFrame-1000)

	t.Run("live", func(t *testing.T) {
		pcl, _, start := startNearMaxPair(t)
		fsrv := start()
		// Pipelined, so both records can ship in one drain.
		resps, err := pcl.Do(
			&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("a-small"), Val: small},
			&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("b-big"), Val: big},
		)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resps {
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
		}
		waitCond(t, 10*time.Second, "follower to hold the near-max value", func() bool {
			return heldLen(fsrv.Store(), "b-big") == len(big) && heldLen(fsrv.Store(), "a-small") == len(small)
		})
	})

	t.Run("catch-up", func(t *testing.T) {
		pcl, _, start := startNearMaxPair(t)
		// Catch-up walks keys in order: the small one opens the record
		// the big one would have overflowed.
		if err := pcl.Set([]byte("a-small"), small); err != nil {
			t.Fatal(err)
		}
		if err := pcl.Set([]byte("b-big"), big); err != nil {
			t.Fatal(err)
		}
		fsrv := start()
		waitCond(t, 10*time.Second, "follower to catch up the near-max value", func() bool {
			return heldLen(fsrv.Store(), "b-big") == len(big) && heldLen(fsrv.Store(), "a-small") == len(small)
		})
	})

	t.Run("over-cap", func(t *testing.T) {
		pcl, primary, start := startNearMaxPair(t)
		fsrv := start()
		// op | sem | key "k" | a 4-byte length | the value: exactly
		// MaxFrame, which a reader takes but no one-record WAL-BATCH
		// frame can carry.
		over := bytes.Repeat([]byte("o"), wire.MaxFrame-8)
		frame, err := wire.AppendRequestFrame(nil, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("k"), Val: over})
		if err != nil || len(frame)-4 != wire.MaxFrame {
			t.Fatalf("request payload %d bytes (%v), want exactly MaxFrame", len(frame)-4, err)
		}
		frame = nil
		err = pcl.Set([]byte("k"), over)
		if err == nil || !strings.Contains(err.Error(), wire.ErrFrameTooLarge.Error()) {
			t.Fatalf("over-cap SET: err = %v, want a refusal naming %v", err, wire.ErrFrameTooLarge)
		}
		if n := heldLen(primary.Store(), "k"); n != -1 {
			t.Fatalf("refused SET left a %d-byte value on the primary", n)
		}
		// A TXN's record is built per sub-op, so it is the record that
		// is held to the cap: this request's payload is MaxFrame-1.
		half := bytes.Repeat([]byte("h"), wire.MaxFrame/2-10)
		_, err = pcl.Txn(
			wire.Request{Op: wire.OpSet, Key: []byte("t1"), Val: half},
			wire.Request{Op: wire.OpSet, Key: []byte("t2"), Val: half},
		)
		if err == nil || !strings.Contains(err.Error(), wire.ErrFrameTooLarge.Error()) {
			t.Fatalf("over-cap TXN: err = %v, want a refusal naming %v", err, wire.ErrFrameTooLarge)
		}
		if n := heldLen(primary.Store(), "t1"); n != -1 {
			t.Fatalf("refused TXN left a %d-byte value on the primary", n)
		}
		// The link still streams: the next write reaches the follower.
		if err := pcl.Set([]byte("after"), small); err != nil {
			t.Fatal(err)
		}
		waitCond(t, 10*time.Second, "follower to apply the write after the refusal", func() bool {
			return heldLen(fsrv.Store(), "after") == len(small)
		})
		if n := heldLen(fsrv.Store(), "k"); n != -1 {
			t.Fatalf("follower holds the refused value (%d bytes)", n)
		}
	})

	t.Run("over-cap-cross-shard", func(t *testing.T) {
		// A cross-shard share is held to the cap as the PREPARE it would
		// become: the commit aborts whole and nothing reaches a log.
		var logged atomic.Int64
		st := newSharded(2)
		if _, err := st.EnableDurability(Durability{
			Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1,
			onDurableRecord: func(byte) { logged.Add(1) },
		}); err != nil {
			t.Fatal(err)
		}
		defer st.CloseDurability()
		i := 1
		for st.shardIdx(tkey(i)) == st.shardIdx(tkey(0)) {
			i++
		}
		other := tkey(i)
		resp := st.Execute(&wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
			{Op: wire.OpSet, Key: tkey(0), Val: bytes.Repeat([]byte("x"), wire.MaxFrame-32)},
			{Op: wire.OpSet, Key: other, Val: []byte("small")},
		}})
		if resp.Status != wire.StatusErr || !strings.Contains(resp.Msg, wire.ErrFrameTooLarge.Error()) {
			t.Fatalf("over-cap cross-shard TXN: %v %q, want a refusal naming %v", resp.Status, resp.Msg, wire.ErrFrameTooLarge)
		}
		if heldLen(st, string(tkey(0))) != -1 || heldLen(st, string(other)) != -1 {
			t.Fatal("a refused cross-shard TXN left a share applied")
		}
		if n := logged.Load(); n != 0 {
			t.Fatalf("a refused cross-shard TXN logged %d records", n)
		}
	})
}

// TestOversizeRequestFailsTyped: a request whose frame would pass
// MaxFrame fails in the client with wire.ErrFrameTooLarge, before a
// byte is written, and the client's next request succeeds.
func TestOversizeRequestFailsTyped(t *testing.T) {
	_, addr := startReplServer(t, Config{}, nil, nil)
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Set([]byte("k"), make([]byte, wire.MaxFrame))
	if !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversize SET: err = %v, want wire.ErrFrameTooLarge", err)
	}
	if err := cl.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("next SET: %v", err)
	}
	if v, ok, err := cl.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("GET after the refusal: %q %v %v", v, ok, err)
	}
}
