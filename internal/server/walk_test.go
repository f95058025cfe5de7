package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"polytm/internal/core"
	"polytm/internal/raceflag"
	"polytm/internal/stm"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// TestWalkChunks runs shard.walk over maps that end inside, exactly at,
// and just past a chunk boundary, with emit churning the map around
// the cursor: keys come out strictly ascending, every key present for
// the whole walk comes out exactly once, and one deleted ahead of the
// cursor never does. An emit error and a context cancelled inside emit
// both end the walk, the latter at the next chunk, with no emit after.
func TestWalkChunks(t *testing.T) {
	key := func(i int) string { return fmt.Sprintf("k%06d", i) }
	for _, n := range []int{0, walkChunk, walkChunk + 1, 3*walkChunk + 7} {
		t.Run(fmt.Sprintf("%d-keys", n), func(t *testing.T) {
			// The preload is the even keys; emit inserts odd ones.
			fresh := func() *shard {
				sh := NewStore(core.NewDefault()).tab().shards[0]
				for i := 0; i < n; i++ {
					sh.m.Put(key(2*i), "v", core.Def)
				}
				return sh
			}
			ctx := context.Background()

			sh := fresh()
			seen := map[string]int{}
			deletedAhead := map[string]bool{}
			prev := ""
			err := sh.walk(ctx, func(op wal.Op) error {
				if op.Kind != wal.OpSet || op.Key <= prev && prev != "" {
					t.Fatalf("walk emitted %v %q after %q", op.Kind, op.Key, prev)
				}
				prev = op.Key
				seen[op.Key]++
				var k int
				fmt.Sscanf(op.Key, "k%d", &k)
				if k%2 == 1 {
					return nil
				}
				i := k / 2
				sh.m.Put(key(2*i+7), "ahead", core.Def)
				if i > 0 {
					sh.m.Put(key(2*i-1), "behind", core.Def)
				}
				if i%3 == 2 {
					sh.m.Delete(key(2*(i-1)), core.Def)
				}
				// Two chunks ahead is past the chunk just read, with one key
				// in five deleted on the way.
				if j := i + 2*walkChunk; i%5 == 0 && j < n {
					sh.m.Delete(key(2*j), core.Def)
					deletedAhead[key(2*j)] = true
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				want := 1
				if deletedAhead[key(2*i)] {
					want = 0
				}
				if got := seen[key(2*i)]; got != want {
					t.Fatalf("%s emitted %d times, want %d", key(2*i), got, want)
				}
			}

			// emitKeys reads listed keys: a SET for each present, a DEL for
			// each absent one, in the listed order.
			sh = fresh()
			var listed []string
			for i := 0; i < 2*n; i++ {
				listed = append(listed, key(i))
			}
			next := 0
			if err := sh.emitKeys(ctx, listed, func(op wal.Op) error {
				want := wal.OpSet
				if next%2 == 1 {
					want = wal.OpDel
				}
				if op.Key != listed[next] || op.Kind != want {
					t.Fatalf("emitKeys emitted %v %q at %d, want %v %q", op.Kind, op.Key, next, want, listed[next])
				}
				next++
				return nil
			}); err != nil || next != len(listed) {
				t.Fatalf("emitKeys emitted %d of %d keys (%v)", next, len(listed), err)
			}

			if n == 0 {
				return
			}
			sentinel := errors.New("stop here")
			stopAt, emits := (n+1)/2, 0
			if err := sh.walk(ctx, func(wal.Op) error {
				if emits++; emits == stopAt {
					return sentinel
				}
				return nil
			}); err != sentinel || emits != stopAt {
				t.Fatalf("emit error at %d: walk returned %v after %d emits, want the error after %d", stopAt, err, emits, stopAt)
			}

			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			emits = 0
			err = sh.walk(cctx, func(wal.Op) error {
				if emits++; emits == walkChunk/2 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, stm.ErrCancelled) || !errors.Is(err, context.Canceled) || emits != walkChunk {
				t.Fatalf("cancelled at emit %d: walk returned %v after %d emits, want a cancellation after the chunk's %d", walkChunk/2, err, emits, walkChunk)
			}
		})
	}
}

// TestWalkFootprint: a walk parked in emit holds no snapshot, so writes
// behind it keep no history for it. Overwriting the 50k keys behind the
// midpoint of a 100k-key shard grows the heap by what it grows without
// a walk, where one snapshot held across the same walk keeps every
// overwritten version.
func TestWalkFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation changes object sizes; the footprint is asserted in the non-race CI step")
	}
	const n = 100_000
	st := NewStore(core.NewDefault())
	sh := st.tab().shards[0]
	req := wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Val: make([]byte, 64)}
	var resp wire.Response
	set := func(hi int) {
		for i := 0; i < hi; i++ {
			req.Key = fmt.Appendf(req.Key[:0], "key-%012d", i)
			st.ExecuteInto(&req, &resp)
			if resp.Status != wire.StatusOK {
				t.Fatalf("SET %s: %v %s", req.Key, resp.Status, resp.Msg)
			}
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		// The second cycle frees what a sync.Pool kept for one more: a
		// store an earlier test wrote last since the previous collection
		// (a big heap can hold the next one off for many tests).
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	set(n)
	mid := fmt.Sprintf("key-%012d", n/2)
	// grown runs reader on a goroutine, overwrites every key behind mid
	// while the reader is parked there, and returns the heap's growth in
	// MiB.
	grown := func(reader func(at func(key string))) float64 {
		parked, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			reader(func(key string) {
				if key == mid {
					close(parked)
					<-release
				}
			})
		}()
		select {
		case <-parked:
		case <-done:
			t.Fatal("the reader ended before the midpoint")
		}
		defer func() { close(release); <-done }()
		before := heap()
		set(n / 2)
		return float64(heap()-before) / (1 << 20)
	}
	none := grown(func(at func(string)) { at(mid) })
	walk := grown(func(at func(string)) {
		if err := sh.walk(context.Background(), func(op wal.Op) error { at(op.Key); return nil }); err != nil {
			t.Error(err)
		}
	})
	held := grown(func(at func(string)) {
		if err := sh.tm.AtomicAs(core.Snapshot, func(tx *core.Tx) error {
			return sh.m.RangeTx(tx, "", "", 0, func(k, _ string) bool { at(k); return true })
		}); err != nil {
			t.Error(err)
		}
	})
	t.Logf("heap growth over %d overwrites behind a parked reader: %.2f MiB with none, %.2f MiB beside the walk, %.2f MiB beside one snapshot", n/2, none, walk, held)
	if none < -1 {
		// Overwrites in place cannot shrink the heap: what was freed is
		// not this test's, and the other two figures are not comparable.
		t.Fatalf("the heap shrank %.2f MiB while no reader was parked: an object this test does not own was freed mid-measurement; live goroutines:\n%s", -none, allStacks())
	}
	if walk-none > 0.25 {
		t.Errorf("the parked walk added %.2f MiB, want <= 0.25", walk-none)
	}
	if held-none < 4 {
		t.Errorf("one snapshot held across the walk added %.2f MiB, want >= 4: the test cannot see a pinned history", held-none)
	}
}
