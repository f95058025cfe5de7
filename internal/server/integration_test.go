package server_test

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"polytm/internal/core"
	"polytm/internal/server"
	"polytm/internal/wire"
)

// TestMixedTrafficIntegration is the subsystem's acceptance experiment:
// ≥8 concurrent client connections drive mixed GET/SCAN/SET/CAS/admin
// traffic through a loopback polyserve. Per connection it asserts
// linearizable read-your-writes (every snapshot GET that follows a SET
// on the same connection observes it); afterwards it asserts the exact
// final store contents; and it verifies through the engine's sharded
// per-semantics stats that the snapshot read class committed without a
// single abort while the def write class was aborting — the paper's
// polymorphic schedule-acceptance gap measured on real wire traffic.
// Run with -race.
func TestMixedTrafficIntegration(t *testing.T) {
	// Force real goroutine interleaving even on a single-CPU runner: the
	// def-abort assertion needs transactions to genuinely overlap.
	if old := runtime.GOMAXPROCS(0); old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	srv, addr := startServer(t, server.Config{Shards: 4})

	const (
		conns       = 10 // ≥ 8 concurrent client connections
		opsPerConn  = 120
		hotKeys     = 2 // tiny hot set so def writers genuinely conflict
		casAttempts = 40
	)

	// Phase 0: seed a little state, then FLUSH it away (admin traffic,
	// irrevocable) so the final-contents accounting starts from zero.
	seed := dialTest(t, addr)
	for i := 0; i < 5; i++ {
		if err := seed.Set([]byte(fmt.Sprintf("seed%d", i)), []byte("x")); err != nil {
			t.Fatalf("seed set: %v", err)
		}
	}
	if n, err := seed.Flush(); err != nil || n != 5 {
		t.Fatalf("flush = %d, %v; want 5", n, err)
	}
	for k := 0; k < hotKeys; k++ {
		if err := seed.Set([]byte("hot"+strconv.Itoa(k)), []byte("0")); err != nil {
			t.Fatalf("hot seed: %v", err)
		}
	}

	// Phase 1: mixed traffic. Each worker owns ONE connection (pool size
	// 1), so the read-your-writes assertion is genuinely per-connection.
	incs := make([]uint64, conns) // successful hot-key increments per conn
	var wg sync.WaitGroup
	errCh := make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := dialTest(t, addr)
			for i := 0; i < opsPerConn; i++ {
				key := []byte(fmt.Sprintf("w%02d-%04d", w, i))
				val := []byte(fmt.Sprintf("v%d.%d", w, i))
				// SET (def) ...
				if err := cl.Set(key, val); err != nil {
					errCh <- fmt.Errorf("conn %d: set: %w", w, err)
					return
				}
				// ... then GET (snapshot) on the same connection MUST see
				// it: the snapshot's read timestamp is taken after the
				// previous commit on this connection completed.
				got, ok, err := cl.Get(key)
				if err != nil {
					errCh <- fmt.Errorf("conn %d: get: %w", w, err)
					return
				}
				if !ok || string(got) != string(val) {
					errCh <- fmt.Errorf("conn %d: read-your-writes violated at op %d: got %q,%v want %q",
						w, i, got, ok, val)
					return
				}
				// SCAN (weak/elastic): this worker's own prefix must come
				// back complete and ordered — every key it wrote so far is
				// committed, and nobody else writes that prefix.
				if i%20 == 19 {
					prefix := fmt.Sprintf("w%02d-", w)
					pairs, err := cl.Scan([]byte(prefix), []byte(prefix+"~"), 0)
					if err != nil {
						errCh <- fmt.Errorf("conn %d: scan: %w", w, err)
						return
					}
					if len(pairs) != i+1 {
						errCh <- fmt.Errorf("conn %d: scan after op %d saw %d own keys, want %d",
							w, i, len(pairs), i+1)
						return
					}
					for j := 1; j < len(pairs); j++ {
						if string(pairs[j-1].Key) >= string(pairs[j].Key) {
							errCh <- fmt.Errorf("conn %d: scan out of order: %q !< %q",
								w, pairs[j-1].Key, pairs[j].Key)
							return
						}
					}
				}
				// An irrevocable full SCAN rides along from one
				// connection: a whole-store walk under the admin class's
				// semantics, concurrent with everything above.
				if w == 0 && i%30 == 29 {
					rs, err := cl.Do(&wire.Request{Op: wire.OpScan, Sem: byte(core.Irrevocable)})
					if err == nil {
						err = rs[0].Err()
					}
					if err != nil {
						errCh <- fmt.Errorf("conn %d: irrevocable scan: %w", w, err)
						return
					}
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	for w := 0; w < conns; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2: contended def writers. Three traffic shapes overlap:
	//
	//   - conn 0 issues back-to-back irrevocable INCRs of the hot keys;
	//     each commit changes a key the readers below hold, so any def
	//     transaction whose span straddles it fails validation;
	//   - conns 1..3 run LONG def TXN batches that read the hot keys and
	//     rewrite their own keys (same values — contents stay exact); a
	//     hot-key write committing mid-batch aborts them;
	//   - every conn CAS-increments the tiny hot set, so the hot keys
	//     keep changing under the batch readers.
	//
	// Meanwhile every CAS is fed by a snapshot GET that can never abort.
	// The round repeats (bounded) until the engine has recorded def
	// aborts, so the assertion below cannot flake on a lucky
	// interleaving; the exactness accounting uses the dynamic total of
	// successful increments.
	contentionRound := func() {
		var wg2 sync.WaitGroup
		for w := 0; w < conns; w++ {
			wg2.Add(1)
			go func(w int) {
				defer wg2.Done()
				cl := dialTest(t, addr)
				if w == 0 {
					// Irrevocable writer: INCRs of the hot keys under the
					// irrevocable semantics byte, counted like CAS wins.
					for i := 0; i < 10; i++ {
						rs, err := cl.Do(&wire.Request{Op: wire.OpIncr, Sem: byte(core.Irrevocable),
							Key: []byte("hot" + strconv.Itoa(i%hotKeys)), Delta: 1})
						if err == nil {
							err = rs[0].Err()
						}
						if err != nil {
							errCh <- fmt.Errorf("conn %d: irrevocable incr: %w", w, err)
							return
						}
						incs[0]++
					}
					errCh <- nil
					return
				}
				if w <= 3 {
					// Long def batches: read the hot set many times, then
					// rewrite this worker's own keys with their current
					// values (a wide read+write footprint, zero net change).
					for i := 0; i < 10; i++ {
						var batch []wire.Request
						for j := 0; j < 24; j++ {
							batch = append(batch, wire.Request{Op: wire.OpGet,
								Key: []byte("hot" + strconv.Itoa(j%hotKeys))})
						}
						for j := 0; j < 24; j++ {
							k := (i*24 + j) % opsPerConn
							batch = append(batch, wire.Request{Op: wire.OpSet,
								Key: []byte(fmt.Sprintf("w%02d-%04d", w, k)),
								Val: []byte(fmt.Sprintf("v%d.%d", w, k))})
						}
						if _, err := cl.Txn(batch...); err != nil {
							errCh <- fmt.Errorf("conn %d: batch: %w", w, err)
							return
						}
					}
				}
				for i := 0; i < casAttempts; i++ {
					key := []byte("hot" + strconv.Itoa((w+i)%hotKeys))
					for {
						cur, ok, err := cl.Get(key)
						if err != nil || !ok {
							errCh <- fmt.Errorf("conn %d: hot get: %v ok=%v", w, err, ok)
							return
						}
						n, err := strconv.Atoi(string(cur))
						if err != nil {
							errCh <- fmt.Errorf("conn %d: hot value %q: %w", w, cur, err)
							return
						}
						swapped, found, _, err := cl.CAS(key, cur, []byte(strconv.Itoa(n+1)))
						if err != nil || !found {
							errCh <- fmt.Errorf("conn %d: hot cas: %v found=%v", w, err, found)
							return
						}
						if swapped {
							incs[w]++
							break
						}
					}
				}
				errCh <- nil
			}(w)
		}
		wg2.Wait()
		for w := 0; w < conns; w++ {
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 8; round++ {
		contentionRound()
		if srv.Stats().Sem(core.Def).Aborts > 0 {
			break
		}
	}

	// Exact final contents: every private key with its last value, plus
	// the hot keys summing exactly to the successful increments.
	expect := make(map[string]string, conns*opsPerConn+hotKeys)
	for w := 0; w < conns; w++ {
		for i := 0; i < opsPerConn; i++ {
			expect[fmt.Sprintf("w%02d-%04d", w, i)] = fmt.Sprintf("v%d.%d", w, i)
		}
	}
	var totalIncs uint64
	for _, n := range incs {
		totalIncs += n
	}
	if totalIncs < uint64((conns-1)*casAttempts) {
		t.Fatalf("increment accounting: %d successes, want >= %d", totalIncs, (conns-1)*casAttempts)
	}
	hotTotal := 0
	pairs, err := seed.Scan(nil, nil, 0)
	if err != nil {
		t.Fatalf("final scan: %v", err)
	}
	got := make(map[string]string, len(pairs))
	prev := ""
	for _, kv := range pairs {
		k := string(kv.Key)
		if prev != "" && k <= prev {
			t.Fatalf("final scan out of order: %q after %q", k, prev)
		}
		prev = k
		got[k] = string(kv.Val)
	}
	for k := 0; k < hotKeys; k++ {
		name := "hot" + strconv.Itoa(k)
		n, err := strconv.Atoi(got[name])
		if err != nil {
			t.Fatalf("hot key %s final value %q", name, got[name])
		}
		hotTotal += n
		delete(got, name)
	}
	if uint64(hotTotal) != totalIncs {
		t.Fatalf("hot keys sum to %d, want %d (every successful CAS exactly once)", hotTotal, totalIncs)
	}
	if len(got) != len(expect) {
		t.Fatalf("final store has %d non-hot keys, want %d", len(got), len(expect))
	}
	for k, v := range expect {
		if got[k] != v {
			t.Fatalf("final store %q = %q, want %q", k, got[k], v)
		}
	}

	// The polymorphism dividend, read off the engine's sharded stats:
	// the snapshot class (all those GETs) committed with ZERO aborts
	// while the def class (the contended writers) was aborting, and the
	// irrevocable admin class never aborted either.
	s := srv.Stats()
	snap := s.Sem(core.Snapshot)
	def := s.Sem(core.Def)
	irr := s.Sem(core.Irrevocable)
	weak := s.Sem(core.Weak)
	if snap.Commits == 0 {
		t.Fatal("no snapshot commits recorded — GETs did not run under snapshot semantics")
	}
	if snap.Aborts != 0 {
		t.Fatalf("snapshot class aborted %d times; the multi-versioned read path must never abort", snap.Aborts)
	}
	if def.Aborts == 0 {
		t.Fatalf("def class never aborted under %d contended writers — contention phase ineffective (stats: %s)",
			conns, s.PerSemString())
	}
	if weak.Commits == 0 {
		t.Fatal("no weak commits recorded — SCANs did not run elastically")
	}
	if irr.Commits == 0 || irr.Aborts != 0 {
		t.Fatalf("irrevocable class commits=%d aborts=%d; admin ops must commit first try", irr.Commits, irr.Aborts)
	}
	t.Logf("per-semantics stats: %s", s.PerSemString())
}
