package stm

import (
	"context"
	"runtime"
	"sync"
	"testing"
)

// TestStatsExactUnderStriping is the exactness cross-check for the
// striped counters: every worker counts its own Read/Write calls and
// successful commits (including calls made on attempts that later
// aborted — the engine counts per call, not per surviving attempt), and
// StatsOf must match the sums exactly, over one engine's stripes and
// over the same workload split across two engines. Run with -race.
func TestStatsExactUnderStriping(t *testing.T) {
	cases := []struct {
		name    string
		engines []*Engine
	}{
		{"shards=1", []*Engine{NewEngine(Config{Shards: 1})}},
		{"shards=4", []*Engine{NewEngine(Config{Shards: 4})}},
		{"shards=GOMAXPROCS", []*Engine{NewDefaultEngine()}},
		{"two engines", []*Engine{NewEngine(Config{Shards: 2}), NewEngine(Config{Shards: 4})}},
	}
	for _, c := range cases {
		const workers = 8
		const txnsPerWorker = 300
		vars := make([][]*Var, len(c.engines)) // an engine's variables stay its own
		for k, e := range c.engines {
			vars[k] = make([]*Var, 16)
			for i := range vars[k] {
				vars[k][i] = e.NewVar(0)
			}
		}

		type tally struct {
			reads, writes, commits uint64
		}
		tallies := make([]tally, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tl := &tallies[w]
				e, vs := c.engines[w%len(c.engines)], vars[w%len(c.engines)]
				r := uint64(w)*0x9E3779B97F4A7C15 + 1
				for n := 0; n < txnsPerWorker; n++ {
					r = r*6364136223846793005 + 1442695040888963407
					i, j := int(r>>33)%len(vs), int(r>>45)%len(vs)
					err := e.Run(SemanticsDef, func(tx *Txn) error {
						// The engine counts every Read/Write call it
						// admits, including calls that then lose a
						// conflict — so the tally counts calls, not
						// successes. (With the default polite manager
						// nothing is ever killed, so no call is
						// rejected before being counted.)
						v, err := tx.Read(vs[i])
						tl.reads++
						if err != nil {
							return err
						}
						err = tx.Write(vs[j], v.(int)+1)
						tl.writes++
						return err
					})
					if err != nil {
						t.Errorf("unexpected run error: %v", err)
						return
					}
					tl.commits++
				}
			}(w)
		}
		wg.Wait()

		var want tally
		for w := range tallies {
			want.reads += tallies[w].reads
			want.writes += tallies[w].writes
			want.commits += tallies[w].commits
		}
		s := StatsOf(c.engines...)
		if s.Commits != want.commits || s.Sem(SemanticsDef).Commits != want.commits {
			t.Errorf("%s: Commits = %d (def %d), want exactly %d", c.name, s.Commits, s.Sem(SemanticsDef).Commits, want.commits)
		}
		if s.Reads != want.reads {
			t.Errorf("%s: Reads = %d, want exactly %d", c.name, s.Reads, want.reads)
		}
		if s.Writes != want.writes {
			t.Errorf("%s: Writes = %d, want exactly %d", c.name, s.Writes, want.writes)
		}
		// Every attempt ends in exactly one commit or one abort.
		if s.Starts != s.Commits+s.Aborts {
			t.Errorf("%s: Starts = %d, want Commits+Aborts = %d",
				c.name, s.Starts, s.Commits+s.Aborts)
		}
		if want := uint64(len(c.engines) * 16); s.VarsAllocated != want {
			t.Errorf("%s: VarsAllocated = %d, want %d", c.name, s.VarsAllocated, want)
		}
	}
}

// TestStatsCountedPerAttempt pins when an attempt's events reach Stats:
// all at once, when it commits or aborts. A read writes nothing shared,
// so an open transaction's reads are invisible; a finished attempt's are
// all there, whether it committed or aborted, and a Begin transaction is
// counted at Commit or Abort.
func TestStatsCountedPerAttempt(t *testing.T) {
	e := NewEngine(Config{Shards: 4})
	vars := make([]*Var, 100)
	for i := range vars {
		vars[i] = e.NewVar(i)
	}
	readAll := func(tx *Txn) error {
		for _, v := range vars {
			if _, err := tx.Read(v); err != nil {
				return err
			}
		}
		return nil
	}
	// moved returns how far reads, starts, commits and aborts moved since
	// before.
	moved := func(before StatsSnapshot) [4]uint64 {
		s := e.Stats()
		return [4]uint64{s.Reads - before.Reads, s.Starts - before.Starts,
			s.Commits - before.Commits, s.Aborts - before.Aborts}
	}

	for _, commit := range []bool{true, false} {
		before := e.Stats()
		tx := e.Begin(SemanticsDef)
		if err := readAll(tx); err != nil {
			t.Fatal(err)
		}
		if got := moved(before); got != [4]uint64{} {
			t.Fatalf("open Begin transaction moved reads/starts/commits/aborts by %v, want none", got)
		}
		want := [4]uint64{100, 1, 0, 1}
		if commit {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			want = [4]uint64{100, 1, 1, 0}
		} else {
			tx.Abort()
		}
		if got := moved(before); got != want {
			t.Fatalf("commit=%v: reads/starts/commits/aborts moved by %v, want %v", commit, got, want)
		}
	}

	// A run whose first attempt aborts after its reads: both attempts'
	// reads are counted, each when its attempt ends.
	before := e.Stats()
	err := e.Run(SemanticsDef, func(tx *Txn) error {
		if err := readAll(tx); err != nil {
			return err
		}
		if got, want := e.Stats().Reads-before.Reads, uint64(100*(tx.Attempt()-1)); got != want {
			t.Errorf("attempt %d open: Reads moved by %d, want %d (finished attempts only)", tx.Attempt(), got, want)
		}
		if tx.Attempt() == 1 {
			return ErrConflict
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := moved(before), [4]uint64{200, 2, 1, 1}; got != want {
		t.Fatalf("aborted-then-committed run moved reads/starts/commits/aborts by %v, want %v", got, want)
	}
}

// TestStatsIdentitiesUnderContention drives heavy contention on one
// variable (with the suicide manager so aborts are plentiful) and
// checks the abort-side identities plus the exact commit count against
// the per-worker success tally.
func TestStatsIdentitiesUnderContention(t *testing.T) {
	e := NewEngine(Config{Shards: 4})
	suicide := RunOptions{CM: NewSuicide()}
	hot := e.NewVar(0)
	const workers = 8
	const txnsPerWorker = 200
	var wg sync.WaitGroup
	var commitTotal [workers]uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < txnsPerWorker; n++ {
				err := e.RunOpts(context.Background(), SemanticsDef, suicide, func(tx *Txn) error {
					v, err := tx.Read(hot)
					if err != nil {
						return err
					}
					runtime.Gosched() // widen the conflict window
					return tx.Write(hot, v.(int)+1)
				})
				if err == nil {
					commitTotal[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var commits uint64
	for w := range commitTotal {
		commits += commitTotal[w]
	}
	s := e.Stats()
	if s.Commits != commits {
		t.Errorf("Commits = %d, want exactly %d (per-worker sum)", s.Commits, commits)
	}
	if s.Starts != s.Commits+s.Aborts {
		t.Errorf("Starts = %d, want Commits+Aborts = %d", s.Starts, s.Commits+s.Aborts)
	}
	if s.Aborts < s.ReadAborts+s.LockAborts+s.ValidateAbort {
		t.Errorf("Aborts = %d < categorized aborts %d", s.Aborts,
			s.ReadAborts+s.LockAborts+s.ValidateAbort)
	}
	if got := hot.LoadDirect().(int); uint64(got) != commits {
		t.Errorf("hot counter = %d, want %d (one increment per commit)", got, commits)
	}
}

// TestShardConfigResolution pins the knob semantics: non-power-of-two
// requests round up, oversize requests clamp, and zero derives from
// GOMAXPROCS.
func TestShardConfigResolution(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {1000, 256},
	}
	for _, c := range cases {
		if e := NewEngine(Config{Shards: c.in}); e.Shards() != c.want {
			t.Errorf("Shards=%d resolved to %d, want %d", c.in, e.Shards(), c.want)
		}
	}
	def := NewDefaultEngine().Shards()
	if def < 1 || def&(def-1) != 0 {
		t.Errorf("default shard count %d is not a positive power of two", def)
	}
	want := 1
	for want < min(runtime.GOMAXPROCS(0), maxShards) {
		want <<= 1
	}
	if def != want {
		t.Errorf("default shard count = %d, want %d (from GOMAXPROCS)", def, want)
	}
}

// TestResetStatsZeroesEveryStripe ensures reset reaches all stripes,
// not just stripe zero.
func TestResetStatsZeroesEveryStripe(t *testing.T) {
	e := NewEngine(Config{Shards: 8})
	for i := 0; i < 64; i++ {
		v := e.NewVar(i)
		if err := e.Run(SemanticsDef, func(tx *Txn) error { return tx.Write(v, i+1) }); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.Commits == 0 || s.VarsAllocated == 0 {
		t.Fatal("expected nonzero counters before reset")
	}
	e.ResetStats()
	if s := e.Stats(); s != (StatsSnapshot{}) {
		t.Fatalf("ResetStats left residue: %+v", s)
	}
}

// TestTxnIDBlocksUniqueAndNonzero drives many transactions concurrently
// and checks that block-allocated attempt ids never collide and never
// produce id 0, which means "none" in a kill and a birth.
func TestTxnIDBlocksUniqueAndNonzero(t *testing.T) {
	e := NewDefaultEngine()
	const workers = 8
	const perWorker = 500
	idsCh := make(chan []uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]uint64, 0, perWorker)
			for n := 0; n < perWorker; n++ {
				tx := e.Begin(SemanticsDef)
				ids = append(ids, tx.id)
				if tx.Birth() == 0 {
					t.Error("birth id 0")
				}
				tx.Abort()
			}
			idsCh <- ids
		}()
	}
	wg.Wait()
	close(idsCh)
	seen := make(map[uint64]bool)
	for ids := range idsCh {
		for _, id := range ids {
			if id == 0 {
				t.Fatal("attempt id 0 issued (0 means no attempt)")
			}
			if seen[id] {
				t.Fatalf("attempt id %d issued twice", id)
			}
			seen[id] = true
		}
	}
}

// TestVarIdentity checks what replaced the id wells: a variable's ID is
// its address, so it must be non-zero, distinct from every other live
// variable's and stable for as long as the variable is reachable —
// whether the variable was allocated singly or lives by value inside a
// caller's array (the skip structures' towers).
func TestVarIdentity(t *testing.T) {
	e := NewDefaultEngine()
	const total, arrayLen = 100_000, 8
	vars := make([]*Var, 0, total)
	for len(vars) < total/2 {
		tower := make([]Var, arrayLen)
		for i := range tower {
			e.InitVar(&tower[i], boxed(i))
			vars = append(vars, &tower[i])
		}
	}
	for len(vars) < total {
		vars = append(vars, e.NewVar(len(vars)))
	}
	ids := make([]uint64, len(vars))
	seen := make(map[uint64]bool, len(vars))
	for i, v := range vars {
		id := v.ID()
		if id == 0 || seen[id] {
			t.Fatalf("var %d: id %#x duplicated or zero", i, id)
		}
		seen[id], ids[i] = true, id
	}
	for cycle := 0; cycle < 2; cycle++ {
		runtime.GC()
		for i, v := range vars {
			if v.ID() != ids[i] {
				t.Fatalf("var %d: id moved %#x -> %#x across GC %d", i, ids[i], v.ID(), cycle+1)
			}
		}
	}
}

// TestCommitLockOrder: two goroutines increment the same two variables
// in opposite program order. Commit sorts the write set by address, so
// both take the locks in one order whatever the body's order was and
// whichever of the two the allocator placed first — neighbours in one
// array or two separate objects. Every transaction must commit and no
// increment may be lost. Run with -race at GOMAXPROCS=2.
func TestCommitLockOrder(t *testing.T) {
	const perG = 10_000
	e := NewDefaultEngine()
	var pair [2]Var
	e.InitVar(&pair[0], boxed(0))
	e.InitVar(&pair[1], boxed(0))
	for name, vars := range map[string][2]*Var{
		"one-array": {&pair[0], &pair[1]},
		"apart":     {e.NewVar(0), e.NewVar(0)},
	} {
		t.Run(name, func(t *testing.T) {
			incr := func(tx *Txn, v *Var) error {
				n, err := tx.Read(v)
				if err != nil {
					return err
				}
				return tx.Write(v, n.(int)+1)
			}
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				first, second := vars[g], vars[1-g]
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; n < perG; n++ {
						if err := e.Run(SemanticsDef, func(tx *Txn) error {
							if err := incr(tx, first); err != nil {
								return err
							}
							return incr(tx, second)
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			for i, v := range vars {
				if got := v.LoadDirect().(int); got != 2*perG {
					t.Errorf("var %d = %d, want %d", i, got, 2*perG)
				}
			}
		})
	}
}

// TestShardSelectionSpreadsBlockIDs is the regression test for a
// sharding pitfall: attempt ids are block-allocated (txnIDBlock apart),
// so every transaction's FIRST attempt id is congruent mod the block
// size — masking raw low bits would send all of them to one shard.
// shardOf must spread an arithmetic progression of stride txnIDBlock
// across all shards.
func TestShardSelectionSpreadsBlockIDs(t *testing.T) {
	const shards = 8
	const mask = shards - 1
	counts := make([]int, shards)
	for k := uint64(0); k < 1000; k++ {
		counts[shardOf(k*txnIDBlock+1, mask)]++ // first-attempt ids: 1, 65, 129, ...
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d never selected across 1000 first-attempt ids: %v", s, counts)
		}
		if n > 1000/shards*3 {
			t.Errorf("shard %d grossly overloaded (%d of 1000): %v", s, n, counts)
		}
	}
}
