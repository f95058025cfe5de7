package server

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"polytm/internal/session"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// TestWritePathEquivalence runs ONE script of mutations through every
// route a mutation can take into a shard and holds the routes to the
// same outcome. The write path is one runner, one key-op, one recorder
// and one replayer; what tells the routes apart are options at the call
// sites, and this is the test that would notice a route growing its own
// copy of the mechanics again.
//
// Routes, all on 4 durable shards:
//
//	single   every step its own request
//	txn      each run of SET/CAS/DEL steps batched per owning shard: one
//	         single-shard TXN per shard per run
//	xtxn     each run batched whole: one cross-shard TXN (2PC) per run
//
// INCR, SETEX and FLUSH are not TXN sub-operations and go as single
// requests on every route (FLUSH is a cross-shard commit on its own).
// For each route: the store's contents, every shard's logged operation
// sequence and what a watcher saw must equal route "single"'s. Then, per
// route, two more ways in:
//
//	reopen   CloseDurability + EnableDurability on the directory — same
//	         contents, and recovery is quiet (a watcher sees nothing)
//	follow   the logged records shipped through ApplyShardOps into a
//	         durable follower — same contents, same events, and the
//	         follower's own reopen recovers them (it re-logs what it
//	         applies)
func TestWritePathEquivalence(t *testing.T) {
	const shards = 4
	k := func(name string) []byte { return []byte("eq-" + name) }
	set := func(key, val string) wire.Request {
		return wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: k(key), Val: []byte(val)}
	}
	cas := func(key, old, val string) wire.Request {
		return wire.Request{Op: wire.OpCAS, Sem: wire.SemDefault, Key: k(key), Old: []byte(old), Val: []byte(val)}
	}
	del := func(key string) wire.Request {
		return wire.Request{Op: wire.OpDel, Sem: wire.SemDefault, Key: k(key)}
	}
	incr := func(op wire.Op, key string, d uint64) wire.Request {
		return wire.Request{Op: op, Sem: wire.SemDefault, Key: k(key), Delta: d}
	}
	script := []wire.Request{
		set("a", "1"), set("b", "2"), set("c", "3"), set("d", "4"), set("e", "5"), set("f", "6"),
		cas("a", "1", "10"), cas("b", "nope", "x"), del("c"), del("missing"), set("g", "7"), cas("missing", "", "x"),
		incr(wire.OpIncr, "n", 5), incr(wire.OpIncr, "n", 2), incr(wire.OpDecr, "n", 1),
		{Op: wire.OpSetEx, Sem: wire.SemDefault, Key: k("t"), Val: []byte("ttl"), TTLMillis: 3600_000},
		set("t2", "x"), del("t2"), set("t2", "y"),
		{Op: wire.OpFlush, Sem: wire.SemDefault},
		set("a", "7"), set("h", "8"), del("h"), cas("a", "7", "9"), set("b", "20"), set("c", "30"), set("d", "40"),
		incr(wire.OpIncr, "n", 1),
	}
	want := map[string]string{"eq-a": "9", "eq-b": "20", "eq-c": "30", "eq-d": "40", "eq-n": "1"}

	txnable := func(op wire.Op) bool { return op == wire.OpSet || op == wire.OpCAS || op == wire.OpDel }
	// issue plays the script on st. batch decides how a run of TXN-able
	// steps goes out: nil = one request per step.
	issue := func(t *testing.T, st *Store, batch func(run []wire.Request) [][]wire.Request) {
		t.Helper()
		for i := 0; i < len(script); {
			if batch == nil || !txnable(script[i].Op) {
				execOK(t, st, &script[i])
				i++
				continue
			}
			j := i
			for j < len(script) && txnable(script[j].Op) {
				j++
			}
			for _, b := range batch(script[i:j]) {
				execOK(t, st, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: b})
			}
			i = j
		}
	}
	perShard := func(st *Store) func(run []wire.Request) [][]wire.Request {
		return func(run []wire.Request) [][]wire.Request {
			groups := make([][]wire.Request, shards)
			for _, r := range run {
				groups[st.shardIdx(r.Key)] = append(groups[st.shardIdx(r.Key)], r)
			}
			var out [][]wire.Request
			for _, g := range groups {
				if len(g) > 0 {
					out = append(out, g)
				}
			}
			return out
		}
	}
	whole := func(run []wire.Request) [][]wire.Request { return [][]wire.Request{run} }

	// watch registers a catch-everything watcher on st.
	watch := func(st *Store) *session.Session {
		sess := st.Sessions().NewSession(4096)
		sess.Watch("", true)
		return sess
	}
	// seen drains sess into per-key event kinds plus the FLUSH count.
	// Per key, not globally: a cross-shard TXN's shares commit shard by
	// shard in no fixed order, so only each key's own history (one
	// shard's commit order) is comparable across routes. Seqs must
	// increase whatever the route.
	type events struct {
		perKey  map[string][]wire.EventOp
		flushes int
	}
	seen := func(t *testing.T, sess *session.Session) events {
		t.Helper()
		evs, _, dropped, cut := sess.Take(nil, nil)
		if dropped != 0 || cut {
			t.Fatalf("watcher overflowed (dropped %d)", dropped)
		}
		out := events{perKey: map[string][]wire.EventOp{}}
		var last uint64
		for i, ev := range evs {
			if i > 0 && ev.Seq <= last {
				t.Fatalf("event %d: seq %d not increasing past %d", i, ev.Seq, last)
			}
			last = ev.Seq
			if ev.Op == wire.EventFlush {
				out.flushes++
			} else {
				out.perKey[ev.Key] = append(out.perKey[ev.Key], ev.Op)
			}
		}
		return out
	}
	open := func(t *testing.T, dir string) (*Store, *session.Session) {
		t.Helper()
		st := newSharded(shards)
		sess := watch(st) // before recovery: replay must not reach it
		if _, err := st.EnableDurability(Durability{Dir: dir, Fsync: wal.ModeOff, CheckpointEvery: -1}); err != nil {
			t.Fatalf("EnableDurability: %v", err)
		}
		return st, sess
	}
	// logged reads back one shard directory's records, as recovery sees
	// them: one []wal.Op per committed record, 2PC prepares resolved.
	logged := func(t *testing.T, dir string, i int) [][]wal.Op {
		t.Helper()
		var recs [][]wal.Op
		l, _, err := wal.Open(filepath.Join(dir, fmt.Sprintf("shard-%04d", i)), wal.Options{Mode: wal.ModeOff}, func(ops []wal.Op) error {
			recs = append(recs, append([]wal.Op(nil), ops...))
			return nil
		})
		if err != nil {
			t.Fatalf("reading shard %d's log: %v", i, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	flat := func(recs [][]wal.Op) []wal.Op {
		var ops []wal.Op
		for _, r := range recs {
			ops = append(ops, r...)
		}
		return ops
	}

	// play runs the script down one route on a fresh store and returns
	// what it left behind: the directory, every shard's records, the
	// watcher's view.
	type outcome struct {
		dir    string
		recs   [shards][][]wal.Op
		evs    events
		xshard uint64 // cross-shard commits the route took
	}
	play := func(t *testing.T, batch func(st *Store) func(run []wire.Request) [][]wire.Request) outcome {
		t.Helper()
		out := outcome{dir: t.TempDir()}
		st, sess := open(t, out.dir)
		issue(t, st, batch(st))
		if got := scanAll(t, st); !reflect.DeepEqual(got, want) {
			t.Fatalf("contents = %v, want %v", got, want)
		}
		out.evs = seen(t, sess)
		out.xshard = st.xshardTxns.Load()
		if err := st.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		for i := range out.recs {
			out.recs[i] = logged(t, out.dir, i)
		}
		return out
	}

	ref := play(t, func(*Store) func([]wire.Request) [][]wire.Request { return nil })
	if len(ref.evs.perKey) == 0 || ref.evs.flushes != 1 {
		t.Fatalf("reference route saw %d keys' events and %d flushes", len(ref.evs.perKey), ref.evs.flushes)
	}
	for _, route := range []struct {
		name  string
		batch func(st *Store) func(run []wire.Request) [][]wire.Request
		cross bool // the route's TXNs span shards
	}{
		{"single", nil, false},
		{"txn", perShard, false},
		{"xtxn", func(*Store) func([]wire.Request) [][]wire.Request { return whole }, true},
	} {
		t.Run(route.name, func(t *testing.T) {
			got := ref
			if route.batch != nil {
				got = play(t, route.batch)
			}
			if (got.xshard > ref.xshard) != route.cross {
				t.Fatalf("route took %d cross-shard commits, route single %d (its FLUSH)", got.xshard, ref.xshard)
			}
			for i := range got.recs {
				if ops, refOps := flat(got.recs[i]), flat(ref.recs[i]); !reflect.DeepEqual(ops, refOps) {
					t.Errorf("shard %d logged\n  %v\nroute single logged\n  %v", i, ops, refOps)
				}
			}
			if !reflect.DeepEqual(got.evs, ref.evs) {
				t.Errorf("watcher saw\n  %+v\nroute single's saw\n  %+v", got.evs, ref.evs)
			}

			t.Run("reopen", func(t *testing.T) {
				st, sess := open(t, got.dir)
				defer st.CloseDurability()
				if c := scanAll(t, st); !reflect.DeepEqual(c, want) {
					t.Fatalf("recovered contents = %v, want %v", c, want)
				}
				if evs := seen(t, sess); len(evs.perKey) != 0 || evs.flushes != 0 {
					t.Fatalf("recovery published events: %+v", evs)
				}
			})

			t.Run("follow", func(t *testing.T) {
				fdir := t.TempDir()
				fl, sess := open(t, fdir)
				fl.BecomeFollower("primary:0")
				for i := range got.recs {
					for _, ops := range got.recs[i] {
						if err := fl.ApplyShardOps(i, ops); err != nil {
							t.Fatalf("ApplyShardOps(%d, %v): %v", i, ops, err)
						}
					}
				}
				if c := scanAll(t, fl); !reflect.DeepEqual(c, want) {
					t.Fatalf("follower contents = %v, want %v", c, want)
				}
				if evs := seen(t, sess); !reflect.DeepEqual(evs, ref.evs) {
					t.Errorf("follower's watcher saw\n  %+v\nthe primary's saw\n  %+v", evs, ref.evs)
				}
				if err := fl.CloseDurability(); err != nil {
					t.Fatal(err)
				}
				for i := range got.recs {
					if ops, refOps := flat(logged(t, fdir, i)), flat(ref.recs[i]); !reflect.DeepEqual(ops, refOps) {
						t.Errorf("follower shard %d re-logged\n  %v\nthe primary logged\n  %v", i, ops, refOps)
					}
				}
				fl2, _ := open(t, fdir)
				defer fl2.CloseDurability()
				if c := scanAll(t, fl2); !reflect.DeepEqual(c, want) {
					t.Fatalf("reopened follower contents = %v, want %v", c, want)
				}
			})
		})
	}

	// The same script leaves the same contents on a volatile single
	// shard, where nothing is captured at all.
	t.Run("volatile", func(t *testing.T) {
		st := newSharded(1)
		issue(t, st, nil)
		if got := scanAll(t, st); !reflect.DeepEqual(got, want) {
			t.Fatalf("contents = %v, want %v", got, want)
		}
	})
}
