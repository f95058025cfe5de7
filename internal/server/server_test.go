package server_test

import (
	"context"
	"fmt"
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"polytm/internal/core"
	"polytm/internal/server"
	"polytm/internal/server/client"
	"polytm/internal/wire"
)

// startServer brings up a loopback polyserve and tears it down with the
// test, returning the server and its dial address. POLYSERVE_STORE_SHARDS
// overrides the keyspace shard count when the test doesn't pin one — the
// CI matrix leg sets it to run the whole suite against a sharded store.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.StoreShards == 0 {
		if v := os.Getenv("POLYSERVE_STORE_SHARDS"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("POLYSERVE_STORE_SHARDS=%q: %v", v, err)
			}
			cfg.StoreShards = n
		}
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != server.ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, ln.Addr().String()
}

func dialTest(t *testing.T, addr string, opts ...client.Option) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, opts...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestLoopbackRoundTrip exercises every opcode over a real loopback
// connection: the wire-format round trip against a live store.
func TestLoopbackRoundTrip(t *testing.T) {
	_, addr := startServer(t, server.Config{Shards: 2})
	cl := dialTest(t, addr)

	// GET on an empty store.
	if _, ok, err := cl.Get([]byte("nope")); err != nil || ok {
		t.Fatalf("Get(empty) = ok=%v err=%v, want miss", ok, err)
	}
	// SET then GET.
	if err := cl.Set([]byte("k1"), []byte("v1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if v, ok, err := cl.Get([]byte("k1")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get(k1) = %q,%v,%v; want v1", v, ok, err)
	}
	// CAS success, mismatch, and miss.
	if swapped, found, _, err := cl.CAS([]byte("k1"), []byte("v1"), []byte("v2")); err != nil || !swapped || !found {
		t.Fatalf("CAS ok-path = %v,%v,%v", swapped, found, err)
	}
	if swapped, found, cur, err := cl.CAS([]byte("k1"), []byte("v1"), []byte("v3")); err != nil || swapped || !found || string(cur) != "v2" {
		t.Fatalf("CAS mismatch-path = %v,%v,%q,%v", swapped, found, cur, err)
	}
	if swapped, found, _, err := cl.CAS([]byte("ghost"), []byte("a"), []byte("b")); err != nil || swapped || found {
		t.Fatalf("CAS miss-path = %v,%v,%v", swapped, found, err)
	}
	// MGET.
	cl.Set([]byte("k2"), []byte("v2b"))
	vals, found, err := cl.MGet([]byte("k1"), []byte("ghost"), []byte("k2"))
	if err != nil || !found[0] || found[1] || !found[2] || string(vals[0]) != "v2" || string(vals[2]) != "v2b" {
		t.Fatalf("MGet = %q %v %v", vals, found, err)
	}
	// SCAN is ordered and windowed.
	cl.Set([]byte("a"), []byte("1"))
	pairs, err := cl.Scan([]byte("a"), []byte("k2"), 0)
	if err != nil || len(pairs) != 2 || string(pairs[0].Key) != "a" || string(pairs[1].Key) != "k1" {
		t.Fatalf("Scan = %v, %v", pairs, err)
	}
	// TXN batch: atomic multi-op.
	rs, err := cl.Txn(
		wire.Request{Op: wire.OpGet, Key: []byte("k1")},
		wire.Request{Op: wire.OpSet, Key: []byte("k3"), Val: []byte("v3")},
		wire.Request{Op: wire.OpCAS, Key: []byte("k2"), Old: []byte("v2b"), Val: []byte("v2c")},
		wire.Request{Op: wire.OpDel, Key: []byte("a")},
	)
	if err != nil {
		t.Fatalf("Txn: %v", err)
	}
	if rs[0].Status != wire.StatusOK || string(rs[0].Val) != "v2" ||
		rs[1].Status != wire.StatusOK || rs[2].Status != wire.StatusOK || rs[3].Status != wire.StatusOK {
		t.Fatalf("Txn responses = %+v", rs)
	}
	// DEL reports presence.
	if removed, err := cl.Del([]byte("ghost")); err != nil || removed {
		t.Fatalf("Del(ghost) = %v,%v", removed, err)
	}
	// FLUSH empties the store (k1, k2, k3) ...
	if n, err := cl.Flush(); err != nil || n != 3 {
		t.Fatalf("Flush = %d,%v; want 3", n, err)
	}
	if pairs, err := cl.Scan(nil, nil, 0); err != nil || len(pairs) != 0 {
		t.Fatalf("Scan after flush = %v,%v; want empty", pairs, err)
	}
	// ... and STATS sees its irrevocable commit.
	stats, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats["commits.irrevocable"] == 0 {
		t.Fatalf("stats missing irrevocable commit: %v", stats)
	}
	if stats["commits.snapshot"] == 0 || stats["aborts.snapshot"] != 0 {
		t.Fatalf("snapshot class off: commits=%d aborts=%d", stats["commits.snapshot"], stats["aborts.snapshot"])
	}
}

// TestSemanticsOverrideByte pins the per-request start(p) byte: a write
// forced under snapshot semantics must fail (snapshot is read-only), and
// a read forced under def must succeed.
func TestSemanticsOverrideByte(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	cl := dialTest(t, addr)

	if err := cl.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	rs, err := cl.Do(&wire.Request{Op: wire.OpSet, Sem: byte(core.Snapshot), Key: []byte("k"), Val: []byte("w")})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if rs[0].Status != wire.StatusErr {
		t.Fatalf("snapshot-override SET status = %v, want ERR", rs[0].Status)
	}
	rs, err = cl.Do(&wire.Request{Op: wire.OpGet, Sem: byte(core.Def), Key: []byte("k")})
	if err != nil || rs[0].Status != wire.StatusOK || string(rs[0].Val) != "v" {
		t.Fatalf("def-override GET = %+v, %v", rs[0], err)
	}
	// The value was not clobbered by the failed snapshot write.
	if v, ok, err := cl.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after failed write = %q,%v,%v", v, ok, err)
	}
}

// TestPipelinedRequests sends a burst of frames before reading any
// response and checks the strict 1:1 in-order reply stream.
func TestPipelinedRequests(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	cl := dialTest(t, addr)

	p := cl.Pipeline()
	const n = 64
	for i := 0; i < n; i++ {
		p.Set([]byte(fmt.Sprintf("p%03d", i)), []byte(fmt.Sprint(i)))
	}
	for i := 0; i < n; i++ {
		p.Get([]byte(fmt.Sprintf("p%03d", i)))
	}
	p.Scan([]byte("p"), []byte("q"), 0)
	rs, err := p.Exec()
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if len(rs) != 2*n+1 {
		t.Fatalf("got %d responses, want %d", len(rs), 2*n+1)
	}
	for i := 0; i < n; i++ {
		if rs[i].Status != wire.StatusOK {
			t.Fatalf("SET %d status %v", i, rs[i].Status)
		}
		if got := rs[n+i]; got.Status != wire.StatusOK || string(got.Val) != fmt.Sprint(i) {
			t.Fatalf("GET %d = %+v", i, got)
		}
	}
	if got := rs[2*n]; len(got.Pairs) != n {
		t.Fatalf("final SCAN saw %d keys, want %d", len(got.Pairs), n)
	}
}

// TestGracefulShutdownDrains verifies Shutdown lets an in-flight
// request finish and then unblocks idle connections.
func TestGracefulShutdownDrains(t *testing.T) {
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	cl, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set([]byte("x"), []byte("1")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != server.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	// The store survived the shutdown path (no torn state).
	if v := srv.Store().TM(); v == nil {
		t.Fatal("TM lost")
	}
}
