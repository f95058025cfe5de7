package server_test

import (
	"fmt"
	"testing"
	"time"

	"polytm/internal/server"
	"polytm/internal/server/client"
	"polytm/internal/wire"
)

// TestBorrowedKeysSurviveBufferReuse: the store hands the skip map a
// zero-copy view of each request's key, and the connection's payload
// buffer those bytes live in is overwritten by the very next frame. So
// every path that can insert — SET, SETEX, INCR on a missing counter, a
// TXN's SETs — goes through ONE connection here, each key inserted,
// overwritten, and its client-side slice scribbled over after the
// reply; key lengths vary so successive frames land on each other's
// key bytes. Afterwards every key must read back intact and the store
// must hold exactly the keys written — a map that kept a borrowed key
// would now hold frames' worth of garbage instead. CI's race leg runs
// this with the handler and the client on separate goroutines.
func TestBorrowedKeysSurviveBufferReuse(t *testing.T) {
	const n = 400
	_, addr := startServer(t, server.Config{StoreShards: 1, TTLReapEvery: -1})
	cl := dialTest(t, addr, client.WithPoolSize(1))

	name := func(i int) string { return fmt.Sprintf("bk-%04d-%.*s", i, i%13, "abcdefghijklm") }
	want := make(map[string]string, n)
	kb := make([]byte, 0, 64) // the one client-side key buffer
	for i := 0; i < n; i++ {
		kb = append(kb[:0], name(i)...)
		final := fmt.Sprintf("v%d", i)
		var err error
		switch i % 4 {
		case 0:
			err = cl.Set(kb, []byte("first"))
		case 1:
			err = cl.SetEx(kb, []byte("first"), time.Hour)
		case 2:
			_, err = cl.Incr(kb, 5)
			final = "6"
		case 3:
			_, err = cl.Txn(wire.Request{Op: wire.OpSet, Key: kb, Val: []byte("first")})
		}
		if err != nil {
			t.Fatalf("insert %q: %v", name(i), err)
		}
		if i%4 == 2 {
			_, err = cl.Incr(kb, 1)
		} else {
			err = cl.Set(kb, []byte(final))
		}
		if err != nil {
			t.Fatalf("overwrite %q: %v", name(i), err)
		}
		want[name(i)] = final
		for j := range kb {
			kb[j] = '#'
		}
	}

	pairs, err := cl.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != n {
		t.Errorf("store holds %d keys, want exactly %d", len(pairs), n)
	}
	for _, kv := range pairs {
		if v, ok := want[string(kv.Key)]; !ok || v != string(kv.Val) {
			t.Errorf("store holds %q = %q, want %q (known key: %v)", kv.Key, kv.Val, v, ok)
		}
	}
	for k, v := range want {
		got, ok, err := cl.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Errorf("Get(%q) = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
}
