package server

import (
	"bytes"
	"testing"

	"polytm/internal/core"
	"polytm/internal/wire"
)

// roundTrip encodes resp as op's wire answer and decodes it back —
// exactly what a client would see — so any stale state a reused
// Response leaks through the encoder becomes visible.
func roundTrip(t *testing.T, op wire.Op, resp *wire.Response, subOps []wire.Op) *wire.Response {
	t.Helper()
	frame, err := wire.AppendResponseFrame(nil, op, resp)
	if err != nil {
		t.Fatalf("encode %v: %v", op, err)
	}
	dec := new(wire.Response)
	if err := wire.DecodeResponseInto(dec, frame[4:], op, subOps); err != nil {
		t.Fatalf("decode %v: %v", op, err)
	}
	return dec
}

// TestExecuteIntoReuse drives one reused Request/Response pair through
// a sequence chosen so every later answer would betray leakage from an
// earlier one: a GET hit before a GET miss, a populated SCAN before an
// empty one, a long MGET before a short one, a CAS mismatch carrying a
// value before a clean CAS.
func TestExecuteIntoReuse(t *testing.T) {
	st := NewStore(core.NewDefault())
	var req wire.Request
	var resp wire.Response

	exec := func(r *wire.Request) {
		t.Helper()
		st.ExecuteInto(r, &resp)
	}

	exec(&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("a"), Val: []byte("va")})
	if resp.Status != wire.StatusOK {
		t.Fatalf("set: %v", resp.Status)
	}
	exec(&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("b"), Val: []byte("vb")})

	// GET hit, then GET miss: the miss must not carry the hit's value.
	exec(&wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: []byte("a")})
	if got := roundTrip(t, wire.OpGet, &resp, nil); got.Status != wire.StatusOK || !bytes.Equal(got.Val, []byte("va")) {
		t.Fatalf("get hit: %+v", got)
	}
	exec(&wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: []byte("nope")})
	if got := roundTrip(t, wire.OpGet, &resp, nil); got.Status != wire.StatusNotFound || len(got.Val) != 0 {
		t.Fatalf("get miss leaked: %+v", got)
	}

	// Populated SCAN, then empty SCAN.
	exec(&wire.Request{Op: wire.OpScan, Sem: wire.SemDefault, From: []byte("a"), To: []byte("z")})
	if got := roundTrip(t, wire.OpScan, &resp, nil); len(got.Pairs) != 2 ||
		string(got.Pairs[0].Key) != "a" || string(got.Pairs[1].Val) != "vb" {
		t.Fatalf("scan: %+v", got)
	}
	exec(&wire.Request{Op: wire.OpScan, Sem: wire.SemDefault, From: []byte("x"), To: []byte("z")})
	if got := roundTrip(t, wire.OpScan, &resp, nil); len(got.Pairs) != 0 {
		t.Fatalf("empty scan leaked %d pairs", len(got.Pairs))
	}

	// Long MGET, then short MGET: sub-count and per-sub values reset.
	exec(&wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault,
		Keys: [][]byte{[]byte("a"), []byte("nope"), []byte("b")}})
	if got := roundTrip(t, wire.OpMGet, &resp, nil); len(got.Batch) != 3 ||
		got.Batch[0].Status != wire.StatusOK || got.Batch[1].Status != wire.StatusNotFound ||
		!bytes.Equal(got.Batch[2].Val, []byte("vb")) {
		t.Fatalf("mget: %+v", got)
	}
	exec(&wire.Request{Op: wire.OpMGet, Sem: wire.SemDefault, Keys: [][]byte{[]byte("nope")}})
	if got := roundTrip(t, wire.OpMGet, &resp, nil); len(got.Batch) != 1 ||
		got.Batch[0].Status != wire.StatusNotFound || len(got.Batch[0].Val) != 0 {
		t.Fatalf("short mget leaked: %+v", got)
	}

	// CAS mismatch (carries current value), then successful CAS (must
	// not carry it anymore).
	exec(&wire.Request{Op: wire.OpCAS, Sem: wire.SemDefault, Key: []byte("a"), Old: []byte("wrong"), Val: []byte("x")})
	if got := roundTrip(t, wire.OpCAS, &resp, nil); got.Status != wire.StatusCASMismatch || !bytes.Equal(got.Val, []byte("va")) {
		t.Fatalf("cas mismatch: %+v", got)
	}
	exec(&wire.Request{Op: wire.OpCAS, Sem: wire.SemDefault, Key: []byte("a"), Old: []byte("va"), Val: []byte("va2")})
	if got := roundTrip(t, wire.OpCAS, &resp, nil); got.Status != wire.StatusOK || len(got.Val) != 0 {
		t.Fatalf("cas ok leaked: %+v", got)
	}

	// TXN batch through the reused pair, decoded with its sub-ops.
	txnFrame, err := wire.AppendRequestFrame(nil, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: []wire.Request{
		{Op: wire.OpGet, Key: []byte("a")},
		{Op: wire.OpDel, Key: []byte("b")},
		{Op: wire.OpGet, Key: []byte("b")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.DecodeRequestInto(&req, txnFrame[4:]); err != nil {
		t.Fatal(err)
	}
	st.ExecuteInto(&req, &resp)
	got := roundTrip(t, wire.OpTxn, &resp, []wire.Op{wire.OpGet, wire.OpDel, wire.OpGet})
	if len(got.Batch) != 3 || !bytes.Equal(got.Batch[0].Val, []byte("va2")) ||
		got.Batch[1].Status != wire.StatusOK || got.Batch[2].Status != wire.StatusNotFound {
		t.Fatalf("txn: %+v", got)
	}

	// FLUSH resets N-bearing responses; a following STATS must not be
	// polluted by it and vice versa.
	exec(&wire.Request{Op: wire.OpFlush, Sem: wire.SemDefault})
	if got := roundTrip(t, wire.OpFlush, &resp, nil); got.Status != wire.StatusOK || got.N != 1 {
		t.Fatalf("flush: %+v", got)
	}
	exec(&wire.Request{Op: wire.OpStats, Sem: wire.SemDefault})
	if got := roundTrip(t, wire.OpStats, &resp, nil); len(got.Counters) == 0 {
		t.Fatalf("stats empty")
	}
	exec(&wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: []byte("a")})
	if got := roundTrip(t, wire.OpGet, &resp, nil); got.Status != wire.StatusNotFound || len(got.Val) != 0 {
		t.Fatalf("get after flush leaked: %+v", got)
	}
}
