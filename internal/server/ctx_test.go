package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"polytm/internal/core"
	"polytm/internal/stm"
	"polytm/internal/wire"
)

// TestExecuteCtxCancelled: a dead request context turns into a
// StatusErr response carrying the cancellation, and the store is
// untouched.
func TestExecuteCtxCancelled(t *testing.T) {
	st := NewStore(core.NewDefault())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var resp wire.Response
	st.ExecuteCtx(ctx, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("k"), Val: []byte("v")}, &resp)
	if resp.Status != wire.StatusErr {
		t.Fatalf("status = %v, want StatusErr", resp.Status)
	}
	if !strings.Contains(resp.Msg, "cancelled") {
		t.Fatalf("msg = %q, want cancellation rendered", resp.Msg)
	}
	if v := st.Execute(&wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: []byte("k")}); v.Status != wire.StatusNotFound {
		t.Fatalf("cancelled SET landed: GET status %v", v.Status)
	}
}

// TestExecuteRejectsBadSemanticsByte: the semantics byte range is
// validated centrally (wire.Semantics), so a request that bypasses the
// wire decoder — hand-built, in-process — is rejected with the typed
// protocol error, for every opcode.
func TestExecuteRejectsBadSemanticsByte(t *testing.T) {
	st := NewStore(core.NewDefault())
	for _, op := range []wire.Op{wire.OpGet, wire.OpSet, wire.OpScan, wire.OpMGet, wire.OpTxn, wire.OpFlush} {
		resp := st.Execute(&wire.Request{Op: op, Sem: 0x7C, Key: []byte("k")})
		if resp.Status != wire.StatusErr {
			t.Fatalf("%v with bad sem byte: status %v, want StatusErr", op, resp.Status)
		}
		if !strings.Contains(resp.Msg, "0x7C") {
			t.Fatalf("%v: msg %q does not name the offending byte", op, resp.Msg)
		}
	}
	// The typed error itself.
	if _, err := wire.Semantics(0x7C, 0); !errors.Is(err, wire.ErrBadSemantics) {
		t.Fatalf("wire.Semantics(0x7C) = %v, want ErrBadSemantics match", err)
	}
	var se *wire.SemanticsError
	if _, err := wire.Semantics(0x7C, 0); !errors.As(err, &se) || se.Byte != 0x7C {
		t.Fatal("wire.Semantics must return a *SemanticsError carrying the byte")
	}
	// Valid bytes resolve; SemDefault takes the supplied default.
	if s, err := wire.Semantics(wire.SemDefault, core.Weak); err != nil || s != core.Weak {
		t.Fatalf("SemDefault resolution: %v %v", s, err)
	}
	if s, err := wire.Semantics(byte(stm.SemanticsSnapshot), core.Def); err != nil || s != core.Snapshot {
		t.Fatalf("explicit byte resolution: %v %v", s, err)
	}
}

// TestForcedShutdownCancelsInflight parks a wire request's transaction
// at the commit gate of an irrevocable transaction held open, then
// asserts a forced Shutdown cancels the in-flight transaction (through
// the per-connection context) instead of hanging on the drain.
func TestForcedShutdownCancelsInflight(t *testing.T) {
	srv := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// Seed the key, then open an irrevocable transaction that reads it:
	// the handler's def SET will wait at the commit gate — the exact
	// in-flight state a forced drain must be able to abandon.
	if err := srv.TM().Atomic(func(tx *core.Tx) error {
		_, err := srv.Store().tab().shards[0].m.PutTx(tx, "k", "seed")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	held, release, hostage := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	releaseHostage := sync.OnceFunc(func() { close(release) })
	defer releaseHostage()
	go func() {
		hostage <- srv.TM().AtomicAs(core.Irrevocable, func(tx *core.Tx) error {
			if _, ok, err := srv.Store().tab().shards[0].m.GetTx(tx, "k"); err != nil || !ok {
				return fmt.Errorf("hostage read: ok=%v err=%v", ok, err)
			}
			close(held)
			<-release
			return nil
		})
	}()
	select {
	case <-held:
	case err := <-hostage:
		t.Fatal(err)
	}

	// Fire a SET at the key over a real connection; it parks.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := wire.AppendRequestFrame(nil, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte("k"), Val: []byte("v2")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the handler park at the gate

	// Forced shutdown with a 10ms budget: the graceful phase cannot
	// finish (the handler is parked), so Shutdown cancels the serving
	// context; the parked transaction aborts and the handler exits.
	sdCtx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	sdDone := make(chan error, 1)
	go func() { sdDone <- srv.Shutdown(sdCtx) }()
	select {
	case err := <-sdDone:
		if err == nil {
			t.Fatal("forced shutdown should report the forced drain")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forced shutdown hung on an in-flight transaction parked at the gate")
	}
	// The key keeps its seeded value: the cancelled SET never landed.
	releaseHostage()
	if err := <-hostage; err != nil {
		t.Fatalf("hostage: %v", err)
	}
	if v, ok := srv.Store().tab().shards[0].m.Get("k", core.Snapshot); !ok || v != "seed" {
		t.Fatalf("store after forced drain: %q/%v, want seed", v, ok)
	}
	<-serveDone
}
