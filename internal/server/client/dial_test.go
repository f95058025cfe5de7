//go:build linux

package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
)

// fullListener returns the address of a listening socket whose accept
// queue is full: its backlog is 1, nothing ever accepts, and two
// connections already wait in the queue. Linux drops a further SYN
// instead of answering it, so a third connect hangs until its caller
// gives up. net.Listen cannot build it: it always asks for the system's
// largest backlog.
func fullListener(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 1); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	for i := 0; i < 2; i++ {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatalf("filling the accept queue: %v", err)
		}
		t.Cleanup(func() { c.Close() })
	}
	return addr
}

// TestDialHonoursContext: a pool's fresh dial gives up when its caller's
// context does, not when the 5 s connect budget runs out.
func TestDialHonoursContext(t *testing.T) {
	cl := &Client{addr: fullListener(t)}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	cn, err := cl.dial(ctx)
	if err == nil {
		cn.c.Close()
		t.Fatal("a dial into a full accept queue connected")
	}
	if el := time.Since(start); el > time.Second || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dial returned %v after %v; want context.DeadlineExceeded within 1s", err, el)
	}
}
