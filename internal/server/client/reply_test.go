package client

import (
	"testing"
	"unsafe"
)

// TestReplyFillsItsClass pins the arithmetic next to replyInline: the
// reply, inline frame included, is exactly a 320-byte malloc class. A
// field added to wire.Response (or to reply) spills it into the next
// class — shrink replyInline by as much.
func TestReplyFillsItsClass(t *testing.T) {
	if got := unsafe.Sizeof(reply{}); got != 320 {
		t.Fatalf("reply is %d bytes, want 320: adjust replyInline", got)
	}
}
