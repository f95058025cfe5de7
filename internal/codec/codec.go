// Package codec is the field reader every binary layout decodes with:
// the wire protocol's request, response, session and replication
// frames, and the WAL's record payloads.
//
// A Cursor's error is sticky ("errors are values"): after the first
// failure every read returns a zero value, so a layout reads its fields
// one after another and checks the outcome once, at its end. What a
// read past the end fails with is the owning format's own error, so a
// caller's errors.Is or errors.As against that format keeps holding.
//
// Counts from the wire are hostile until checked: Count refuses one
// larger than the bytes left (every element costs at least a byte), a
// loop over elements stops at the first error, and a decoder grows its
// slices by append, reserving room for a declared count only up to a
// small fixed cap.
package codec

import (
	"encoding/binary"
	"fmt"
)

// Cursor reads the fields of one payload in order. It advances an
// index, not the slice: a decoder holds it by pointer, and moving a
// slice through a pointer is a pointer write the collector's write
// barrier would see on every field.
type Cursor struct {
	buf   []byte
	pos   int // buf[pos:] is unread; len(buf) after a failure
	err   error
	short error // what a read past the end fails with
}

// New returns a cursor over buf whose reads past the end fail with
// short, the owning format's truncation error. The cursor is built in
// place: a decoder that keeps it local allocates nothing.
func New(buf []byte, short error) *Cursor {
	return &Cursor{buf: buf, short: short}
}

// Fail records err unless an earlier failure already stands; every
// later read returns a zero value.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err, c.pos = err, len(c.buf)
	}
}

// Err is the first failure, or nil. A loop over a layout's elements
// checks it to stop at that failure; a layout's end checks End.
func (c *Cursor) Err() error { return c.err }

// End closes a layout: the first failure, else bytes left after its
// last field.
func (c *Cursor) End() error {
	if n := c.Left(); n > 0 {
		c.Fail(fmt.Errorf("%d trailing bytes in payload", n))
	}
	return c.err
}

// Left is how many bytes are still unread (0 after a failure).
func (c *Cursor) Left() int { return len(c.buf) - c.pos }

// U8 reads one byte.
func (c *Cursor) U8() byte {
	if c.pos >= len(c.buf) {
		c.Fail(c.short)
		return 0
	}
	c.pos++
	return c.buf[c.pos-1]
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		c.Fail(c.short)
		return 0
	}
	c.pos += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (c *Cursor) Varint() int64 {
	v, n := binary.Varint(c.buf[c.pos:])
	if n <= 0 {
		c.Fail(c.short)
		return 0
	}
	c.pos += n
	return v
}

// Count reads an element or byte count, refusing one larger than the
// bytes left: a hostile count cannot promise more than the payload
// holds.
func (c *Cursor) Count() int {
	n := c.Uvarint()
	if n > uint64(c.Left()) {
		c.Fail(c.short)
		return 0
	}
	return int(n)
}

// Bytes reads a uvarint-length-prefixed byte string. The result aliases
// the payload and is capped at its own end, so an append through it
// copies rather than overwrite the field that follows.
func (c *Cursor) Bytes() []byte {
	n := c.Count()
	if c.err != nil {
		return nil
	}
	c.pos += n
	return c.buf[c.pos-n : c.pos : c.pos]
}

// AppendBytes appends b to dst as a uvarint-length-prefixed byte
// string, the form Bytes reads.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}
