package codec

import (
	"encoding/binary"
	"errors"
	"testing"
)

var errShort = errors.New("short")

func TestCursor(t *testing.T) {
	for _, c := range []struct {
		name    string
		payload []byte
		read    func(c *Cursor) any // the layout: reads fields, returns what it got
		want    any
		err     string // End's error text; "" = none
	}{
		{
			name:    "fields in order",
			payload: AppendBytes(binary.AppendVarint(binary.AppendUvarint([]byte{7}, 300), -2), []byte("ab")),
			read: func(c *Cursor) any {
				u8 := c.U8()
				u := c.Uvarint()
				v := c.Varint()
				return [4]any{u8, u, v, string(c.Bytes())}
			},
			want: [4]any{byte(7), uint64(300), int64(-2), "ab"},
		},
		{
			name:    "zero values after the first error",
			payload: []byte{1},
			read: func(c *Cursor) any {
				u8 := c.U8()
				u := c.Uvarint() // fails: nothing left
				v := c.Varint()
				return [4]any{u8, u, v, c.Bytes() == nil}
			},
			want: [4]any{byte(1), uint64(0), int64(0), true},
			err:  "short",
		},
		{
			name:    "a failure drops what was left",
			payload: []byte{0x80, 5, 6},
			read: func(c *Cursor) any {
				c.Fail(errors.New("bad kind"))
				return [2]any{c.U8(), c.Left()}
			},
			want: [2]any{byte(0), 0},
			err:  "bad kind",
		},
		{
			name:    "the first failure stands",
			payload: nil,
			read: func(c *Cursor) any {
				c.U8()
				c.Fail(errors.New("later"))
				return nil
			},
			err: "short",
		},
		{
			name:    "count over the bytes left",
			payload: []byte{3, 1, 2},
			read:    func(c *Cursor) any { return c.Count() },
			want:    0,
			err:     "short",
		},
		{
			name:    "count within the bytes left",
			payload: []byte{2, 1, 2},
			read: func(c *Cursor) any {
				n := c.Count()
				var got []byte
				for ; n > 0 && c.Err() == nil; n-- {
					got = append(got, c.U8())
				}
				return string(got)
			},
			want: "\x01\x02",
		},
		{
			name:    "bytes overrun",
			payload: []byte{5, 'a', 'b'},
			read:    func(c *Cursor) any { return c.Bytes() == nil },
			want:    true,
			err:     "short",
		},
		{
			name:    "empty bytes",
			payload: []byte{0},
			read:    func(c *Cursor) any { b := c.Bytes(); return b != nil && len(b) == 0 },
			want:    true,
		},
		{
			name:    "bad uvarint",
			payload: []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
			read:    func(c *Cursor) any { return c.Uvarint() },
			want:    uint64(0),
			err:     "short",
		},
		{
			name:    "trailing bytes",
			payload: []byte{1, 2, 3, 4, 5, 6},
			read:    func(c *Cursor) any { return c.U8() },
			want:    byte(1),
			err:     "5 trailing bytes in payload",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			cur := New(c.payload, errShort)
			if got := c.read(cur); got != c.want {
				t.Errorf("read %v, want %v", got, c.want)
			}
			err := cur.End()
			switch {
			case c.err == "" && err != nil:
				t.Errorf("End() = %v, want nil", err)
			case c.err != "" && (err == nil || err.Error() != c.err):
				t.Errorf("End() = %v, want %q", err, c.err)
			}
			if c.err == "short" && !errors.Is(err, errShort) {
				t.Errorf("End() = %v, does not match the owner's truncation error", err)
			}
		})
	}
}
