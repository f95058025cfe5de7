package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// TestReadFrameLimits pins the frame reader's rejection behaviour on
// hostile input when it allocates the payload itself (no reuse buffer):
// an oversize announced length is refused, a truncated body or header
// surfaces ErrUnexpectedEOF, and a clean EOF stays io.EOF.
func TestReadFrameLimits(t *testing.T) {
	checkFrameLimits(t, nil)
}

// TestReadFrameBufLimits runs the same hostile inputs through a
// pre-sized reuse buffer, and checks that an oversize announced length
// is refused before any buffer is grown.
func TestReadFrameBufLimits(t *testing.T) {
	checkFrameLimits(t, make([]byte, 0, 256))

	// A hostile announced length larger than maxFrame must not grow the
	// reuse buffer: the length check runs before any allocation.
	small := make([]byte, 0, 8)
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrameBuf(bufio.NewReader(bytes.NewReader(hostile)), small, 1<<20); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("hostile length error = %v, want ErrFrameTooLarge", err)
	}
}

func checkFrameLimits(t *testing.T, reuse []byte) {
	t.Helper()
	frame := append(binary.BigEndian.AppendUint32(nil, 100), make([]byte, 100)...)
	if _, err := ReadFrameBuf(bufio.NewReader(bytes.NewReader(frame)), reuse, 50); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize frame error = %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadFrameBuf(bufio.NewReader(bytes.NewReader(frame[:20])), reuse, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame error = %v, want ErrUnexpectedEOF", err)
	}
	if _, err := ReadFrameBuf(bufio.NewReader(bytes.NewReader(frame[:2])), reuse, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated header error = %v, want ErrUnexpectedEOF", err)
	}
	if _, err := ReadFrameBuf(bufio.NewReader(bytes.NewReader(nil)), reuse, 0); !errors.Is(err, io.EOF) {
		t.Errorf("empty stream error = %v, want EOF", err)
	}
}

// TestReadFrameBufReuse streams frames of varying sizes through one
// reuse buffer and checks contents, growth-only-when-needed, and
// aliasing (a frame that fits returns a view of the same storage).
func TestReadFrameBufReuse(t *testing.T) {
	var stream []byte
	sizes := []int{100, 10, 0, 200, 50}
	for i, n := range sizes {
		stream = append(binary.BigEndian.AppendUint32(stream, uint32(n)), bytes.Repeat([]byte{byte('a' + i)}, n)...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var frame []byte
	for i, n := range sizes {
		var err error
		prevCap := cap(frame)
		frame, err = ReadFrameBuf(br, frame, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(frame) != n {
			t.Fatalf("frame %d: len = %d, want %d", i, len(frame), n)
		}
		if !bytes.Equal(frame, bytes.Repeat([]byte{byte('a' + i)}, n)) {
			t.Fatalf("frame %d: content mismatch", i)
		}
		if n <= prevCap && cap(frame) != prevCap {
			t.Fatalf("frame %d: buffer reallocated (cap %d -> %d) though %d bytes fit", i, prevCap, cap(frame), n)
		}
	}
	if _, err := ReadFrameBuf(br, frame, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

// TestDecodeRequestIntoHostile drives the in-place decoder over the
// same hostile corpus as TestDecodeRejectsGarbage — a reused Request must reject
// exactly what a fresh one rejects.
func TestDecodeRequestIntoHostile(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		wantErr error
	}{
		{"empty", nil, ErrTruncated},
		{"op only", []byte{byte(OpGet)}, ErrTruncated},
		{"bad op", []byte{99, SemDefault}, ErrBadOp},
		{"retired op", []byte{10, SemDefault}, ErrBadOp}, // REBUILD, never reused
		{"bad sem", []byte{byte(OpGet), 7}, ErrBadSemantics},
		{"truncated key", []byte{byte(OpGet), SemDefault, 5, 'a'}, ErrTruncated},
		{"txn bad subop", []byte{byte(OpTxn), SemDefault, 1, byte(OpFlush)}, ErrBadSubOp},
		{"mget absurd count", append([]byte{byte(OpMGet), SemDefault}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), ErrTruncated},
	}
	var req Request
	// Pre-populate the reused request with a rich decode so stale state
	// is available to leak.
	seed, err := AppendRequestFrame(nil, &Request{Op: OpMGet, Sem: SemDefault,
		Keys: [][]byte{[]byte("k1"), []byte("k2"), []byte("k3")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeRequestInto(&req, seed[4:]); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if err := DecodeRequestInto(&req, c.payload); !errors.Is(err, c.wantErr) {
			t.Errorf("%s: DecodeRequestInto error = %v, want %v", c.name, err, c.wantErr)
		}
	}
	// Trailing bytes are an error too.
	frame, err := AppendRequestFrame(nil, &Request{Op: OpGet, Sem: SemDefault, Key: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeRequestInto(&req, append(frame[4:], 0)); err == nil {
		t.Error("DecodeRequestInto accepted trailing bytes")
	}
}

// TestDecodeRequestIntoNoStaleState decodes frames of shrinking shapes
// through one reused Request and checks nothing from an earlier decode
// survives into a later one.
func TestDecodeRequestIntoNoStaleState(t *testing.T) {
	var req Request

	enc := func(r *Request) []byte {
		p, err := AppendRequestFrame(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return p[4:]
	}

	// 1: a TXN batch with three sub-ops.
	p := enc(&Request{Op: OpTxn, Sem: SemDefault, Batch: []Request{
		{Op: OpSet, Key: []byte("a"), Val: []byte("1")},
		{Op: OpCAS, Key: []byte("b"), Old: []byte("x"), Val: []byte("y")},
		{Op: OpDel, Key: []byte("c")},
	}})
	if err := DecodeRequestInto(&req, p); err != nil {
		t.Fatal(err)
	}
	if len(req.Batch) != 3 || req.Batch[1].Op != OpCAS || string(req.Batch[1].Old) != "x" {
		t.Fatalf("txn decode: %+v", req)
	}

	// 2: a smaller TXN — the third stale sub-entry must be gone, and a
	// reused DEL entry must not keep the CAS entry's Old/Val.
	p = enc(&Request{Op: OpTxn, Sem: SemDefault, Batch: []Request{
		{Op: OpGet, Key: []byte("g")},
		{Op: OpDel, Key: []byte("d")},
	}})
	if err := DecodeRequestInto(&req, p); err != nil {
		t.Fatal(err)
	}
	if len(req.Batch) != 2 {
		t.Fatalf("batch len = %d, want 2", len(req.Batch))
	}
	if req.Batch[0].Val != nil || req.Batch[0].Old != nil || req.Batch[1].Val != nil || req.Batch[1].Old != nil {
		t.Fatalf("stale sub-op fields survived reuse: %+v", req.Batch)
	}

	// 3: an MGET, then a plain GET — Keys and Batch must both reset.
	p = enc(&Request{Op: OpMGet, Sem: SemDefault, Keys: [][]byte{[]byte("k1"), []byte("k2")}})
	if err := DecodeRequestInto(&req, p); err != nil {
		t.Fatal(err)
	}
	if len(req.Keys) != 2 || len(req.Batch) != 0 {
		t.Fatalf("mget decode: keys=%d batch=%d", len(req.Keys), len(req.Batch))
	}
	p = enc(&Request{Op: OpGet, Sem: SemDefault, Key: []byte("solo")})
	if err := DecodeRequestInto(&req, p); err != nil {
		t.Fatal(err)
	}
	if len(req.Keys) != 0 || len(req.Batch) != 0 || string(req.Key) != "solo" {
		t.Fatalf("get after mget: %+v", req)
	}

	// 4: a failed decode must not be executable as the previous request:
	// Op is reset before parsing, so a truncated frame leaves a request
	// that no longer claims to be the old opcode with the old fields.
	if err := DecodeRequestInto(&req, []byte{byte(OpSet), SemDefault, 3, 'a'}); err == nil {
		t.Fatal("truncated SET decoded")
	}
	if string(req.Key) == "solo" {
		t.Fatal("failed decode kept the previous request's key")
	}
}

// TestReadFrameBufHeader pins the in-place header read: the four length
// bytes are peeked out of the bufio.Reader rather than read into a
// local array, which must change nothing a caller can see. A header cut
// after 1, 2 or 3 bytes is io.ErrUnexpectedEOF, however few bytes each
// underlying Read delivers; a hostile length is refused with nothing
// allocated; and a frame read into a buffer that fits it allocates
// nothing at all — the allocation the old `var hdr [4]byte` cost every
// frame on both sides of every connection.
func TestReadFrameBufHeader(t *testing.T) {
	frame := append(binary.BigEndian.AppendUint32(nil, 7), "payload"...)
	for cut := 1; cut < 4; cut++ {
		br := bufio.NewReader(iotest.OneByteReader(bytes.NewReader(frame[:cut])))
		if _, err := ReadFrameBuf(br, nil, 0); err != io.ErrUnexpectedEOF {
			t.Errorf("header cut after %d bytes: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	br := bufio.NewReader(iotest.OneByteReader(bytes.NewReader(frame)))
	if got, err := ReadFrameBuf(br, nil, 0); err != nil || string(got) != "payload" {
		t.Errorf("frame through a one-byte reader = %q, %v", got, err)
	}

	// Allocation checks reuse one reader over one repeating stream.
	stream := bytes.Repeat(frame, 8)
	src := bytes.NewReader(stream)
	br = bufio.NewReader(src)
	buf := make([]byte, 0, 64)
	if avg := testing.AllocsPerRun(100, func() {
		src.Reset(stream)
		br.Reset(src)
		for i := 0; i < 8; i++ {
			var err error
			if buf, err = ReadFrameBuf(br, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
	}); avg != 0 {
		t.Errorf("8 frames into a reused buffer: %.2f allocs, want 0", avg)
	}
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'}
	if avg := testing.AllocsPerRun(100, func() {
		src.Reset(hostile)
		br.Reset(src)
		if _, err := ReadFrameBuf(br, nil, 1<<20); err != ErrFrameTooLarge {
			t.Fatalf("hostile length: err = %v, want ErrFrameTooLarge", err)
		}
	}); avg != 0 {
		t.Errorf("refusing a hostile length: %.2f allocs, want 0", avg)
	}
}

// TestReadFrameBump pins the keep-every-payload read path: the first
// frame lands in the storage handed in, a frame that does not fit opens
// a chunk sized for the frames still to come (64 one-byte acks are one
// 64-byte chunk, not 4 KB and not 64 payloads), a frame over a quarter
// of the cap is allocated alone without disturbing the chunk, payloads
// never overlap and are capped at their own length, and hostile input
// is refused exactly as ReadFrameBuf refuses it.
func TestReadFrameBump(t *testing.T) {
	const maxChunk = 4 << 10
	var stream []byte
	sizes := []int{3, 1, 1, 2000, 1, 700, 700, 0, 700}
	for i, n := range sizes {
		stream = append(binary.BigEndian.AppendUint32(stream, uint32(n)), bytes.Repeat([]byte{byte('a' + i)}, n)...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	inline := make([]byte, 4)
	free := inline
	var got, rest [][]byte // each payload, and what was left of *free after it
	for i := range sizes {
		p, err := ReadFrameBump(br, &free, len(sizes)-i, maxChunk)
		if err != nil {
			t.Fatal(err)
		}
		got, rest = append(got, p), append(rest, free)
	}
	if &got[0][0] != &inline[0] || &got[1][0] != &inline[3] {
		t.Error("the first frames did not land in the storage handed in")
	}
	// Frame 2 (1 byte, 7 to come) opened a 7-byte chunk; frame 3 is too
	// big to share, frame 4 follows frame 2 in the same chunk.
	if len(rest[2]) != 6 || &got[4][0] != &rest[2][0] {
		t.Error("a frame allocated on its own disturbed the open chunk")
	}
	if cap(got[3]) != 2000 {
		t.Errorf("a 2000-byte frame got %d bytes of storage, want its own 2000", cap(got[3]))
	}
	for _, p := range got {
		_ = append(p, "overrun"...)
	}
	for i, p := range got {
		if len(p) != sizes[i] || cap(p) != len(p) || !bytes.Equal(p, bytes.Repeat([]byte{byte('a' + i)}, sizes[i])) {
			t.Errorf("frame %d: %d bytes (cap %d) %q, want %d of %q", i, len(p), cap(p), p, sizes[i], 'a'+i)
		}
	}

	acks := bytes.Repeat([]byte{0, 0, 0, 1, 0x00}, 64)
	src := bytes.NewReader(acks)
	br = bufio.NewReader(src)
	if avg := testing.AllocsPerRun(100, func() {
		src.Reset(acks)
		br.Reset(src)
		var free []byte
		for i := 0; i < 64; i++ {
			if _, err := ReadFrameBump(br, &free, 64-i, maxChunk); err != nil {
				t.Fatal(err)
			}
			if i == 0 && cap(free) != 63 {
				t.Fatalf("64 one-byte acks opened a chunk with %d bytes left, want 63", cap(free))
			}
		}
	}); avg != 1 {
		t.Errorf("64 one-byte acks: %.2f allocs, want 1", avg)
	}

	free = nil
	for _, tc := range []struct {
		in   []byte
		want error
	}{
		{[]byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'}, ErrFrameTooLarge},
		{[]byte{0, 0, 0, 9, 'x'}, io.ErrUnexpectedEOF},
		{[]byte{0, 0}, io.ErrUnexpectedEOF},
		{nil, io.EOF},
	} {
		if _, err := ReadFrameBump(bufio.NewReader(bytes.NewReader(tc.in)), &free, 2, maxChunk); !errors.Is(err, tc.want) {
			t.Errorf("ReadFrameBump(%x) = %v, want %v", tc.in, err, tc.want)
		}
	}
}
