package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"unsafe"
)

// Snapshot files — full checkpoints and delta checkpoints — share one
// grammar:
//
//	magic(8) | [header] | { 0x01 key val | 0x02 key }* | 0x00 | crc32c(4, BE)
//
// key/val are uvarint-length-prefixed and the trailing checksum covers
// every preceding byte, magic and header included. Entries stream — no
// upfront count — so neither the writer nor the reader ever holds more
// than one entry in memory. The magic picks the variant:
//
//   - PLYCKPT1, a full checkpoint: no header, and only 0x01 entries (the
//     whole keyspace has no tombstones).
//   - PLYDLTA1, a delta: a chain header follows the magic, and 0x02 key
//     is a tombstone (the key was deleted since the parent was cut).
//
// The chain header is
//
//	uvarint self | uvarint base | uvarint parent | uvarint cover | crc32c(4, BE)
//
// self is the delta's own segment number (it must match the file name —
// a renamed or cross-bred file is rejected), base is the segment of the
// full checkpoint the chain hangs off, parent is the chain predecessor
// (the base for the first delta, the previous delta otherwise), and
// cover is the WAL seq sealed by the rotation that cut this delta
// (diagnostic across restarts: seqs are per-process, so a recovered
// delta's cover reads as 0 in the live chain). The header checksum
// covers magic through cover, so chain assembly can read and trust
// headers without streaming whole files.
//
// A file is installed by InstallFile (tmp + fsync + rename), so a crash
// never leaves a torn one; a corrupted disk can, which is why the reader
// validates grammar and checksum over the whole file before it emits
// anything: a snapshot file either applies whole or not at all.

var (
	ckptMagic  = [8]byte{'P', 'L', 'Y', 'C', 'K', 'P', 'T', '1'}
	deltaMagic = [8]byte{'P', 'L', 'Y', 'D', 'L', 'T', 'A', '1'}
)

const (
	snapEnd = 0x00
	snapSet = 0x01
	snapDel = 0x02
)

// snapHeader is a delta file's parsed chain header.
type snapHeader struct {
	Self   uint64
	Base   uint64
	Parent uint64
	Cover  uint64
}

// InstallFile atomically replaces path with what write produces: the
// bytes go to path.tmp, are fsynced, and only then renamed over path
// (and the directory entry fsynced), so a crash at any point leaves
// either the old file or the complete new one — never a torn or empty
// one. On failure the tmp file is removed and path is untouched. It
// returns the installed file's size.
func InstallFile(path string, write func(w io.Writer) error) (size int64, err error) {
	tmp := path + ".tmp"
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if err = os.Rename(tmp, path); err != nil {
		return 0, err
	}
	// Best-effort: some filesystems reject directory fsync.
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		d.Sync()
		d.Close()
	}
	return size, nil
}

// snapWriter streams a snapshot file through a buffered writer, keeping
// a running CRC-32C over everything written. bufio write errors are
// sticky — once one write fails every later one, and Flush, returns the
// same error — so only the last write of a sequence needs checking.
type snapWriter struct {
	w       *bufio.Writer
	crc     uint32
	delta   bool // tombstones allowed
	scratch [binary.MaxVarintLen64]byte
}

func (s *snapWriter) Write(p []byte) (int, error) {
	s.crc = crc32.Update(s.crc, crcTable, p)
	return s.w.Write(p)
}

// sum writes the running checksum, big-endian, and folds it in.
func (s *snapWriter) sum() error {
	binary.BigEndian.PutUint32(s.scratch[:4], s.crc)
	_, err := s.Write(s.scratch[:4])
	return err
}

// field writes one uvarint-length-prefixed string. The string is never
// copied: a []byte(f) conversion escapes through the checksum and the
// writer, and a full checkpoint writes two strings per key. crc32 only
// reads the view of f's bytes it is handed.
func (s *snapWriter) field(f string) error {
	n := binary.PutUvarint(s.scratch[:], uint64(len(f)))
	s.Write(s.scratch[:n])
	s.crc = crc32.Update(s.crc, crcTable, unsafe.Slice(unsafe.StringData(f), len(f)))
	_, err := s.w.WriteString(f)
	return err
}

// marker writes one entry-section marker byte.
func (s *snapWriter) marker(m byte) {
	s.scratch[0] = m
	s.Write(s.scratch[:1])
}

// entry writes one live key, or in a delta one DEL as a tombstone; any
// other op fails the file.
func (s *snapWriter) entry(op Op) error {
	switch {
	case op.Kind == OpSet:
		s.marker(snapSet)
		s.field(op.Key)
		return s.field(op.Val)
	case op.Kind == OpDel && s.delta:
		s.marker(snapDel)
		return s.field(op.Key)
	}
	return fmt.Errorf("wal: a %v has no entry in a snapshot file (delta %v)", op.Kind, s.delta)
}

// writeSnapshot installs one snapshot file at path: a full checkpoint
// when hdr is nil, a delta carrying hdr otherwise. walk is called once
// and streams the file's entries through emit.
func writeSnapshot(path string, hdr *snapHeader, walk func(emit func(Op) error) error) (int64, error) {
	return InstallFile(path, func(f io.Writer) error { return encodeSnapshot(f, hdr, walk) })
}

// encodeSnapshot streams one snapshot file's bytes to f.
func encodeSnapshot(f io.Writer, hdr *snapHeader, walk func(emit func(Op) error) error) error {
	s := &snapWriter{w: bufio.NewWriterSize(f, 1<<16), delta: hdr != nil}
	if hdr == nil {
		s.Write(ckptMagic[:])
	} else {
		s.Write(deltaMagic[:])
		for _, v := range []uint64{hdr.Self, hdr.Base, hdr.Parent, hdr.Cover} {
			s.Write(s.scratch[:binary.PutUvarint(s.scratch[:], v)])
		}
		s.sum() // the header checksum: magic through cover
	}
	if err := walk(s.entry); err != nil {
		return err
	}
	s.marker(snapEnd)
	if err := s.sum(); err != nil {
		return err
	}
	return s.w.Flush()
}

// readPreamble consumes the magic and, behind the delta magic, the
// chain header (validating its checksum). It returns which variant the
// file is, the header, and the bytes consumed.
func readPreamble(br *bufio.Reader) (delta bool, hdr snapHeader, n int64, err error) {
	var magic [8]byte
	if _, err = io.ReadFull(br, magic[:]); err != nil {
		return false, hdr, 0, err
	}
	if magic == ckptMagic {
		return false, hdr, 8, nil
	}
	if magic != deltaMagic {
		return false, hdr, 0, &errCorrupt{"snapshot: bad magic or size"}
	}
	// The header is at most four 10-byte uvarints and a checksum: parse
	// it in place, so the checksum covers exactly the bytes on disk.
	raw, _ := br.Peek(4*binary.MaxVarintLen64 + 4)
	w := 0
	for _, dst := range []*uint64{&hdr.Self, &hdr.Base, &hdr.Parent, &hdr.Cover} {
		v, vn := binary.Uvarint(raw[w:])
		if vn <= 0 {
			return true, hdr, 0, &errCorrupt{"snapshot: truncated header"}
		}
		*dst, w = v, w+vn
	}
	if len(raw) < w+4 {
		return true, hdr, 0, &errCorrupt{"snapshot: truncated header"}
	}
	want := crc32.Update(crc32.Checksum(magic[:], crcTable), crcTable, raw[:w])
	if want != binary.BigEndian.Uint32(raw[w:]) {
		return true, hdr, 0, &errCorrupt{"snapshot: header checksum mismatch"}
	}
	br.Discard(w + 4)
	return true, hdr, int64(8 + w + 4), nil
}

// readSnapHeader opens a delta file just far enough to parse and
// validate its chain header — chain assembly trusts headers without
// paying a full file scan per candidate.
func readSnapHeader(path string) (snapHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return snapHeader{}, err
	}
	defer f.Close()
	delta, hdr, _, err := readPreamble(bufio.NewReaderSize(f, 512))
	if err == nil && !delta {
		err = &errCorrupt{"snapshot: bad magic or size"}
	}
	return hdr, err
}

// snapReader streams a snapshot file's entry section through a bounded
// buffer, so reading never holds more than one entry in memory no
// matter how large the file is.
type snapReader struct {
	br   *bufio.Reader
	body int64  // entry-section bytes left to consume
	kbuf []byte // reusable key storage
	vbuf []byte // reusable value storage
}

// readByte consumes one entry-section byte.
func (r *snapReader) readByte() (byte, error) {
	if r.body < 1 {
		return 0, &errCorrupt{"snapshot: truncated entry section"}
	}
	b, err := r.br.ReadByte()
	if err != nil {
		return 0, err
	}
	r.body--
	return b, nil
}

// readField consumes one uvarint-length-prefixed field into buf. The
// length is checked against what is left of the file before anything is
// allocated, so a hostile length cannot allocate past the file's size.
func (r *snapReader) readField(buf []byte) ([]byte, error) {
	var n uint64
	for shift := uint(0); ; shift += 7 {
		if shift >= 64 {
			return nil, &errCorrupt{"snapshot: bad field length"}
		}
		b, err := r.readByte()
		if err != nil {
			return nil, err
		}
		n |= uint64(b&0x7F) << shift
		if b < 0x80 {
			break
		}
	}
	if n > uint64(r.body) {
		return nil, &errCorrupt{"snapshot: field overruns entry section"}
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return nil, err
	}
	r.body -= int64(n)
	return buf, nil
}

// walk streams the entry section, calling emit (when non-nil) per
// entry — a SET, or a DEL for a tombstone — and checks the grammar:
// live entries, tombstones where the variant allows them, a
// terminator, nothing after.
func (r *snapReader) walk(tombstones bool, emit func(Op) error) error {
	for {
		marker, err := r.readByte()
		if err != nil {
			return err
		}
		switch {
		case marker == snapEnd:
			if r.body != 0 {
				return &errCorrupt{"snapshot: trailing bytes"}
			}
			return nil
		case marker == snapSet, marker == snapDel && tombstones:
			if r.kbuf, err = r.readField(r.kbuf[:0]); err != nil {
				return err
			}
			kind, val := OpDel, []byte(nil)
			if marker == snapSet {
				if r.vbuf, err = r.readField(r.vbuf[:0]); err != nil {
					return err
				}
				kind, val = OpSet, r.vbuf
			}
			if emit != nil {
				if err := emit(Op{Kind: kind, Key: string(r.kbuf), Val: string(val)}); err != nil {
					return err
				}
			}
		default:
			return &errCorrupt{"snapshot: bad entry marker"}
		}
	}
}

// crcReader tees a running CRC-32C over everything read through it.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crcTable, p[:n])
	return n, err
}

// readSnapshot opens the snapshot file at path and streams it through
// decodeSnapshot, returning the chain header (zero for a full
// checkpoint) and the file's size.
func readSnapshot(path string, delta bool, emit func(Op) error) (hdr snapHeader, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return hdr, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return hdr, 0, err
	}
	hdr, err = decodeSnapshot(f, fi.Size(), delta, emit)
	return hdr, fi.Size(), err
}

// decodeSnapshot reads one size-byte snapshot file of the wanted
// variant and fully validates it — magic, chain header, entry grammar
// AND the whole-file checksum — then seeks back and streams its entries
// to emit in file order. Nothing is emitted from a file that does not
// validate end to end, so a corrupt file never half-applies. Both
// passes stream through one bufio.Reader: memory is O(largest entry),
// not O(file).
func decodeSnapshot(f io.ReadSeeker, size int64, delta bool, emit func(Op) error) (hdr snapHeader, err error) {
	if size < int64(len(ckptMagic))+1+4 {
		return hdr, &errCorrupt{"snapshot: bad magic or size"}
	}
	// Pass 0 reads everything before the trailer through a CRC tee and
	// emits nothing; once the checksum has held, pass 1 seeks back and
	// rereads the file without the rework, emitting as it goes.
	sum := &crcReader{r: io.LimitReader(f, size-4)}
	r := &snapReader{br: bufio.NewReaderSize(sum, 1<<16)}
	for pass := 0; pass < 2; pass++ {
		visit := emit
		if pass == 0 {
			visit = nil
		} else {
			if _, err = f.Seek(0, io.SeekStart); err != nil {
				return hdr, err
			}
			r.br.Reset(f)
		}
		var isDelta bool
		var n int64
		if isDelta, hdr, n, err = readPreamble(r.br); err != nil {
			return hdr, err
		}
		if r.body = size - 4 - n; isDelta != delta || r.body < 1 {
			return hdr, &errCorrupt{"snapshot: bad magic or size"}
		}
		if err = r.walk(delta, visit); err != nil || pass == 1 {
			return hdr, err
		}
		// The walk consumed exactly the limited section, so f now sits
		// on the trailer.
		var tail [4]byte
		if _, err = io.ReadFull(f, tail[:]); err != nil {
			return hdr, err
		}
		if sum.crc != binary.BigEndian.Uint32(tail[:]) {
			return hdr, &errCorrupt{"snapshot: checksum mismatch"}
		}
	}
	return hdr, nil
}

// loadSnapshot applies one fully validated snapshot file as operation
// groups — live entries as OpSet, tombstones as OpDel, in file order.
// Each apply call is one atomic group on the store side (one
// transaction), and per-key transactions would make restarting a large
// keyspace pay a full begin/commit cycle per entry. The batch size is a
// throughput knob only: the file validated whole before the first
// apply, so atomicity granularity is free to choose here.
func loadSnapshot(path string, delta bool, apply func(ops []Op) error) (keys int, size int64, err error) {
	const applyBatch = 256
	ops := make([]Op, 0, applyBatch)
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		if err := apply(ops); err != nil {
			return err
		}
		keys += len(ops)
		ops = ops[:0]
		return nil
	}
	_, size, err = readSnapshot(path, delta, func(op Op) error {
		if ops = append(ops, op); len(ops) == applyBatch {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	return keys, size, err
}
