package wire

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"testing"
	"unsafe"

	"polytm/internal/stm"
)

// The fuzz targets below are seeded from the hostile-input tests
// (TestDecodeRejectsGarbage, TestReadFrameBufLimits) plus valid frames of
// every opcode, and pin the decoder properties the server depends on:
//
//   - no input makes a decoder panic;
//   - no declared length or count makes a decoder allocate beyond the
//     input's own size class (`count` bounds elements by remaining
//     bytes, `prealloc` caps speculative element storage, the frame
//     readers validate the frame length before any buffer is grown);
//   - anything a decoder accepts, the encoder round-trips.
//
// A persisted corpus lives in testdata/fuzz/<Target>/; CI runs each
// target for a short -fuzztime as a smoke test.

// FuzzReadFrame feeds arbitrary streams to both frame readers: the
// server's ReadFrameBuf, through one reused buffer, and the client's
// ReadFrameBump, whose every payload must be the stream's own bytes for
// that frame, capped at its length.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                             // short header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})              // absurd length
	f.Add([]byte{0, 0, 0, 5, 'a'})                     // truncated body
	f.Add([]byte{0, 0, 0, 2, byte(OpGet), SemDefault}) // one clean frame
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c', 0, 0, 0, 4, 'd', 'e', 'f', 'g'})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFrame = 1 << 16
		wantClass := func(err error) {
			if err != io.EOF && err != io.ErrUnexpectedEOF && err != ErrFrameTooLarge {
				t.Fatalf("unexpected error class: %v", err)
			}
		}
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for i := 0; i < 4; i++ { // a few frames per stream exercises reuse
			payload, err := ReadFrameBuf(br, buf, maxFrame)
			if err != nil {
				wantClass(err)
				break
			}
			if len(payload) > maxFrame {
				t.Fatalf("frame of %d bytes exceeds the %d cap", len(payload), maxFrame)
			}
			buf = payload
		}

		br.Reset(bytes.NewReader(data))
		var free []byte
		at := 0
		for i := 0; i < 4; i++ {
			payload, err := ReadFrameBump(br, &free, 4-i, 4<<10)
			if err != nil {
				wantClass(err)
				return
			}
			if cap(payload) != len(payload) {
				t.Fatalf("frame %d: %d-byte payload has cap %d", i, len(payload), cap(payload))
			}
			if !bytes.Equal(payload, data[at+4:at+4+len(payload)]) {
				t.Fatalf("frame %d: payload %x is not the stream's bytes", i, payload)
			}
			at += 4 + len(payload)
		}
	})
}

// FuzzDecodeRequest throws arbitrary payloads at the request decoder
// twice — into a fresh Request, and into one that earlier requests
// filled, as Server.handle decodes every request on a connection into
// the one it keeps — and demands the same verdict from both and, when
// they accept, the same re-encoding, which must in turn decode and
// re-encode to itself.
func FuzzDecodeRequest(f *testing.F) {
	// The hostile-input seeds.
	f.Add([]byte{})
	f.Add([]byte{byte(OpGet)})
	f.Add([]byte{99, SemDefault})
	f.Add([]byte{10, SemDefault}) // the retired REBUILD opcode
	f.Add([]byte{byte(OpGet), 7})
	f.Add([]byte{byte(OpGet), SemDefault, 5, 'a'})
	f.Add([]byte{byte(OpTxn), SemDefault, 1, byte(OpFlush)})
	f.Add([]byte{byte(OpSet), byte(stm.SemanticsSnapshot), 1, 'k', 1, 'v'})
	f.Add(append([]byte{byte(OpMGet), SemDefault}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01))
	f.Add([]byte{byte(OpWatch), SemDefault, 9, 1, 'k'})         // bad mode byte
	f.Add([]byte{byte(OpSetEx), SemDefault, 1, 'k', 1, 'v', 0}) // zero TTL
	f.Add([]byte{byte(OpIncr), SemDefault, 1, 'k'})             // missing delta
	// One valid payload per opcode.
	for _, r := range []*Request{
		{Op: OpGet, Sem: SemDefault, Key: []byte("k")},
		{Op: OpSet, Sem: SemDefault, Key: []byte("k"), Val: []byte("v")},
		{Op: OpCAS, Sem: byte(stm.SemanticsIrrevocable), Key: []byte("k"), Old: []byte("o"), Val: []byte("n")},
		{Op: OpDel, Sem: SemDefault, Key: []byte("k")},
		{Op: OpScan, Sem: byte(stm.SemanticsWeak), From: []byte("a"), To: []byte("z"), Limit: 9},
		{Op: OpMGet, Sem: byte(stm.SemanticsSnapshot), Keys: [][]byte{[]byte("a"), []byte("b")}},
		{Op: OpTxn, Sem: SemDefault, Batch: []Request{
			{Op: OpSet, Sem: SemDefault, Key: []byte("k"), Val: []byte("v")},
			{Op: OpDel, Sem: SemDefault, Key: []byte("k")},
		}},
		{Op: OpStats, Sem: SemDefault},
		{Op: OpFlush, Sem: SemDefault},
		{Op: OpWatch, Sem: SemDefault, Key: []byte("k")},
		{Op: OpWatch, Sem: SemDefault, Key: []byte("user:"), Prefix: true},
		{Op: OpIncr, Sem: SemDefault, Key: []byte("ctr"), Delta: 3},
		{Op: OpDecr, Sem: SemDefault, Key: []byte("ctr"), Delta: 1},
		{Op: OpSetEx, Sem: SemDefault, Key: []byte("k"), Val: []byte("v"), TTLMillis: 1500},
	} {
		frame, err := AppendRequestFrame(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:]) // payload only: op | sem | body
	}
	// What a connection's Request holds when the fuzzed payload arrives:
	// an MGET's key list, then a TXN's four sub-requests with their keys,
	// values and expected values set.
	var earlier [][]byte
	for _, r := range []*Request{
		{Op: OpMGet, Sem: SemDefault, Keys: [][]byte{[]byte("m1"), []byte("m2"), []byte("m3")}},
		{Op: OpTxn, Sem: byte(stm.SemanticsIrrevocable), Batch: []Request{
			{Op: OpGet, Key: []byte("g")},
			{Op: OpSet, Key: []byte("s"), Val: []byte("sv")},
			{Op: OpCAS, Key: []byte("c"), Old: []byte("co"), Val: []byte("cn")},
			{Op: OpDel, Key: []byte("d")},
		}},
	} {
		frame, err := AppendRequestFrame(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		earlier = append(earlier, frame[4:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh, reused Request
		for _, p := range earlier {
			if err := DecodeRequestInto(&reused, p); err != nil {
				t.Fatal(err)
			}
		}
		freshErr := DecodeRequestInto(&fresh, data)
		reusedErr := DecodeRequestInto(&reused, data)
		if (freshErr == nil) != (reusedErr == nil) {
			t.Fatalf("into a fresh Request err=%v, into a reused one err=%v", freshErr, reusedErr)
		}
		if freshErr != nil {
			return
		}
		// Accepted input must re-encode, the same from either decode...
		enc, err := AppendRequestFrame(nil, &fresh)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v (%+v)", err, fresh)
		}
		if encReused, err := AppendRequestFrame(nil, &reused); err != nil || !bytes.Equal(enc, encReused) {
			t.Fatalf("reused decode re-encodes differently (err %v):\n fresh  %x\n reused %x", err, enc, encReused)
		}
		// ...and the re-encoding must decode to the same thing (the
		// encoder is canonical, so encode∘decode is a fixpoint there).
		var again Request
		if err := DecodeRequestInto(&again, enc[4:]); err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		enc2, err := AppendRequestFrame(nil, &again)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode is not a fixpoint:\n first %x\nsecond %x", enc, enc2)
		}
	})
}

// txnSubs is the sub-opcode list the response fuzz targets decode TXN
// replies against.
var txnSubs = []Op{OpGet, OpSet, OpCAS, OpDel}

// addResponseSeeds seeds a response fuzz target with one valid payload
// per response shape plus the hostile counts.
func addResponseSeeds(f *testing.F) {
	for _, c := range []struct {
		op   Op
		resp *Response
	}{
		{OpGet, &Response{Status: StatusOK, Val: []byte("v")}},
		{OpCAS, &Response{Status: StatusCASMismatch, Val: []byte("cur")}},
		{OpScan, &Response{Status: StatusOK, Pairs: []KV{{Key: []byte("a"), Val: []byte("1")}}}},
		{OpMGet, &Response{Status: StatusOK, Batch: []Response{{Status: StatusNotFound}}}},
		{OpTxn, &Response{Status: StatusOK, Batch: []Response{
			{Status: StatusOK, Val: []byte("g"), SubOp: OpGet},
			{Status: StatusOK, SubOp: OpSet},
			{Status: StatusCASMismatch, Val: []byte("c"), SubOp: OpCAS},
			{Status: StatusNotFound, SubOp: OpDel},
		}}},
		{OpStats, &Response{Status: StatusOK, Counters: []Counter{{Name: "commits", Value: 3}}}},
		{OpFlush, &Response{Status: StatusOK, N: 12}},
		{OpWatch, &Response{Status: StatusOK, N: 7}},
		{OpIncr, &Response{Status: StatusOK, Int: 42}},
		{OpDecr, &Response{Status: StatusOK, Int: -5}},
		{OpSetEx, &Response{Status: StatusOK}},
		{OpGet, &Response{Status: StatusErr, Msg: "boom"}},
		{OpIncr, &Response{Status: StatusErr, Msg: (&ProtocolError{Code: ProtoUnknownOp}).Error()}},
	} {
		frame, err := AppendResponseFrame(nil, c.op, c.resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(c.op), frame[4:])
	}
	f.Add(byte(OpScan), append([]byte{byte(StatusOK)}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01))
	f.Add(byte(OpTxn), []byte{byte(StatusOK), 4})
}

// fuzzedOp maps a fuzzed byte to a decodable opcode and the sub-opcode
// list its reply is decoded against.
func fuzzedOp(opByte byte) (Op, []Op) {
	op := Op(opByte)
	if !op.Valid() {
		op = OpGet
	}
	if op == OpTxn {
		return op, txnSubs
	}
	return op, nil
}

// FuzzDecodeResponse throws arbitrary payloads at the response decoder
// under every opcode it could answer.
func FuzzDecodeResponse(f *testing.F) {
	addResponseSeeds(f)
	f.Fuzz(func(t *testing.T, opByte byte, data []byte) {
		op, subOps := fuzzedOp(opByte)
		var resp Response
		if err := DecodeResponseInto(&resp, data, op, subOps); err != nil {
			return
		}
		// Accepted input must re-encode. TXN sub-responses carry their
		// opcode on the encode side only; restore it from subOps the
		// way a client stores them next to the pending request.
		if op == OpTxn {
			for i := range resp.Batch {
				resp.Batch[i].SubOp = subOps[i]
			}
		}
		if _, err := AppendResponseFrame(nil, op, &resp); err != nil {
			t.Fatalf("decoded %v response does not re-encode: %v (%+v)", op, err, resp)
		}
	})
}

// FuzzDecodeResponseInto decodes every payload into a fresh Response and
// into dirty ones whose every field a previous reply filled — the Batch
// populated to a capacity of 0, 2, 4 and 8, so the decoder is lent too
// little, exactly enough and too much — and demands the same verdict and,
// when accepted, the same value: nothing of the earlier Msg, N, Int, Val,
// Pairs, Batch or Counters may survive into a reply that does not set it,
// a reply that carries no batch decodes to Batch == nil whatever it was
// lent, and a sub-response's Val aliases the new payload, never the stale
// slot it was decoded over.
func FuzzDecodeResponseInto(f *testing.F) {
	addResponseSeeds(f)
	f.Fuzz(func(t *testing.T, opByte byte, data []byte) {
		op, subOps := fuzzedOp(opByte)
		var fresh Response
		freshErr := DecodeResponseInto(&fresh, data, op, subOps)
		for _, lend := range []int{0, 2, 4, 8} {
			lent := make([]Response, lend)
			for i := range lent {
				lent[i] = Response{Status: StatusErr, Msg: "stale", Val: []byte("stale"), N: 7, Batch: []Response{{N: 7}}}
			}
			dirty := Response{
				Status: StatusErr, Val: []byte("stale"), N: 99, Int: -99, Msg: "stale", SubOp: OpCAS,
				Pairs:    []KV{{Key: []byte("stale"), Val: []byte("stale")}},
				Batch:    lent,
				Counters: []Counter{{Name: "stale", Value: 1}},
			}
			err := DecodeResponseInto(&dirty, data, op, subOps)
			if (err == nil) != (freshErr == nil) {
				t.Fatalf("%v, lent %d: into a dirty Response err=%v, into a fresh one err=%v", op, lend, err, freshErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(dirty, fresh) {
				t.Fatalf("%v, lent %d: dirty decode differs from fresh:\n dirty %+v\n fresh %+v", op, lend, dirty, fresh)
			}
			for i := range dirty.Batch {
				if v := dirty.Batch[i].Val; len(v) > 0 && !aliases(v, data) {
					t.Fatalf("%v, lent %d: sub-response %d's Val %q is not part of the payload", op, lend, i, v)
				}
			}
			if n := len(dirty.Batch); dirty.Batch != nil && lend > 0 && n <= lend {
				if &dirty.Batch[:1][0] != &lent[0] {
					t.Fatalf("%v: %d sub-responses fit the %d lent but were decoded elsewhere", op, n, lend)
				}
				for i := n; i < lend; i++ {
					if !reflect.DeepEqual(lent[i], Response{}) {
						t.Fatalf("%v: lent slot %d past the %d decoded was not cleared: %+v", op, i, n, lent[i])
					}
				}
			}
		}
	})
}

// aliases reports whether b's bytes lie inside buf's.
func aliases(b, buf []byte) bool {
	if len(buf) == 0 {
		return false
	}
	lo, at := uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&b[0]))
	return at >= lo && at+uintptr(len(b)) <= lo+uintptr(len(buf))
}

// FuzzDecodeSessFrame throws arbitrary payloads at the session-frame
// decoder and re-encodes whatever it accepts.
func FuzzDecodeSessFrame(f *testing.F) {
	for _, sf := range []*SessFrame{
		{Kind: SessEvent, WatchID: 1, Seq: 42, Op: EventSet, Key: []byte("k")},
		{Kind: SessEvent, WatchID: 2, Seq: 43, Op: EventExpire, Key: []byte("ttl:k")},
		{Kind: SessEvent, WatchID: 2, Seq: 44, Op: EventFlush},
		{Kind: SessEventLost, Dropped: 9},
		{Kind: SessPing},
		{Kind: SessPong},
		{Kind: SessWatch, Key: []byte("user:"), Prefix: true},
		{Kind: SessWatchOK, WatchID: 3},
		{Kind: SessUnwatch, WatchID: 3},
		{Kind: SessErr, Code: ProtoBadSession, Detail: []byte("request opcode on session")},
	} {
		frame, err := AppendSessFrame(nil, sf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:]) // payload only: kind | body
	}
	// Hostile seeds.
	f.Add([]byte{})
	f.Add([]byte{byte(SessEvent)})                   // truncated
	f.Add([]byte{byte(SessEvent), 1, 1, 99, 1, 'k'}) // bad event op
	f.Add([]byte{byte(SessWatch), 7, 1, 'k'})        // bad mode byte
	f.Add([]byte{byte(SessPong), 0})                 // trailing byte
	f.Add([]byte{0xEE})                              // unknown kind
	f.Fuzz(func(t *testing.T, data []byte) {
		var sf SessFrame
		if err := DecodeSessFrame(&sf, data); err != nil {
			return
		}
		// Accepted input must re-encode, and the re-encoded frame's
		// payload must decode back to an identical re-encoding (the
		// encoder is canonical).
		enc, err := AppendSessFrame(nil, &sf)
		if err != nil {
			t.Fatalf("decoded session frame does not re-encode: %v (%+v)", err, sf)
		}
		var sf2 SessFrame
		if err := DecodeSessFrame(&sf2, enc[4:]); err != nil {
			t.Fatalf("re-encoded session frame does not decode: %v", err)
		}
		enc2, err := AppendSessFrame(nil, &sf2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode is not a fixpoint:\n first %x\nsecond %x", enc, enc2)
		}
	})
}

// replSeedFrames is one valid frame per replication kind, plus a
// catch-up WAL-BATCH (the frames of TestReplFrameRoundTrip, plus
// TOPOLOGY). testdata/fuzz/FuzzDecodeReplFrame holds one file per live
// kind, and repl_snap_batch and repl_delta_batch: frames of the retired
// kinds 3 and 7, kept as seeds the decoder must now reject.
var replSeedFrames = []*ReplFrame{
	{Kind: ReplWALBatch, Shard: 3, Recs: []ReplRec{
		{Seq: 1, Payload: []byte("rec-one")},
		{Seq: 2, Payload: []byte("")},
		{Seq: 9000, Payload: []byte("rec-three")},
	}},
	{Kind: ReplWALBatch, Shard: 1, Recs: []ReplRec{{Seq: 0, Payload: []byte("catch-up")}}},
	{Kind: ReplAck, Acks: []ReplAckEntry{{Shard: 0, Seq: 17, Bytes: 4096}, {Shard: 1}}},
	{Kind: ReplSnapDone, Shard: 1, CoverSeq: 77, Mode: ReplCatchupDelta, Incarnation: 1723400000000000000},
	{Kind: ReplPing},
	{Kind: ReplHello, Incarnation: 42, Epoch: 3, Acks: []ReplAckEntry{{Shard: 0, Seq: 9}, {Shard: 3}}},
	{Kind: ReplTopology, Epoch: 4, Topo: []ReplShardSlice{{ID: 0, Mod: 2, Res: 0}, {ID: 2, Mod: 2, Res: 1}}},
}

// normReplFrame maps empty slices to nil, the one difference a reused
// decode target may show.
func normReplFrame(f ReplFrame) ReplFrame {
	if len(f.Recs) == 0 {
		f.Recs = nil
	}
	if len(f.Acks) == 0 {
		f.Acks = nil
	}
	if len(f.Topo) == 0 {
		f.Topo = nil
	}
	return f
}

// FuzzDecodeReplFrame throws arbitrary payloads at the replication-frame
// decoder: it must not panic, must not decode more elements than the
// payload has bytes, must accept only what the encoder reproduces
// (decode → AppendReplFrame → decode is a fixed point), and must decode
// into a ReplFrame a previous frame dirtied exactly as into a fresh one
// (the feed loops keep one per connection).
func FuzzDecodeReplFrame(f *testing.F) {
	for _, rf := range replSeedFrames {
		frame, err := AppendReplFrame(nil, rf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:]) // payload only: kind | body
	}
	// Hostile seeds (TestReplFrameHostileInput has the full table).
	f.Add([]byte{})
	f.Add([]byte{99})                             // unknown kind
	f.Add([]byte{byte(ReplWALBatch), 0, 2})       // count > remaining bytes
	f.Add([]byte{byte(ReplSnapDone), 1, 7, 9})    // unknown catch-up mode
	f.Add([]byte{byte(ReplPing), 0})              // trailing byte
	f.Add([]byte{byte(ReplAck), 0xFF, 0xFF})      // unterminated uvarint count
	f.Add([]byte{3, 0, 1, 1, 'a', 1, '1'})        // retired SNAP-BATCH
	f.Add([]byte{7, 2, 1, 0, 2, 'k', '1', 0})     // retired DELTA-BATCH
	f.Add([]byte{byte(ReplTopology), 1, 1, 0, 0}) // slice with modulus 0
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh ReplFrame
		freshErr := DecodeReplFrame(&fresh, data)
		if n := len(fresh.Recs) + len(fresh.Acks) + len(fresh.Topo); n > len(data) {
			t.Fatalf("%d elements decoded from %d bytes", n, len(data))
		}

		dirty := ReplFrame{
			Kind: ReplSnapDone, Shard: 9, CoverSeq: 9, Mode: ReplCatchupDelta, Incarnation: 9, Epoch: 9,
			Recs: []ReplRec{{Seq: 9, Payload: []byte("stale")}},
			Acks: []ReplAckEntry{{Shard: 9, Seq: 9, Bytes: 9}},
			Topo: []ReplShardSlice{{ID: 9, Mod: 9, Res: 8}},
		}
		err := DecodeReplFrame(&dirty, data)
		if (err == nil) != (freshErr == nil) {
			t.Fatalf("into a dirty ReplFrame err=%v, into a fresh one err=%v", err, freshErr)
		}
		if err != nil {
			return
		}
		if got, want := normReplFrame(dirty), normReplFrame(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("dirty decode differs from fresh:\n dirty %+v\n fresh %+v", got, want)
		}

		enc, err := AppendReplFrame(nil, &fresh)
		if err != nil {
			t.Fatalf("decoded replication frame does not re-encode: %v (%+v)", err, fresh)
		}
		var again ReplFrame
		if err := DecodeReplFrame(&again, enc[4:]); err != nil {
			t.Fatalf("re-encoded replication frame does not decode: %v", err)
		}
		if got, want := normReplFrame(again), normReplFrame(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("decode → encode → decode moved:\n first  %+v\n second %+v", want, got)
		}
	})
}
