package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"polytm/internal/stm"
)

// goldenCase is one frame of one family, pinned as bytes under
// testdata/golden/<name>.bin: the whole frame, length prefix included.
type goldenCase struct {
	name   string
	encode func() ([]byte, error)
	decode func(payload []byte) (any, error)
	want   any // what decode must return
}

func reqGolden(name string, r *Request) goldenCase {
	return goldenCase{
		name:   name,
		encode: func() ([]byte, error) { return AppendRequestFrame(nil, r) },
		decode: func(p []byte) (any, error) {
			var d Request
			err := DecodeRequestInto(&d, p)
			return d, err
		},
		want: *r,
	}
}

// respGolden pins r answering op; want is r as the decoder rebuilds it
// (a TXN sub-response's SubOp never crosses the wire).
func respGolden(name string, op Op, subOps []Op, r *Response) goldenCase {
	want := *r
	if want.Batch != nil {
		want.Batch = append([]Response(nil), r.Batch...)
		for i := range want.Batch {
			want.Batch[i].SubOp = 0
		}
	}
	return goldenCase{
		name:   name,
		encode: func() ([]byte, error) { return AppendResponseFrame(nil, op, r) },
		decode: func(p []byte) (any, error) {
			var d Response
			err := DecodeResponseInto(&d, p, op, subOps)
			return d, err
		},
		want: want,
	}
}

func sessGolden(name string, f *SessFrame) goldenCase {
	return goldenCase{
		name:   name,
		encode: func() ([]byte, error) { return AppendSessFrame(nil, f) },
		decode: func(p []byte) (any, error) {
			var d SessFrame
			err := DecodeSessFrame(&d, p)
			return d, err
		},
		want: *f,
	}
}

func replGolden(name string, f *ReplFrame) goldenCase {
	return goldenCase{
		name:   name,
		encode: func() ([]byte, error) { return AppendReplFrame(nil, f) },
		decode: func(p []byte) (any, error) {
			var d ReplFrame
			err := DecodeReplFrame(&d, p)
			return d, err
		},
		want: *f,
	}
}

func b(s string) []byte { return []byte(s) }

// goldenCases covers every opcode's request, every response arm, and
// every session and replication frame kind.
func goldenCases() []goldenCase {
	txnSubs := []Op{OpGet, OpSet, OpCAS, OpDel}
	return []goldenCase{
		reqGolden("req-get", &Request{Op: OpGet, Sem: SemDefault, Key: b("k")}),
		reqGolden("req-set", &Request{Op: OpSet, Sem: byte(stm.SemanticsDef), Key: b("key"), Val: b("value")}),
		reqGolden("req-cas", &Request{Op: OpCAS, Sem: byte(stm.SemanticsIrrevocable), Key: b("k"), Old: b("a"), Val: b("b")}),
		reqGolden("req-del", &Request{Op: OpDel, Sem: SemDefault, Key: b("gone")}),
		reqGolden("req-scan", &Request{Op: OpScan, Sem: byte(stm.SemanticsWeak), From: b("a"), To: b("z"), Limit: 300}),
		reqGolden("req-mget", &Request{Op: OpMGet, Sem: byte(stm.SemanticsSnapshot), Keys: [][]byte{b("a"), b("bb"), b("ccc")}}),
		reqGolden("req-txn", &Request{Op: OpTxn, Sem: SemDefault, Batch: []Request{
			{Op: OpGet, Sem: SemDefault, Key: b("x")},
			{Op: OpSet, Sem: SemDefault, Key: b("y"), Val: b("1")},
			{Op: OpCAS, Sem: SemDefault, Key: b("z"), Old: b("0"), Val: b("1")},
			{Op: OpDel, Sem: SemDefault, Key: b("w")},
		}}),
		reqGolden("req-stats", &Request{Op: OpStats, Sem: SemDefault}),
		reqGolden("req-flush", &Request{Op: OpFlush, Sem: byte(stm.SemanticsIrrevocable)}),
		reqGolden("req-ping", &Request{Op: OpPing, Sem: SemDefault}),
		reqGolden("req-subscribe-wal", &Request{Op: OpSubscribeWAL, Sem: SemDefault}),
		reqGolden("req-watch", &Request{Op: OpWatch, Sem: SemDefault, Key: b("user:1")}),
		reqGolden("req-watch-prefix", &Request{Op: OpWatch, Sem: SemDefault, Key: b("user:"), Prefix: true}),
		reqGolden("req-incr", &Request{Op: OpIncr, Sem: SemDefault, Key: b("n"), Delta: 129}),
		reqGolden("req-decr", &Request{Op: OpDecr, Sem: SemDefault, Key: b("n"), Delta: 7}),
		reqGolden("req-setex", &Request{Op: OpSetEx, Sem: SemDefault, Key: b("s"), Val: b("v"), TTLMillis: 60000}),
		reqGolden("req-split", &Request{Op: OpSplit, Sem: SemDefault, Epoch: 3, Shard: 1}),
		reqGolden("req-merge", &Request{Op: OpMerge, Sem: SemDefault, Epoch: 4, Shard: 0, Shard2: 2}),

		respGolden("resp-get", OpGet, nil, &Response{Status: StatusOK, Val: b("value")}),
		respGolden("resp-get-notfound", OpGet, nil, &Response{Status: StatusNotFound}),
		respGolden("resp-set", OpSet, nil, &Response{Status: StatusOK}),
		respGolden("resp-cas", OpCAS, nil, &Response{Status: StatusOK}),
		respGolden("resp-cas-mismatch", OpCAS, nil, &Response{Status: StatusCASMismatch, Val: b("current")}),
		respGolden("resp-del-notfound", OpDel, nil, &Response{Status: StatusNotFound}),
		respGolden("resp-scan", OpScan, nil, &Response{Status: StatusOK, Pairs: []KV{
			{Key: b("a"), Val: b("1")}, {Key: b("b"), Val: b("22")},
		}}),
		respGolden("resp-mget", OpMGet, nil, &Response{Status: StatusOK, Batch: []Response{
			{Status: StatusOK, Val: b("1")}, {Status: StatusNotFound},
		}}),
		respGolden("resp-txn", OpTxn, txnSubs, &Response{Status: StatusOK, Batch: []Response{
			{Status: StatusOK, Val: b("x"), SubOp: OpGet},
			{Status: StatusOK, SubOp: OpSet},
			{Status: StatusCASMismatch, Val: b("9"), SubOp: OpCAS},
			{Status: StatusNotFound, SubOp: OpDel},
		}}),
		respGolden("resp-stats", OpStats, nil, &Response{Status: StatusOK, Counters: []Counter{
			{Name: "commits", Value: 1000}, {Name: "aborts", Value: 0},
		}}),
		respGolden("resp-flush", OpFlush, nil, &Response{Status: StatusOK, N: 12}),
		respGolden("resp-subscribe-wal", OpSubscribeWAL, nil, &Response{Status: StatusOK, N: 4}),
		respGolden("resp-watch", OpWatch, nil, &Response{Status: StatusOK, N: 1}),
		respGolden("resp-split", OpSplit, nil, &Response{Status: StatusOK, N: 5}),
		respGolden("resp-merge", OpMerge, nil, &Response{Status: StatusOK, N: 6}),
		respGolden("resp-incr", OpIncr, nil, &Response{Status: StatusOK, Int: 130}),
		respGolden("resp-decr", OpDecr, nil, &Response{Status: StatusOK, Int: -3}),
		respGolden("resp-ping", OpPing, nil, &Response{Status: StatusOK}),
		respGolden("resp-setex", OpSetEx, nil, &Response{Status: StatusOK}),
		respGolden("resp-err", OpSet, nil, &Response{Status: StatusErr, Msg: "wire: not primary; primary=10.0.0.1:7000"}),

		sessGolden("sess-event", &SessFrame{Kind: SessEvent, WatchID: 2, Seq: 300, Op: EventDel, Key: b("k")}),
		sessGolden("sess-event-lost", &SessFrame{Kind: SessEventLost, Dropped: 17}),
		sessGolden("sess-ping", &SessFrame{Kind: SessPing}),
		sessGolden("sess-pong", &SessFrame{Kind: SessPong}),
		sessGolden("sess-watch", &SessFrame{Kind: SessWatch, Key: b("user:"), Prefix: true}),
		sessGolden("sess-watch-ok", &SessFrame{Kind: SessWatchOK, WatchID: 3}),
		sessGolden("sess-unwatch", &SessFrame{Kind: SessUnwatch, WatchID: 3}),
		sessGolden("sess-err", &SessFrame{Kind: SessErr, Code: ProtoMalformed, Detail: b("5 trailing bytes in payload")}),

		replGolden("repl-wal-batch", &ReplFrame{Kind: ReplWALBatch, Shard: 1, Recs: []ReplRec{
			{Seq: 0, Payload: b("catch-up")}, {Seq: 200, Payload: b("live")},
		}}),
		replGolden("repl-ack", &ReplFrame{Kind: ReplAck, Acks: []ReplAckEntry{
			{Shard: 0, Seq: 17, Bytes: 4096}, {Shard: 1, Seq: 0, Bytes: 0},
		}}),
		replGolden("repl-snap-done", &ReplFrame{Kind: ReplSnapDone, Shard: 1, CoverSeq: 77, Mode: ReplCatchupDelta, Incarnation: 1723400000000000000}),
		replGolden("repl-ping", &ReplFrame{Kind: ReplPing}),
		replGolden("repl-hello", &ReplFrame{Kind: ReplHello, Incarnation: 42, Acks: []ReplAckEntry{
			{Shard: 0, Seq: 9}, {Shard: 3, Seq: 0},
		}, Epoch: 2}),
		replGolden("repl-topology", &ReplFrame{Kind: ReplTopology, Epoch: 2, Topo: []ReplShardSlice{
			{ID: 0, Mod: 2, Res: 0}, {ID: 1, Mod: 2, Res: 1},
		}}),
	}
}

// TestGoldenFrames: every frame re-encodes to the bytes its layout was
// pinned with, and those bytes decode to the value they were encoded
// from. The files were written by the encoders that preceded the shared
// field reader; they are never regenerated from new code.
func TestGoldenFrames(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "golden", c.name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			frame, err := c.encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(frame, golden) {
				t.Fatalf("encoded %x, golden %x", frame, golden)
			}
			got, err := c.decode(golden[4:])
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("decoded %+v, want %+v", got, c.want)
			}
		})
	}
}
