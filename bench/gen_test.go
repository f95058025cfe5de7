package main

import (
	"bytes"
	"math"
	"testing"
)

var opcodeNames = [numOpcodes]string{"get", "scan", "set", "incr", "txn", "mget", "del"}

func smallParams(sp *spec) *params {
	p := newParams(sp, 1, true, "")
	p.streamLen = 1 << 15
	return p
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		p := smallParams(sp)
		a, again, b := streamHash(genStreams(sp, p, 7)), streamHash(genStreams(sp, p, 7)), streamHash(genStreams(sp, p, 8))
		if a != again {
			t.Errorf("%s: seed 7 generated two different streams", sp.name)
		}
		if a == b {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", sp.name)
		}
		s := genStreams(sp, p, 7)
		if bytes.Equal(opBytes(s[0]), opBytes(s[1])) {
			t.Errorf("%s: both clients got the same stream", sp.name)
		}
	}
}

func opBytes(s []op) []byte {
	b := make([]byte, 0, len(s)*8)
	for _, o := range s {
		for i := 0; i < 8; i++ {
			b = append(b, byte(o>>(8*i)))
		}
	}
	return b
}

func TestStreamMixAndKeys(t *testing.T) {
	for _, sp := range specs {
		p := smallParams(sp)
		streams := genStreams(sp, p, 3)
		var byOp [numOpcodes]int
		total := 0
		for c, s := range streams {
			for _, o := range s {
				byOp[o.code()]++
				total++
				k := o.key()
				if k < 0 || k >= p.keys {
					t.Fatalf("%s: key %d outside [0, %d)", sp.name, k, p.keys)
				}
				if sp.partition && (k < c*p.keys/numClients || k >= (c+1)*p.keys/numClients) {
					t.Fatalf("%s: client %d drew key %d outside its half", sp.name, c, k)
				}
				if sp.counters && (o.code() == opIncr) != isCounter(k) {
					t.Fatalf("%s: %s on key %d (counter: %v)", sp.name, opcodeNames[o.code()], k, isCounter(k))
				}
			}
		}
		for _, m := range sp.mix {
			if got := 100 * float64(byOp[m.op]) / float64(total); math.Abs(got-float64(m.pct)) > 1 {
				t.Errorf("%s: %s is %.1f%% of the stream, want %d%%", sp.name, opcodeNames[m.op], got, m.pct)
			}
		}
	}
}

// The hottest 1% of keys must receive the share of draws theta = 0.99
// predicts: zeta(n/100) / zeta(n).
func TestZipfHotShare(t *testing.T) {
	const n, draws = 100_000, 2_000_000
	z := newZipf(n)
	r := rng(9)
	hot := 0
	for i := 0; i < draws; i++ {
		if z.rank(r.float()) < n/100 {
			hot++
		}
	}
	got, want := float64(hot)/draws, zeta(n/100)/zeta(n)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("hottest 1%% of keys drew %.4f of the operations, theory says %.4f", got, want)
	}
	seen := make([]bool, n)
	for rank := uint64(0); rank < n; rank++ {
		k := z.key(rank)
		if seen[k] {
			t.Fatalf("rank -> key is not a bijection: key %d hit twice", k)
		}
		seen[k] = true
	}
}

func TestKeyTables(t *testing.T) {
	tab := keyTable('k', 1000)
	for i := 0; i < 1000; i++ {
		if idx, ok := keyIndex(keyAt(tab, i)); !ok || idx != i {
			t.Fatalf("key %d parses back as %d (%v)", i, idx, ok)
		}
	}
	if _, ok := keyIndex([]byte("k00000000000x001")); ok {
		t.Error("malformed key parsed")
	}
	_, b := pairTables(1000)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		seen[string(keyAt(b, i))] = true
	}
	if len(seen) != 1000 {
		t.Errorf("scrambled pair table holds %d distinct keys, want 1000", len(seen))
	}
}

func TestValueChecksum(t *testing.T) {
	v := make([]byte, 64)
	fillValue(v, 42, 7)
	if !valueOK(v, 42) || valueOK(v, 43) || valueOK(v[:8], 42) {
		t.Error("value checksum does not bind the value to its key")
	}
}
