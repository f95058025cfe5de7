package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// opcode is a workload-level operation; each workload maps it onto its
// own public surface (wire requests or TSkipMap calls).
type opcode uint8

const (
	opGet  opcode = iota // GET / TSkipMap.Get (snapshot)
	opScan               // SCAN / TSkipMap.Range (weak)
	opSet                // SET / TSkipMap.Put (def)
	opIncr               // INCR (def)
	opTxn                // TXN{GET a, GET b, SET a, SET b} (def)
	opMGet               // MGET{a, b} (snapshot)
	opDel                // TSkipMap.Delete (def)
	numOpcodes
)

// op is one pre-generated operation: opcode in bits 0-7, key index in
// bits 8-39, a 24-bit value stamp in bits 40-63. Eight bytes per
// operation keeps a million-operation stream per client at 8 MB.
type op uint64

func makeOp(c opcode, key uint32, stamp uint32) op {
	return op(uint64(c) | uint64(key)<<8 | uint64(stamp&0xFFFFFF)<<40)
}
func (o op) code() opcode  { return opcode(o) }
func (o op) key() int      { return int(uint32(o >> 8)) }
func (o op) stamp() uint32 { return uint32(o >> 40) }

// rng is splitmix64: tiny, seedable, and identical on every Go version,
// so a seed names one operation stream for good.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix64 is the splitmix finalizer used for key checksums.
func mix64(x uint64) uint64 {
	r := rng(x)
	return r.next()
}

// zipfTheta is the YCSB skew constant used by every zipfian workload.
const zipfTheta = 0.99

// zipf draws ranks from a zipfian distribution over [0, n) by Gray et
// al.'s rejection-free inversion, then scrambles rank to key index by a
// multiplicative bijection so the hot keys are spread over the keyspace
// (and over the store shards) instead of sitting at its low end.
type zipf struct {
	n                 uint64
	alpha, zetan, eta float64
	halfPowTheta      float64
	mult              uint64
}

func zeta(n uint64) float64 {
	var z float64
	for i := uint64(1); i <= n; i++ {
		z += 1 / math.Pow(float64(i), zipfTheta)
	}
	return z
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// coprimeTo returns a large multiplier coprime to n: i -> i*mult mod n
// is then a bijection on [0, n).
func coprimeTo(n uint64) uint64 {
	mult := uint64(2654435761)
	for gcd(mult, n) != 1 {
		mult += 2
	}
	return mult
}

func newZipf(n uint64) *zipf {
	zetan := zeta(n)
	return &zipf{
		n:            n,
		alpha:        1 / (1 - zipfTheta),
		zetan:        zetan,
		eta:          (1 - math.Pow(2/float64(n), 1-zipfTheta)) / (1 - zeta(2)/zetan),
		halfPowTheta: 1 + math.Pow(0.5, zipfTheta),
		mult:         coprimeTo(n),
	}
}

// rank maps a uniform u in [0, 1) to a popularity rank (0 is hottest).
func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// key maps a rank to its key index.
func (z *zipf) key(rank uint64) uint64 { return rank * z.mult % z.n }

// streamSeed derives one client's generator state from the run seed and
// the workload, so workloads and clients never share a sequence.
func streamSeed(seed uint64, workload string, client int) rng {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rng(mix64(seed) ^ h.Sum64() ^ mix64(uint64(client)+1))
}

// genStream pre-generates n operations for one of `clients` clients of
// workload sp over `keys` preloaded keys. Nothing else feeds the program
// under test: the measured loop only indexes this slice.
func genStream(sp *spec, keys int, z *zipf, seed uint64, client, clients, n int) []op {
	r := streamSeed(seed, sp.name, client)
	lo, span := 0, keys
	if sp.partition {
		lo = client * keys / clients
		span = (client+1)*keys/clients - lo
	}
	out := make([]op, n)
	for i := range out {
		roll := int(r.next() % 100)
		var code opcode
		for _, m := range sp.mix {
			if roll < m.pct {
				code = m.op
				break
			}
			roll -= m.pct
		}
		var k int
		if z != nil {
			k = int(z.key(z.rank(r.float())))
		} else {
			k = lo + int(r.next()%uint64(span))
		}
		if sp.counters {
			// One key in ten is a counter: INCR goes to counters only,
			// SET never does, so a counter always holds an integer.
			switch {
			case code == opIncr:
				k = k - k%10 + 9
				if k >= lo+span {
					k -= 10
				}
			case isCounter(k):
				k--
			}
		}
		out[i] = makeOp(code, uint32(k), uint32(r.next()))
	}
	return out
}

func isCounter(k int) bool { return k%10 == 9 }

// streamHash fingerprints a set of streams (the generator tests compare
// it across seeds).
func streamHash(streams [][]op) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range streams {
		for _, o := range s {
			binary.LittleEndian.PutUint64(b[:], uint64(o))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// Keys are 16 bytes: a class letter and a 15-digit index. keyTable
// builds every key once so the measured loop only slices.
const keyLen = 16

func keyTable(class byte, n int) []byte { return keyTableBy(class, n, 1) }

// scrambledKeyTable names entry i after i*mult mod n for a mult coprime
// to n, so names stay distinct but are unrelated to their position.
func scrambledKeyTable(class byte, n int) []byte {
	return keyTableBy(class, n, coprimeTo(uint64(n)))
}

func keyTableBy(class byte, n int, mult uint64) []byte {
	t := make([]byte, n*keyLen)
	for i := 0; i < n; i++ {
		k := t[i*keyLen : (i+1)*keyLen]
		k[0] = class
		v := int(uint64(i) * mult % uint64(n))
		for j := keyLen - 1; j >= 1; j-- {
			k[j] = byte('0' + v%10)
			v /= 10
		}
	}
	return t
}

// pairTables builds the (a, b) key tables of a pair workload. Pair i's b
// key is named after a scrambled index, not i: the store routes by
// FNV-1a modulo the shard count, whose low bits depend only on the low
// bits of each key byte, so "a<i>" and "b<i>" would land on different
// shards for every single i. Scrambled, about one pair in four shares a
// shard of four, and the workload mixes same-shard transactions with
// cross-shard commits.
func pairTables(n int) (a, b []byte) {
	return keyTable('a', n), scrambledKeyTable('b', n)
}

func keyAt(t []byte, i int) []byte { return t[i*keyLen : (i+1)*keyLen : (i+1)*keyLen] }

// keyIndex parses the index back out of a key (SCAN results are checked
// against their own keys); ok is false for a malformed key.
func keyIndex(k []byte) (int, bool) {
	if len(k) != keyLen {
		return 0, false
	}
	v := 0
	for _, c := range k[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// Values are an 8-byte checksum of the key index, an 8-byte stamp, and
// filler up to the workload's value length. The checksum lets every
// read be verified without a shadow copy of the store.
func checksum(k int) uint64 { return mix64(uint64(k) ^ 0x706f6c79746d) }

func fillValue(dst []byte, k int, stamp uint64) {
	binary.LittleEndian.PutUint64(dst[0:8], checksum(k))
	binary.LittleEndian.PutUint64(dst[8:16], stamp)
}

func valueOK(v []byte, k int) bool {
	return len(v) >= 16 && binary.LittleEndian.Uint64(v[0:8]) == checksum(k)
}
