package main

import (
	"math/bits"
	"sort"
)

// subBits fixes the histogram's resolution: every power of two is cut
// into 1<<subBits buckets, so a bucket is at most 1/128 (0.78%) wide
// relative to its lower edge and its midpoint is within 0.39% of any
// value it holds.
const (
	subBits   = 7
	subCount  = 1 << subBits
	maxExp    = 40 // values are clamped below 2^40 ns (about 18 minutes)
	histSlots = subCount + (maxExp-subBits)*subCount
)

// hist is an allocation-free log-bucket histogram of nanosecond
// latencies. The zero value is ready for use; it is not safe for
// concurrent use (each client owns one per window).
type hist struct {
	counts [histSlots]uint32
	n      uint64
}

// bucketOf maps a value to its bucket. Values below subCount get a
// bucket each (exact); above, the top subBits+1 bits select the bucket.
func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	if v >= 1<<maxExp {
		v = 1<<maxExp - 1
	}
	s := bits.Len64(v) - 1 - subBits
	return s*subCount + int(v>>uint(s))
}

// bucketValue is the representative of bucket b: the value itself while
// buckets are one wide, the midpoint above that.
func bucketValue(b int) float64 {
	if b < 2*subCount {
		return float64(b)
	}
	s := uint(b/subCount - 1)
	low := uint64(subCount+b%subCount) << s
	return float64(low) + float64(uint64(1)<<s)/2
}

// record adds one observation of ns nanoseconds (negative counts as 0).
func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

// merge adds o's observations to h; the result is exactly the histogram
// of the union because buckets are fixed.
func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q <= 1) in nanoseconds, or 0 for
// an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return bucketValue(b)
		}
	}
	return bucketValue(histSlots - 1)
}

// median returns the median of xs (mean of the middle two when even),
// or 0 when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windowStats is what one measurement window contributes to the
// end-to-end timing metrics.
type windowStats struct {
	samples uint64
	rate    float64 // completed operations per second
	p50us   float64
	p99us   float64
	// Process-wide cost of the window per completed operation; filled by
	// the load loop from its usage readings, not from the histograms.
	cpuUs  float64
	allocs float64
}

// reduceWindows merges the clients' histograms window by window.
// perClient[c][w] is client c's histogram of window w; every window is
// winSeconds long. scratch is overwritten.
func reduceWindows(perClient [][]hist, winSeconds float64, scratch *hist) []windowStats {
	if len(perClient) == 0 {
		return nil
	}
	out := make([]windowStats, len(perClient[0]))
	for w := range out {
		*scratch = hist{}
		for c := range perClient {
			scratch.merge(&perClient[c][w])
		}
		out[w] = windowStats{
			samples: scratch.n,
			rate:    float64(scratch.n) / winSeconds,
			p50us:   scratch.quantile(0.50) / 1e3,
			p99us:   scratch.quantile(0.99) / 1e3,
		}
	}
	return out
}

// minSamples is the smallest sample count any window holds.
func minSamples(ws []windowStats) uint64 {
	if len(ws) == 0 {
		return 0
	}
	least := ws[0].samples
	for i := range ws {
		least = min(least, ws[i].samples)
	}
	return least
}

// summarizeWindows reduces the per-window figures to the reported
// metrics. Rate, latency and CPU are medians over windows, which a few
// stalled windows (a collection, a neighbour on the box) cannot move.
// Allocations are the first quartile: background work only ever adds to
// the count, and the durable workload's checkpointer (one cycle every
// 5 s, a second or more each) reaches 2 or 3 of every 5 one-second
// windows, so the median would sit on the edge between the two
// populations. The first quartile is the foreground cost per operation.
func summarizeWindows(ws []windowStats) (m windowStats) {
	col := func(f func(*windowStats) float64) []float64 {
		xs := make([]float64, len(ws))
		for i := range ws {
			xs[i] = f(&ws[i])
		}
		sort.Float64s(xs)
		return xs
	}
	m.samples = uint64(median(col(func(w *windowStats) float64 { return float64(w.samples) })))
	m.rate = median(col(func(w *windowStats) float64 { return w.rate }))
	m.p50us = median(col(func(w *windowStats) float64 { return w.p50us }))
	m.p99us = median(col(func(w *windowStats) float64 { return w.p99us }))
	m.cpuUs = median(col(func(w *windowStats) float64 { return w.cpuUs }))
	allocs := col(func(w *windowStats) float64 { return w.allocs })
	for len(allocs) > 0 && allocs[0] == 0 {
		allocs = allocs[1:] // a window a stall left empty has no reading
	}
	if len(allocs) > 0 {
		m.allocs = allocs[len(allocs)/4]
	}
	return m
}
