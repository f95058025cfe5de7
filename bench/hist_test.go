package main

import (
	"math"
	"testing"
)

func TestHistRelativeError(t *testing.T) {
	r := rng(1)
	check := func(v uint64) {
		t.Helper()
		var h hist
		h.record(int64(v))
		got := h.quantile(0.5)
		if err := math.Abs(got-float64(v)) / float64(v); err > 0.01 {
			t.Fatalf("value %d reported as %.1f: relative error %.4f > 1%%", v, got, err)
		}
	}
	for v := uint64(1); v < 1<<maxExp; v += v/3 + 1 {
		check(v)
	}
	for i := 0; i < 100_000; i++ {
		check(1 + r.next()%(1<<(1+r.next()%(maxExp-1))))
	}
	// Bucket edges: the last value of one bucket and the first of the next.
	for e := subBits; e < maxExp; e++ {
		check(1<<e - 1)
		check(1 << e)
	}
}

func TestHistClampsOutOfRange(t *testing.T) {
	var h hist
	h.record(-5)
	h.record(math.MaxInt64)
	if h.n != 2 || h.counts[0] != 1 || h.counts[histSlots-1] != 1 {
		t.Fatalf("negative and oversized values must land in the first and last bucket")
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1000); v <= 1_000_000; v += 1000 { // 1000 evenly spread values
		h.record(v)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500_000}, {0.99, 990_000}, {1, 1_000_000}} {
		if got := h.quantile(c.q); math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 1%%", c.q, got, c.want)
		}
	}
	if got := new(hist).quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestHistMergeExact(t *testing.T) {
	r := rng(2)
	var a, b, all hist
	for i := 0; i < 50_000; i++ {
		v := int64(r.next() % 50_000_000)
		if i%3 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
		all.record(v)
	}
	a.merge(&b)
	if a != all {
		t.Fatal("merge of two histograms differs from the histogram of the union")
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	h := new(hist)
	v := int64(12345)
	if n := testing.AllocsPerRun(1000, func() { h.record(v); v += 977 }); n != 0 {
		t.Fatalf("record allocates %.1f objects per call, want 0", n)
	}
}

// Two of thirty windows stall (a neighbour took the core): the mean rate
// drops with them, the window medians do not move.
func TestWindowMedianIgnoresStalls(t *testing.T) {
	const windows, clients, perWindow = 30, 2, 10_000
	perClient := make([][]hist, clients)
	var total uint64
	for c := range perClient {
		perClient[c] = make([]hist, windows)
		for w := range perClient[c] {
			n, lat := perWindow, int64(20_000)
			if w == 7 || w == 19 {
				n, lat = 100, 5_000_000
			}
			for i := 0; i < n; i++ {
				perClient[c][w].record(lat + int64(i%200)) // 20.0-20.2 us, or 5 ms when stalled
				total++
			}
		}
	}
	ws := reduceWindows(perClient, 0.5, new(hist))
	// A checkpointer's allocations reach two of every five windows.
	for w := range ws {
		ws[w].allocs = 12
		if w%5 >= 3 {
			ws[w].allocs = 25
		}
	}
	m := summarizeWindows(ws)
	if m.allocs != 12 {
		t.Errorf("allocations per operation = %v, want the foreground 12", m.allocs)
	}
	rate, p50, p99, samples := m.rate, m.p50us, m.p99us, m.samples
	if want := float64(clients*perWindow) / 0.5; rate != want {
		t.Errorf("median window rate = %.0f, want %.0f", rate, want)
	}
	if mean := float64(total) / (windows * 0.5); mean >= rate*0.95 {
		t.Errorf("test is vacuous: the stalls did not lower the mean rate (%.0f vs %.0f)", mean, rate)
	}
	if math.Abs(p50-20.1)/20.1 > 0.01 || math.Abs(p99-20.2)/20.2 > 0.01 {
		t.Errorf("median window p50/p99 = %.2f/%.2f us, want about 20.1/20.2", p50, p99)
	}
	if samples != clients*perWindow {
		t.Errorf("median samples per window = %d, want %d", samples, clients*perWindow)
	}
	if ws[7].p99us < 4000 {
		t.Errorf("stalled window p99 = %.0f us, want about 5000", ws[7].p99us)
	}
}
