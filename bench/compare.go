package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// contractPath is BENCHMARK.json as seen from bench/, where the program
// runs (run.sh, go run -C bench, go test).
const contractPath = "../BENCHMARK.json"

// e2eMetric is one end-to-end metric of BENCHMARK.json. Bound is the
// share of the baseline median by which it may get worse before a change
// counts as a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readContract loads the end-to-end metric table from BENCHMARK.json, the
// one place it is kept.
func readContract(path string) ([]e2eMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s lists no end-to-end metric", path)
	}
	return c.EndToEnd, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), which is what the driver's acceptance check uses. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		const n = 4
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// readSet loads the untraced records of a set file, grouped by workload
// and metric.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Correct || rec.Failed != 0 {
			return nil, fmt.Errorf("%s:%d: run of %s seed %d was not correct", path, line, rec.Workload, rec.Seed)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// compareSets prints one row per workload and end-to-end metric: both
// medians, both interquartile ranges as a share of their median, how
// much worse B is than A, the bound, and a verdict. A row whose spread
// exceeds its bound is unresolved — the runs cannot tell a regression
// from noise — and is never reported as ok.
func compareSets(w io.Writer, metrics []e2eMetric, pathA, pathB string) (regressed bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-17s %-14s %13s %7s %13s %7s %8s %6s  %s\n",
		"workload", "metric", "median A", "iqr A", "median B", "iqr B", "worse", "bound", "verdict")
	for _, sp := range specs {
		for _, m := range metrics {
			va, vb := a[sp.name][m.Name], b[sp.name][m.Name]
			if len(va) < 2 || len(vb) < 2 {
				return false, fmt.Errorf("%s/%s: need at least two runs in each set (have %d and %d)", sp.name, m.Name, len(va), len(vb))
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case max(spreadA, spreadB) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-17s %-14s %13.4f %6.2f%% %13.4f %6.2f%% %+7.2f%% %5.0f%%  %s\n",
				sp.name, m.Name, a2, 100*spreadA, b2, 100*spreadB, 100*worse, 100*m.Bound, verdict)
		}
	}
	return regressed, nil
}
