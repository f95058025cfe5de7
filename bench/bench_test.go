package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json, the contract the driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestSmoke runs every workload end to end and traced in -smoke shape
// (10k keys, 1 s measured, every correctness check on) and holds the
// output to BENCHMARK.json: the same metric names and units, nothing
// missing, nothing extra.
func TestSmoke(t *testing.T) {
	contract := readBenchmarkJSON(t)
	if len(contract.Paths) != 1 || contract.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", contract.Paths)
	}
	if len(contract.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(contract.Workloads), len(specs))
	}
	for i, sp := range specs {
		if contract.Workloads[i].Name != sp.name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, contract.Workloads[i].Name, sp.name)
		}
		t.Run(sp.name, func(t *testing.T) {
			p := newParams(sp, 1, true, t.TempDir())
			res, err := runEndToEnd(sp, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, contract.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", name, m.Value)
				}
			}

			traced, err := runTraced(sp, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, traced, contract.PerLayer)
			for name, m := range traced.Metrics {
				layer, _, _ := strings.Cut(name, ".")
				idle := layer == "wal" && !sp.durable ||
					!sp.server && (layer == "store" || layer == "wire" || layer == "net")
				if idle && m.Value != 0 {
					t.Errorf("%s = %v, but this workload does no %s work", name, m.Value, layer)
				}
			}
			for _, name := range []string{"stm.txn_ns", "structures.op_ns", "structures.reads_per_op", "stm.commit_share"} {
				if traced.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, must be positive on every workload", name, traced.Metrics[name].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(p.outDir, "trace-"+sp.name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
			if left, _ := filepath.Glob(filepath.Join(p.outDir, "tmp", "*")); len(left) != 0 {
				t.Errorf("temporary WAL directories left behind: %v", left)
			}
		})
	}
}

func checkResult(t *testing.T, res *result, want []metricJSON) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("run printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s is in BENCHMARK.json but was not printed", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two values = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	// The table comes from BENCHMARK.json in a real run; the verdict rules
	// are tested on one metric of each direction.
	metrics := []e2eMetric{
		{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.05},
		{Name: "cost", Unit: "us", Better: "lower", Bound: 0.10},
	}
	dir := t.TempDir()
	// scale multiplies a metric of set B's runs for one workload; jitter
	// is the run-to-run spread of both sets.
	write := func(name string, scale map[string]float64, jitter float64) string {
		path := filepath.Join(dir, name)
		for run := 0; run < 6; run++ {
			for _, sp := range specs {
				rec := record{Workload: sp.name, Seed: uint64(run), result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}}
				for _, m := range metrics {
					v := 100 * (1 + jitter*float64(run-3))
					if s, ok := scale[sp.name+"/"+m.Name]; ok {
						v *= s
					}
					rec.Metrics[m.Name] = metric{v, m.Unit}
				}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	base := write("a.jsonl", nil, 0.001)
	verdictOf := func(out, workload, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == workload && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return "missing"
	}

	var out bytes.Buffer
	regressed, err := compareSets(&out, metrics, base, write("same.jsonl", nil, 0.001))
	if err != nil || regressed || strings.Contains(out.String(), "regressed") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("same-code sets: regressed=%v err=%v\n%s", regressed, err, out.String())
	}

	out.Reset()
	regressed, err = compareSets(&out, metrics, base, write("slow.jsonl", map[string]float64{
		"kv-read-mostly/rate": 0.925, // lower rate: worse, past the 5% bound
		"lib-skipmap/rate":    1.075, // higher rate: better
		"txn-zipf-2pc/cost":   1.05,  // worse, inside the 10% bound
	}, 0.001))
	if err != nil || !regressed {
		t.Errorf("slower set: regressed=%v err=%v", regressed, err)
	}
	for _, c := range []struct{ workload, metric, want string }{
		{"kv-read-mostly", "rate", "regressed"},
		{"lib-skipmap", "rate", "ok"},
		{"txn-zipf-2pc", "cost", "ok"},
		{"kv-durable-write", "cost", "ok"},
	} {
		if got := verdictOf(out.String(), c.workload, c.metric); got != c.want {
			t.Errorf("%s/%s: verdict %s, want %s\n%s", c.workload, c.metric, got, c.want, out.String())
		}
	}

	out.Reset()
	// Six runs spaced jitter apart have an interquartile range of 3.5 x
	// jitter: wider than the bound, so even a real drop must not resolve.
	regressed, err = compareSets(&out, metrics, base, write("noisy.jsonl", map[string]float64{"kv-read-mostly/rate": 0.925}, 0.025))
	if err != nil || regressed {
		t.Errorf("noisy set: regressed=%v err=%v", regressed, err)
	}
	if got := verdictOf(out.String(), "kv-read-mostly", "rate"); got != "unresolved" {
		t.Errorf("a spread wider than the bound must read unresolved, got %s", got)
	}
}

// -compare takes its table from BENCHMARK.json. No bound there is wider
// than 10%, except that of setup_s: it reads a clock, so it drifts with
// the box like the clock metrics that were moved to the per-layer list,
// but the driver requires it among the end-to-end metrics.
func TestReadContract(t *testing.T) {
	metrics, err := readContract(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metrics {
		widest := 0.10
		if m.Name == "setup_s" {
			widest = 0.25
		}
		if m.Name == "" || m.Unit == "" || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > widest {
			t.Errorf("end-to-end metric %+v: want a name, a unit, a direction and a bound in (0, %v]", m, widest)
		}
	}
}
