package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// recorded is one run as -record appends it: a JSON object per line.
type recorded struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, r recorded) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// contractMetric is one end_to_end entry of BENCHMARK.json.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contractFile is the part of BENCHMARK.json the benchmark itself reads.
type contractFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func readContract(path string) (*contractFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contractFile
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// readRuns loads a -record file's untraced runs as values by workload and
// metric name.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r recorded
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Result.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vs, n=4) does, which is how the spread of a metric is
// defined for this benchmark. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// verdict judges one (metric, workload) row: B is worse when its median is
// worse than A's by more than the bound; a row whose spread in A exceeds the
// bound cannot show that either way and is unresolved, unless every run of B
// reads better than every run of A.
func verdict(m contractMetric, a, b []float64) (string, float64, float64, float64) {
	medA, medB := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	change := sign * (medB - medA) / medA
	spread := 0.0
	if len(a) >= 2 {
		q1, q3 := quartiles(a)
		spread = (q3 - q1) / medA
	}
	allBetter := true
	for _, vb := range b {
		for _, va := range a {
			if sign*(vb-va) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > m.Bound && !allBetter:
		return "unresolved", medA, medB, spread
	case change > m.Bound:
		return "worse", medA, medB, spread
	}
	return "ok", medA, medB, spread
}

// compareFiles prints one row per end-to-end metric and workload and returns
// 1 if any row is worse.
func compareFiles(stdout, stderr io.Writer, contractPath, pathA, pathB string) int {
	c, err := readContract(contractPath)
	if err == nil {
		var a, b map[string]map[string][]float64
		if a, err = readRuns(pathA); err == nil {
			b, err = readRuns(pathB)
		}
		if err == nil {
			return compareRuns(stdout, c, a, b)
		}
	}
	fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
	return 2
}

func compareRuns(stdout io.Writer, c *contractFile, a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Fprintf(stdout, "%-14s %-14s %14s %14s %7s %7s  %s\n", "workload", "metric", "median A", "median B", "spread", "bound", "verdict")
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-14s %-14s %14s %14s %7s %7.2f  missing\n", w.Name, m.Name, "-", "-", "-", m.Bound)
				code = 1
				continue
			}
			v, medA, medB, spread := verdict(m, va, vb)
			fmt.Fprintf(stdout, "%-14s %-14s %14.4f %14.4f %7.3f %7.2f  %s\n", w.Name, m.Name, medA, medB, spread, m.Bound, v)
			if v == "worse" {
				code = 1
			}
		}
	}
	return code
}
