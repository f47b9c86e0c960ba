package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), which
// is what the driver's spread is computed from. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), xs...)
	sort.Float64s(x)
	n := len(x)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runOnce runs one workload in a fresh process, as the driver does, and
// returns the end-to-end metrics from the JSON line it prints last.
func runOnce(opts options, workload string, seed int64) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(opts.seconds),
		"-scale", fmt.Sprint(opts.scale))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not the result: %w", workload, seed, err)
	}
	if !line.Correct || line.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: %d ops failed, correct=%v", workload, seed, line.Failed, line.Correct)
	}
	out := map[string]float64{}
	for _, m := range endToEndMetrics {
		out[m.name] = line.Metrics[m.name].Value
	}
	return out, nil
}

// runAA makes n runs of each requested workload, interleaved across the
// workloads so that slow machine drift spreads over all of them, and prints
// each end-to-end metric's quartiles and its spread (interquartile distance
// over the median) against the metric's bound. It returns the exit code:
// non-zero if a run failed or a spread exceeds its bound.
func runAA(opts options, n int) int {
	names := strings.Split(opts.workload, ",")
	if opts.workload == "all" || opts.workload == "" {
		names = workloadNames
	}
	if n < 2 {
		fmt.Fprintln(os.Stderr, "e2e: -aa needs at least 2 runs for a spread")
		return 2
	}
	values := map[string]map[string][]float64{}
	for round := 0; round < n; round++ {
		for _, w := range names {
			got, err := runOnce(opts, w, opts.seed+int64(round))
			if err != nil {
				fmt.Fprintln(os.Stderr, "e2e:", err)
				return 1
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for _, m := range endToEndMetrics {
				values[w][m.name] = append(values[w][m.name], got[m.name])
			}
			fmt.Printf("round %d %s ops_per_s %.2f lat_p50_ms %.4f\n", round, w, got["ops_per_s"], got["lat_p50_ms"])
		}
	}
	code := 0
	for _, w := range names {
		fmt.Printf("%s (%d runs)\n  %-20s %12s %12s %12s %8s %8s\n", w, n, "metric", "q1", "median", "q3", "spread", "/bound")
		for _, m := range endToEndMetrics {
			q1, q2, q3 := quartiles(values[w][m.name])
			spread := ratio(q3-q1, q2)
			verdict := ""
			if spread > m.bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("  %-20s %12.4f %12.4f %12.4f %8.4f %8.2f%s\n", m.name, q1, q2, q3, spread, spread/m.bound, verdict)
		}
	}
	return code
}
