// Command e2e is the repository's end-to-end benchmark: four SQL workloads
// driven through the shipped assembly (wire → proxy → SQL node → sql → txn →
// DistSender → kv → raft → mvcc → LSM), nine end-to-end metrics per workload,
// and a traced run that splits latency by layer from outside the program.
// See ../README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"crdbserverless/internal/timeutil"
)

var realClock = timeutil.NewRealClock()

// metricDef names a reported metric and its unit. The lists below are the
// harness's side of BENCHMARK.json; a test holds the two together.
type metricDef struct {
	name, unit string
	// bound is the share of the median by which an end-to-end metric may
	// worsen before it counts as a regression; per-layer metrics have none.
	bound float64
}

var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s", 0.25},
	{"lat_p50_ms", "ms", 0.25},
	{"lat_p95_ms", "ms", 0.25},
	{"cpu_ms_per_op", "ms", 0.25},
	{"allocs_per_op", "count", 0.02},
	{"alloc_kb_per_op", "kB", 0.02},
	{"heap_live_mb", "MB", 0.03},
	{"setup_s", "s", 0.25},
	{"sim_cpu_ms_per_op", "ms", 0.03},
}

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	traceOut string
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	correct           bool
	problems          []string
	endToEnd          map[string]float64
	perLayer          map[string]float64
}

// run sets the workload up, measures it, verifies it, with opts.trace
// replays it down the ladder, and then sets it up again a few times for a
// steady set-up time. The extra set-ups come last so that the measured phase
// always runs in a process that has held exactly one deployment.
func run(ctx context.Context, opts options) (*result, error) {
	// Two closed-loop connections on two cores: the load shape every number
	// in the README is stated for.
	runtime.GOMAXPROCS(numConns)

	s, took, err := setUp(ctx, opts.workload, opts.seed, opts.scale)
	if err != nil {
		return nil, err
	}
	setupTimes := []time.Duration{took}
	res, err := s.measureAndCheck(ctx, opts)
	s.close()
	if err != nil {
		return nil, err
	}

	for len(setupTimes) < s.w.sizing().setups {
		again, took, err := setUp(ctx, opts.workload, opts.seed, opts.scale)
		if err != nil {
			return nil, err
		}
		again.close()
		setupTimes = append(setupTimes, took)
	}
	res.endToEnd["setup_s"] = p50(setupTimes).Seconds()
	return res, nil
}

// measureAndCheck runs the measured phase, the traced run if asked for, and
// the workload's end-of-run invariants.
func (s *session) measureAndCheck(ctx context.Context, opts options) (*result, error) {
	size := s.w.sizing()
	opsPerConn := scaled(int(math.Round(size.rate*opts.seconds)), opts.scale, numSlices)
	ph, err := s.measure(ctx, scaled(size.warmup, opts.scale, 2), opsPerConn)
	if err != nil {
		return nil, err
	}

	res := &result{attempted: ph.attempted, failed: ph.failed, endToEnd: endToEnd(ph), perLayer: counterMetrics(s, ph)}
	if ph.failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d of %d ops failed, first: %v", ph.failed, ph.attempted, ph.firstErr))
	}
	if opts.trace {
		traced, err := s.tracedRun(ctx, opts, ph)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		for _, m := range perLayerMetrics {
			if v, ok := traced[m.name]; ok {
				res.perLayer[m.name] = v
			} else if _, ok := res.perLayer[m.name]; !ok {
				// A timing this workload has no way to take.
				res.perLayer[m.name] = 0
			}
		}
	}
	if err := s.w.check(ctx, s.srv); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	res.correct = len(res.problems) == 0
	return res, nil
}

// endToEnd derives the end-to-end metrics from the measured phase.
func endToEnd(ph *phase) map[string]float64 {
	ops := float64(ph.attempted)
	lat := ph.lat[:]
	return map[string]float64{
		"ops_per_s":         ops / ph.wall.Seconds(),
		"lat_p50_ms":        ms(p50(flatten(lat))),
		"lat_p95_ms":        ms(windowedQuantile(lat, numWindows(ph.attempted), 0.95)),
		"cpu_ms_per_op":     1e3 * ph.counts["process.cpu_s"] / ops,
		"allocs_per_op":     ph.counts["runtime.mallocs"] / ops,
		"alloc_kb_per_op":   ph.counts["runtime.alloc_bytes"] / 1e3 / ops,
		"heap_live_mb":      float64(ph.heapEnd) / 1e6,
		"sim_cpu_ms_per_op": ph.counts["kv.cpu_busy_ns"] / 1e6 / ops,
	}
}

// report prints every metric by name with its unit, then the one-line JSON
// object the driver reads: the end-to-end metrics of an untraced run, or the
// per-layer metrics of a traced one.
func report(opts options, res *result) error {
	fmt.Printf("workload %s seed %d seconds %g scale %g\n", opts.workload, opts.seed, opts.seconds, opts.scale)
	for _, m := range endToEndMetrics {
		fmt.Printf("  %-34s %14.6g %s\n", m.name, res.endToEnd[m.name], m.unit)
	}
	for _, m := range perLayerMetrics {
		if v, ok := res.perLayer[m.name]; ok {
			fmt.Printf("  %-34s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	for _, p := range res.problems {
		fmt.Println("WRONG:", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEndMetrics, res.endToEnd
	if opts.trace {
		defs, vals = perLayerMetrics, res.perLayer
	}
	metrics := map[string]value{}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var opts options
	var trace, aa int
	flag.StringVar(&opts.workload, "workload", "", "one of "+strings.Join(workloadNames, ", ")+"; with -aa a comma-separated list or \"all\"")
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed: the same seed gives the same op stream")
	flag.Float64Var(&opts.seconds, "seconds", 15, "sizes the fixed op count: this many seconds of measured phase at seed speed")
	flag.Float64Var(&opts.scale, "scale", 1, "multiplies data sizes and op counts (0.01 is the smoke test)")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced run and reports the per-layer metrics")
	flag.StringVar(&opts.traceOut, "trace-out", "", "write the traced run's spans to this file as JSON")
	flag.IntVar(&aa, "aa", 0, "A/A mode: this many runs per workload, interleaved; exits non-zero if a spread exceeds its bound")
	flag.Parse()
	opts.trace = trace != 0
	if opts.seconds <= 0 || opts.scale <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "e2e: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	ctx := context.Background()
	if aa > 0 {
		os.Exit(runAA(opts, aa))
	}
	res, err := run(ctx, opts)
	if err == nil {
		err = report(opts, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}
