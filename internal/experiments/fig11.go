package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"crdbserverless"
	"crdbserverless/internal/workload"
)

// Fig11Point is one held-out workload's estimated-vs-actual comparison.
type Fig11Point struct {
	Name string
	// EstimatedCPU is the Serverless cluster's estimate: measured SQL CPU
	// plus the modeled KV CPU (§5.2.1).
	EstimatedCPU time.Duration
	// ActualCPU is the measured CPU of the same workload on a Dedicated
	// (colocated) cluster.
	ActualCPU time.Duration
	Ratio     float64
}

// Fig11Result is the full accuracy evaluation.
type Fig11Result struct {
	Points []Fig11Point
	// Within20Frac is the fraction of workloads whose estimate lands within
	// ±20% of actual (paper: ~80%).
	Within20Frac float64
	// WorstOutlier names the largest-ratio workload (paper: a full-scan
	// aggregation, because the Serverless run genuinely burns extra CPU
	// marshaling rows across the process boundary).
	WorstOutlier string
}

// fig11Workload is one held-out workload specification.
type fig11Workload struct {
	name  string
	setup func(ctx context.Context, db workload.DB) error
	run   func(ctx context.Context, db workload.DB) error
	iters int
}

// fig11Workloads builds the 23 held-out workloads (none used to fit the
// model constants).
func fig11Workloads() []fig11Workload {
	var out []fig11Workload
	add := func(name string, iters int, setup, run func(ctx context.Context, db workload.DB) error) {
		out = append(out, fig11Workload{name: name, setup: setup, run: run, iters: iters})
	}

	// 1-3: TPC-C at two scales plus a read-mostly "TPC-E-like" mix.
	for _, wh := range []int{1, 2} {
		wh := wh
		var gen *workload.TPCC
		add(fmt.Sprintf("tpcc-%dwh", wh), 30,
			func(ctx context.Context, db workload.DB) error {
				gen = workload.NewTPCC(wh, int64(wh))
				return gen.Setup(ctx, db)
			},
			func(ctx context.Context, db workload.DB) error { return gen.RunMix(ctx, db) })
	}
	{
		var gen *workload.TPCC
		add("tpce-readmix", 40,
			func(ctx context.Context, db workload.DB) error {
				gen = workload.NewTPCC(2, 77)
				return gen.Setup(ctx, db)
			},
			func(ctx context.Context, db workload.DB) error { return gen.OrderStatus(ctx, db) })
	}

	// 4-6: TPC-H.
	for _, spec := range []struct {
		name string
		rows int
		q1   bool
	}{
		{"tpch-q1-small", 300, true},
		{"tpch-q1-large", 1200, true},
		{"tpch-q9", 600, false},
	} {
		spec := spec
		var gen *workload.TPCH
		add(spec.name, 4,
			func(ctx context.Context, db workload.DB) error {
				gen = workload.NewTPCH(spec.rows, 5)
				return gen.Setup(ctx, db)
			},
			func(ctx context.Context, db workload.DB) error {
				if spec.q1 {
					_, err := gen.Q1(ctx, db)
					return err
				}
				_, err := gen.Q9(ctx, db)
				return err
			})
	}

	// 7-12: YCSB A-F.
	for _, letter := range []byte{'A', 'B', 'C', 'D', 'E', 'F'} {
		letter := letter
		var gen *workload.YCSB
		add(fmt.Sprintf("ycsb-%c", letter), 60,
			func(ctx context.Context, db workload.DB) error {
				gen = workload.NewYCSB(120, letter, int64(letter))
				return gen.Setup(ctx, db)
			},
			func(ctx context.Context, db workload.DB) error { return gen.Run(ctx, db) })
	}

	// 13-17: KV mixes across read fractions.
	for _, rf := range []float64{0, 0.25, 0.5, 0.75, 0.95} {
		rf := rf
		var gen *workload.KV
		add(fmt.Sprintf("kv-read%02.0f", rf*100), 80,
			func(ctx context.Context, db workload.DB) error {
				gen = workload.NewKV(100, rf, 64, int64(rf*100))
				return gen.Setup(ctx, db)
			},
			func(ctx context.Context, db workload.DB) error { return gen.Run(ctx, db) })
	}

	// 18-19: bulk imports at two scales.
	for _, rows := range []int{200, 600} {
		rows := rows
		add(fmt.Sprintf("import-%d", rows), 1,
			func(ctx context.Context, db workload.DB) error { return nil },
			func(ctx context.Context, db workload.DB) error {
				return workload.NewImport(rows, int64(rows)).Run(ctx, db)
			})
	}

	// 20: wide writes (1 KiB values).
	{
		var gen *workload.KV
		add("kv-wide-writes", 50,
			func(ctx context.Context, db workload.DB) error {
				gen = workload.NewKV(50, 0.1, 1024, 21)
				return gen.Setup(ctx, db)
			},
			func(ctx context.Context, db workload.DB) error { return gen.Run(ctx, db) })
	}

	// 21: full-scan aggregation (the expected outlier).
	{
		var gen *workload.TPCH
		add("fullscan-agg", 6,
			func(ctx context.Context, db workload.DB) error {
				gen = workload.NewTPCH(1500, 22)
				return gen.Setup(ctx, db)
			},
			func(ctx context.Context, db workload.DB) error {
				_, err := db.Execute(ctx, "SELECT COUNT(*), SUM(l_price), AVG(l_quantity) FROM lineitem")
				return err
			})
	}

	// 22: plain full scans without aggregation.
	{
		var gen *workload.TPCH
		add("fullscan-rows", 4,
			func(ctx context.Context, db workload.DB) error {
				gen = workload.NewTPCH(800, 23)
				return gen.Setup(ctx, db)
			},
			func(ctx context.Context, db workload.DB) error {
				_, err := db.Execute(ctx, "SELECT * FROM lineitem")
				return err
			})
	}

	// 23: secondary-index point lookups.
	{
		var gen *workload.TPCH
		i := 0
		add("index-lookups", 40,
			func(ctx context.Context, db workload.DB) error {
				gen = workload.NewTPCH(400, 24)
				return gen.Setup(ctx, db)
			},
			func(ctx context.Context, db workload.DB) error {
				i++
				_, err := db.Execute(ctx,
					fmt.Sprintf("SELECT l_key FROM lineitem WHERE l_partkey = %d", i%40+1))
				return err
			})
	}
	return out
}

// Fig11 reproduces §6.7: run each held-out workload on a Serverless cluster
// (recording its estimated CPU from the §5.2.1 model) and on a Dedicated
// cluster (recording actual measured CPU), then compare. Expected shape:
// ~80% of workloads within ±20%; the worst outlier is a full-scan
// aggregation whose Serverless run genuinely consumes extra CPU.
func Fig11() (*Fig11Result, *Table, error) {
	ctx := context.Background()
	res := &Fig11Result{}

	for _, spec := range fig11Workloads() {
		// Serverless run: estimated CPU.
		est, err := fig11Run(ctx, spec, false)
		if err != nil {
			return nil, nil, fmt.Errorf("%s (serverless): %w", spec.name, err)
		}
		// Dedicated run: actual CPU.
		act, err := fig11Run(ctx, spec, true)
		if err != nil {
			return nil, nil, fmt.Errorf("%s (dedicated): %w", spec.name, err)
		}
		p := Fig11Point{Name: spec.name, EstimatedCPU: est.estimated, ActualCPU: act.actual}
		if p.ActualCPU > 0 {
			p.Ratio = float64(p.EstimatedCPU) / float64(p.ActualCPU)
		}
		res.Points = append(res.Points, p)
	}

	within := 0
	for _, p := range res.Points {
		if p.Ratio >= 0.8 && p.Ratio <= 1.2 {
			within++
		}
	}
	res.Within20Frac = float64(within) / float64(len(res.Points))
	var sorted []Fig11Point
	sorted, res.WorstOutlier = fig11Order(res.Points)
	table := &Table{
		Title:   "Fig 11: estimated Serverless CPU vs actual Dedicated CPU (§6.7)",
		Columns: []string{"workload", "estimated", "actual", "est/actual"},
	}
	for _, p := range sorted {
		table.Rows = append(table.Rows, []string{
			p.Name, fmtDur(p.EstimatedCPU), fmtDur(p.ActualCPU), fmt.Sprintf("%.2f", p.Ratio),
		})
	}
	table.Rows = append(table.Rows, []string{
		"summary",
		fmt.Sprintf("%.0f%% within ±20%%", res.Within20Frac*100),
		"worst outlier", res.WorstOutlier,
	})
	return res, table, nil
}

// fig11Order returns the points by printed est/actual ratio, highest first,
// and the worst outlier: the point whose printed ratio is furthest from 1.
// Both break ties by name, so rows that print the same ratio come out in the
// same order on every run, whatever their unprinted digits.
func fig11Order(points []Fig11Point) (sorted []Fig11Point, worst string) {
	// The ratio in hundredths, as the table prints it.
	cents := func(p Fig11Point) int {
		r, _ := strconv.ParseFloat(fmt.Sprintf("%.2f", p.Ratio), 64) // parses what Sprintf printed
		return int(math.Round(r * 100))
	}
	sorted = append([]Fig11Point(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		ci, cj := cents(sorted[i]), cents(sorted[j])
		if ci != cj {
			return ci > cj
		}
		return sorted[i].Name < sorted[j].Name
	})
	worstDelta := -1
	for _, p := range sorted {
		d := cents(p) - 100
		if d < 0 {
			d = -d
		}
		if d > worstDelta || (d == worstDelta && p.Name < worst) {
			worstDelta, worst = d, p.Name
		}
	}
	return sorted, worst
}

type fig11Measurement struct {
	estimated time.Duration
	actual    time.Duration
}

func fig11Run(ctx context.Context, spec fig11Workload, traditional bool) (fig11Measurement, error) {
	srv, err := crdbserverless.NewBaseline(crdbserverless.Options{}, crdbserverless.Baseline{Traditional: traditional, NoPushdown: true})
	if err != nil {
		return fig11Measurement{}, err
	}
	defer srv.Close()
	node, err := newTenant(ctx, srv, spec.name, 0)
	if err != nil {
		return fig11Measurement{}, err
	}
	sess := node.NewSession("bench")
	if err := spec.setup(ctx, sess); err != nil {
		return fig11Measurement{}, err
	}

	estBefore, cpuBefore := node.ECPU(), cpuSpent(srv, node)
	for i := 0; i < spec.iters; i++ {
		if err := spec.run(ctx, sess); err != nil {
			return fig11Measurement{}, err
		}
	}
	return fig11Measurement{
		estimated: time.Duration(float64(node.ECPU()-estBefore) * float64(time.Second)),
		actual:    cpuSpent(srv, node) - cpuBefore,
	}, nil
}
