package experiments

import (
	"context"
	"fmt"
	"time"

	"crdbserverless"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/workload"
)

// Fig6Workload is one workload's Serverless-vs-Traditional comparison.
type Fig6Workload struct {
	Name           string
	ServerlessCPU  time.Duration
	TraditionalCPU time.Duration
	CPURatio       float64 // serverless / traditional
	ServerlessLat  metric.Summary
	TraditionalLat metric.Summary
}

// Fig6Options size the experiment.
type Fig6Options struct {
	TPCCOps  int // default 60
	TPCHRows int // default 800
	TPCHRuns int // default 10
}

// fig6Warehouses is the TPC-C warehouse count of the Fig 6 workload.
const fig6Warehouses = 2

func (o *Fig6Options) defaults() {
	if o.TPCCOps == 0 {
		o.TPCCOps = 60
	}
	if o.TPCHRows == 0 {
		o.TPCHRows = 800
	}
	if o.TPCHRuns == 0 {
		o.TPCHRuns = 10
	}
}

// Fig6 reproduces §6.1: TPC-C and TPC-H Q1/Q9 against a Serverless
// deployment (separate SQL process; rows marshaled across the SQL/KV
// boundary) and a Traditional deployment (SQL colocated with KV). The
// expected shape: TPC-C and Q9 have similar CPU in both modes; Q1's
// full-scan aggregation costs ~2x+ more CPU in Serverless (the paper
// measures 2.3x).
func Fig6(opts Fig6Options) ([]Fig6Workload, *Table, error) {
	opts.defaults()
	ctx := context.Background()
	clock := timeutil.NewRealClock()

	type mode struct {
		name        string
		traditional bool
	}
	modes := []mode{{"serverless", false}, {"traditional", true}}

	// measure runs op against a fresh tenant on a fresh deployment of the
	// given mode and returns (total CPU consumed, latency histogram).
	measure := func(name string, traditional bool, setup func(workload.DB) error, op func(workload.DB) error, ops int) (time.Duration, metric.Summary, error) {
		srv, err := crdbserverless.NewBaseline(crdbserverless.Options{}, crdbserverless.Baseline{Traditional: traditional, NoPushdown: true})
		if err != nil {
			return 0, metric.Summary{}, err
		}
		defer srv.Close()
		node, err := newTenant(ctx, srv, name, 0)
		if err != nil {
			return 0, metric.Summary{}, err
		}
		sess := node.NewSession("bench")
		if err := setup(sess); err != nil {
			return 0, metric.Summary{}, err
		}
		before := cpuSpent(srv, node)
		hist := metric.NewHistogram()
		for i := 0; i < ops; i++ {
			start := clock.Now()
			if err := op(sess); err != nil {
				return 0, metric.Summary{}, err
			}
			hist.Record(clock.Since(start))
		}
		return cpuSpent(srv, node) - before, hist.Snapshot(), nil
	}

	var results []Fig6Workload
	// run measures one workload in both modes. factory builds a fresh
	// generator per mode (each mode has its own deployment and tenant).
	run := func(label string, ops int, factory func() (setup, op func(workload.DB) error)) error {
		r := Fig6Workload{Name: label}
		for _, m := range modes {
			setup, op := factory()
			cpu, lat, err := measure(fmt.Sprintf("%s-%s", label, m.name), m.traditional, setup, op, ops)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", label, m.name, err)
			}
			if m.traditional {
				r.TraditionalCPU = cpu
				r.TraditionalLat = lat
			} else {
				r.ServerlessCPU = cpu
				r.ServerlessLat = lat
			}
		}
		if r.TraditionalCPU > 0 {
			r.CPURatio = float64(r.ServerlessCPU) / float64(r.TraditionalCPU)
		}
		results = append(results, r)
		return nil
	}

	// TPC-C (OLTP).
	if err := run("tpcc", opts.TPCCOps, func() (func(workload.DB) error, func(workload.DB) error) {
		w := workload.NewTPCC(fig6Warehouses, 1)
		return func(db workload.DB) error { return w.Setup(ctx, db) },
			func(db workload.DB) error { return w.RunMix(ctx, db) }
	}); err != nil {
		return nil, nil, err
	}

	// TPC-H Q1 (full-scan aggregation).
	if err := run("tpch-q1", opts.TPCHRuns, func() (func(workload.DB) error, func(workload.DB) error) {
		h := workload.NewTPCH(opts.TPCHRows, 2)
		return func(db workload.DB) error { return h.Setup(ctx, db) },
			func(db workload.DB) error { _, err := h.Q1(ctx, db); return err }
	}); err != nil {
		return nil, nil, err
	}

	// TPC-H Q9 (index joins).
	if err := run("tpch-q9", opts.TPCHRuns, func() (func(workload.DB) error, func(workload.DB) error) {
		h := workload.NewTPCH(opts.TPCHRows, 3)
		return func(db workload.DB) error { return h.Setup(ctx, db) },
			func(db workload.DB) error { _, err := h.Q9(ctx, db); return err }
	}); err != nil {
		return nil, nil, err
	}

	table := &Table{
		Title: "Fig 6: CPU and latency, Serverless vs Traditional deployments",
		Columns: []string{"workload", "serverless CPU", "traditional CPU", "ratio",
			"srvless p50", "srvless p99", "trad p50", "trad p99"},
	}
	for _, r := range results {
		table.Rows = append(table.Rows, []string{
			r.Name,
			fmtDur(r.ServerlessCPU),
			fmtDur(r.TraditionalCPU),
			fmt.Sprintf("%.2fx", r.CPURatio),
			fmtDur(r.ServerlessLat.P50), fmtDur(r.ServerlessLat.P99),
			fmtDur(r.TraditionalLat.P50), fmtDur(r.TraditionalLat.P99),
		})
	}
	return results, table, nil
}
