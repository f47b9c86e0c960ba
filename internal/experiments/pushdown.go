package experiments

import (
	"context"
	"fmt"
	"time"

	"crdbserverless"
	"crdbserverless/internal/workload"
)

// PushdownResult quantifies the §8 future-work push-down in a Serverless
// (separate-process) deployment, on a selective full scan and on TPC-H Q1.
type PushdownResult struct {
	// PenaltyNoPushdown and PenaltyWithPushdown are the selective scan's
	// Serverless/traditional CPU ratios — filter push-down should close most
	// of the gap.
	PenaltyNoPushdown   float64
	PenaltyWithPushdown float64
	// Q1PenaltyNoPushdown and Q1PenaltyWithPushdown are Q1's — aggregation
	// push-down sends a partial row per group instead of every row across
	// the boundary, which §6.1.2 names as the source of Q1's 2.3x.
	Q1PenaltyNoPushdown   float64
	Q1PenaltyWithPushdown float64
}

// AblationFilterPushdown measures a selective filtered full scan (no usable
// index) and TPC-H Q1 (a full-scan aggregation) in four configurations:
// traditional (colocated) with and without push-down, Serverless without
// push-down (every row is marshaled to the SQL process and filtered and
// aggregated there), and Serverless with push-down (the KV node filters, and
// aggregates Q1's rows into a partial row per group). The paper's §8 argues
// push-down "would bring efficiency gains"; this quantifies them on the
// simulated substrate. Penalties are against traditional without push-down,
// the paper's baseline.
func AblationFilterPushdown(rows, runs int) (*PushdownResult, *Table, error) {
	if rows <= 0 {
		rows = 1000
	}
	if runs <= 0 {
		runs = 8
	}
	ctx := context.Background()

	// measure returns the CPU per run of the selective scan and of Q1.
	measure := func(b crdbserverless.Baseline) (scan, q1 time.Duration, err error) {
		srv, err := crdbserverless.NewBaseline(crdbserverless.Options{}, b)
		if err != nil {
			return 0, 0, err
		}
		defer srv.Close()
		node, err := newTenant(ctx, srv, "pushdown", 0)
		if err != nil {
			return 0, 0, err
		}
		sess := node.NewSession("bench")
		gen := workload.NewTPCH(rows, 31)
		if err := gen.Setup(ctx, sess); err != nil {
			return 0, 0, err
		}
		cpu := func(query func() error) (time.Duration, error) {
			before := cpuSpent(srv, node)
			for i := 0; i < runs; i++ {
				if err := query(); err != nil {
					return 0, err
				}
			}
			return (cpuSpent(srv, node) - before) / time.Duration(runs), nil
		}
		// A ~2% selective predicate with no usable index.
		if scan, err = cpu(func() error {
			_, err := sess.Execute(ctx,
				"SELECT l_key, l_price FROM lineitem WHERE l_shipdate >= 100 AND l_shipdate < 150")
			return err
		}); err != nil {
			return 0, 0, err
		}
		q1, err = cpu(func() error { _, err := gen.Q1(ctx, sess); return err })
		return scan, q1, err
	}

	noPush, q1NoPush, err := measure(crdbserverless.Baseline{NoPushdown: true})
	if err != nil {
		return nil, nil, err
	}
	withPush, q1Push, err := measure(crdbserverless.Baseline{})
	if err != nil {
		return nil, nil, err
	}
	trad, q1Trad, err := measure(crdbserverless.Baseline{Traditional: true, NoPushdown: true})
	if err != nil {
		return nil, nil, err
	}
	tradPush, q1TradPush, err := measure(crdbserverless.Baseline{Traditional: true})
	if err != nil {
		return nil, nil, err
	}

	ratio := func(a, b time.Duration) float64 {
		if b <= 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	res := &PushdownResult{
		PenaltyNoPushdown:     ratio(noPush, trad),
		PenaltyWithPushdown:   ratio(withPush, trad),
		Q1PenaltyNoPushdown:   ratio(q1NoPush, q1Trad),
		Q1PenaltyWithPushdown: ratio(q1Push, q1Trad),
	}
	x := func(r float64) string { return fmt.Sprintf("%.2fx", r) }
	table := &Table{
		Title:   "Extension (§8): filter and aggregation push-down on full scans",
		Columns: []string{"query", "configuration", "CPU/query", "vs traditional"},
		Rows: [][]string{
			{"selective scan", "traditional (colocated)", fmtDur(trad), "1.00x"},
			{"selective scan", "traditional + push-down", fmtDur(tradPush), x(ratio(tradPush, trad))},
			{"selective scan", "serverless, no push-down", fmtDur(noPush), x(res.PenaltyNoPushdown)},
			{"selective scan", "serverless, push-down", fmtDur(withPush), x(res.PenaltyWithPushdown)},
			{"selective scan", "serverless/traditional, both pushed", x(ratio(withPush, tradPush)), ""},
			{"Q1", "traditional (colocated)", fmtDur(q1Trad), "1.00x"},
			{"Q1", "traditional + push-down", fmtDur(q1TradPush), x(ratio(q1TradPush, q1Trad))},
			{"Q1", "serverless, no push-down", fmtDur(q1NoPush), x(res.Q1PenaltyNoPushdown)},
			{"Q1", "serverless, push-down", fmtDur(q1Push), x(res.Q1PenaltyWithPushdown)},
			{"Q1", "serverless/traditional, both pushed", x(ratio(q1Push, q1TradPush)), ""},
		},
	}
	return res, table, nil
}
