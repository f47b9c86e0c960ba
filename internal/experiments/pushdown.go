package experiments

import (
	"context"
	"fmt"
	"time"

	"crdbserverless/internal/sql"
	"crdbserverless/internal/workload"
)

// PushdownResult quantifies the §8 future-work row-filter push-down on a
// selective full-scan query, in a Serverless (separate-process) deployment.
type PushdownResult struct {
	// PenaltyNoPushdown and PenaltyWithPushdown are the Serverless/CPU
	// ratios vs traditional — push-down should close most of the gap for
	// selective scans.
	PenaltyNoPushdown   float64
	PenaltyWithPushdown float64
}

// AblationFilterPushdown measures a selective filtered full scan (no usable
// index) in three configurations: traditional (colocated), Serverless
// without push-down (every row is marshaled to the SQL process and filtered
// there), and Serverless with push-down (the KV node filters first). The
// paper's §8 argues push-down "would bring efficiency gains"; this quantifies
// them on the simulated substrate.
func AblationFilterPushdown(rows, runs int) (*PushdownResult, *Table, error) {
	if rows <= 0 {
		rows = 1000
	}
	if runs <= 0 {
		runs = 8
	}
	ctx := context.Background()

	measure := func(cfg sql.ExecutorConfig) (time.Duration, error) {
		tb, err := newTestbed(testbedOptions{kvNodes: 3, vcpus: 8})
		if err != nil {
			return 0, err
		}
		defer tb.close()
		h, err := tb.newTenantCfg(ctx, "pushdown", cfg, 0)
		if err != nil {
			return 0, err
		}
		sess := h.session()
		gen := workload.NewTPCH(rows, 31)
		if err := gen.Setup(ctx, sess); err != nil {
			return 0, err
		}
		var kvBefore time.Duration
		for _, n := range tb.cluster.Nodes() {
			kvBefore += n.CPUBusy()
		}
		sqlBefore := h.exec.SQLCPUSeconds()
		// A ~2% selective predicate with no usable index.
		for i := 0; i < runs; i++ {
			if _, err := sess.Execute(ctx,
				"SELECT l_key, l_price FROM lineitem WHERE l_shipdate >= 100 AND l_shipdate < 150"); err != nil {
				return 0, err
			}
		}
		var kvAfter time.Duration
		for _, n := range tb.cluster.Nodes() {
			kvAfter += n.CPUBusy()
		}
		total := (kvAfter - kvBefore) +
			time.Duration((h.exec.SQLCPUSeconds()-sqlBefore)*float64(time.Second))
		return total / time.Duration(runs), nil
	}

	noPush, err := measure(sql.ExecutorConfig{Colocated: false})
	if err != nil {
		return nil, nil, err
	}
	withPush, err := measure(sql.ExecutorConfig{Colocated: false, FilterPushdown: true})
	if err != nil {
		return nil, nil, err
	}
	trad, err := measure(sql.ExecutorConfig{Colocated: true})
	if err != nil {
		return nil, nil, err
	}
	tradPush, err := measure(sql.ExecutorConfig{Colocated: true, FilterPushdown: true})
	if err != nil {
		return nil, nil, err
	}

	res := &PushdownResult{}
	if trad > 0 {
		res.PenaltyNoPushdown = float64(noPush) / float64(trad)
		res.PenaltyWithPushdown = float64(withPush) / float64(trad)
	}
	// The like-for-like comparison: both deployments filtering at the data.
	likeForLike := 0.0
	if tradPush > 0 {
		likeForLike = float64(withPush) / float64(tradPush)
	}
	table := &Table{
		Title:   "Extension (§8): row-filter push-down on a selective full scan",
		Columns: []string{"configuration", "CPU/query", "vs traditional"},
		Rows: [][]string{
			{"traditional (colocated)", fmtDur(trad), "1.00x"},
			{"traditional + push-down", fmtDur(tradPush), fmt.Sprintf("%.2fx", float64(tradPush)/float64(trad))},
			{"serverless, no push-down", fmtDur(noPush), fmt.Sprintf("%.2fx", res.PenaltyNoPushdown)},
			{"serverless, push-down", fmtDur(withPush), fmt.Sprintf("%.2fx", res.PenaltyWithPushdown)},
			{"serverless/traditional, both pushed", fmt.Sprintf("%.2fx", likeForLike), ""},
		},
	}
	return res, table, nil
}
