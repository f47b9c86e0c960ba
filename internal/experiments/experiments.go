// Package experiments reproduces every table and figure of the paper's
// evaluation (§6). Each experiment is a function returning a structured
// result plus a text rendering that mirrors the paper's rows/series;
// cmd/repro prints them and bench_test.go wraps them as benchmarks.
//
// Absolute numbers differ from the paper's GCP testbed — the substrate here
// is the simulator DESIGN.md §1 describes — but each experiment preserves
// the paper's shape: who wins, by roughly what factor, and where the
// crossovers fall.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"crdbserverless"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/server"
)

// Table renders experiment output as aligned columns.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// newTenant provisions a tenant on srv and assigns it a SQL pod in srv's
// first region. The figures drive the pod's node through in-process sessions
// (server.Session), so their statements take the product's metering and
// quota path; quotaVCPUs > 0 limits the tenant's eCPU.
func newTenant(ctx context.Context, srv *crdbserverless.Serverless, name string, quotaVCPUs float64) (*server.SQLNode, error) {
	t, err := srv.CreateTenant(ctx, name, crdbserverless.TenantOptions{QuotaVCPUs: quotaVCPUs})
	if err != nil {
		return nil, err
	}
	pod, err := srv.Orchestrator(t.Regions[0]).AssignPod(ctx, t)
	if err != nil {
		return nil, err
	}
	return pod.Node, nil
}

// cpuSpent is the CPU a tenant's work has cost so far: the busy time of
// every KV node plus the measured SQL CPU of the tenant's node.
func cpuSpent(srv *crdbserverless.Serverless, node *server.SQLNode) time.Duration {
	return kvBusy(srv.Cluster()) + time.Duration(node.Executor().SQLCPUSeconds()*float64(time.Second))
}

// kvBusy sums the busy CPU time of the cluster's KV nodes.
func kvBusy(c *kvserver.Cluster) time.Duration {
	var d time.Duration
	for _, n := range c.Nodes() {
		d += n.CPUBusy()
	}
	return d
}

// fmtDur renders a duration with 3 significant-ish digits.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}
