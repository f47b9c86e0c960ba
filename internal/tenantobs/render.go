package tenantobs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"crdbserverless/internal/metric"
)

// This file renders the plane's two debug pages. Both are strictly
// deterministic: tenant rows come from a sorted snapshot, every top-k
// section breaks ties by ascending tenant name, and all numbers derive
// from the threaded clock — so same-seed simulated runs produce
// byte-identical pages, the property the determinism tests pin.

// row is one tenant's derived stats over the short burn window.
type row struct {
	name   string
	qps    float64
	p99    time.Duration
	ru     float64
	burn5  float64
	burn1h float64
	good5  float64
	obj    metric.Objective
}

// snapshotRows computes a row per seen tenant (overflow pseudo-tenant
// last), sorted by name.
func (p *Plane) snapshotRows(now time.Time) []row {
	p.mu.Lock()
	states := append([]*tenantState(nil), p.states...)
	overflow := p.overflow
	p.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].name < states[j].name })
	if overflow != nil {
		states = append(states, overflow)
	}
	rows := make([]row, 0, len(states))
	for _, st := range states {
		r := row{
			name:   st.name,
			qps:    st.win.Rate(now, metric.BurnShortWindow),
			p99:    st.win.Quantile(now, metric.BurnShortWindow, 0.99),
			burn5:  st.slo.BurnRate(now, metric.BurnShortWindow),
			burn1h: st.slo.BurnRate(now, metric.BurnLongWindow),
			good5:  st.slo.GoodFraction(now, metric.BurnShortWindow),
			obj:    st.slo.Objective(),
		}
		if g := p.ru.Peek(st.name); g != nil {
			r.ru = g.Value()
		}
		rows = append(rows, r)
	}
	return rows
}

// topBy returns the k highest rows by the given key, ties broken by
// ascending tenant name. The input order (name-sorted) makes the result
// fully deterministic.
func topBy(rows []row, k int, key func(row) float64) []row {
	out := append([]row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		ki, kj := key(out[i]), key(out[j])
		if ki != kj {
			return ki > kj
		}
		return out[i].name < out[j].name
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func writeRowHeader(b *strings.Builder) {
	fmt.Fprintf(b, "  %4s  %-24s %10s %10s %12s %8s %8s\n",
		"rank", "tenant", "qps", "p99", "ru", "burn5m", "burn1h")
}

func writeRow(b *strings.Builder, rank int, r row) {
	fmt.Fprintf(b, "  %4d  %-24s %10.2f %10v %12.1f %8.2f %8.2f\n",
		rank, r.name, r.qps, r.p99, r.ru, r.burn5, r.burn1h)
}

// WriteTenantz renders the /debug/tenantz page as of now: fleet summary
// plus top-k tenant tables by QPS, p99, RU, and 5m burn rate.
func (p *Plane) WriteTenantz(w io.Writer, now time.Time, topK int) error {
	if p == nil {
		_, err := io.WriteString(w, "tenant observability plane not configured\n")
		return err
	}
	if topK <= 0 {
		topK = 10
	}
	rows := p.snapshotRows(now)
	var b strings.Builder
	fmt.Fprintf(&b, "== tenantz @ %s ==\n", now.UTC().Format(time.RFC3339))
	fmt.Fprintf(&b, "tenants=%d cap=%d absorbed=%d window=%v\n",
		p.TenantCount(), p.max, p.Absorbed(), metric.BurnShortWindow)
	sections := []struct {
		title string
		key   func(row) float64
	}{
		{"qps", func(r row) float64 { return r.qps }},
		{"p99", func(r row) float64 { return r.p99.Seconds() }},
		{"ru", func(r row) float64 { return r.ru }},
		{"burn rate (5m)", func(r row) float64 { return r.burn5 }},
	}
	for _, sec := range sections {
		fmt.Fprintf(&b, "\n-- top %d by %s --\n", topK, sec.title)
		writeRowHeader(&b)
		for i, r := range topBy(rows, topK, sec.key) {
			writeRow(&b, i+1, r)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteTenant renders the per-tenant drill-down for /debug/tenantz?tenant=.
func (p *Plane) WriteTenant(w io.Writer, name string, now time.Time) error {
	st := p.lookup(name)
	if st == nil {
		_, err := fmt.Fprintf(w, "tenant %q: no data recorded\n", name)
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== tenant %s @ %s ==\n", st.name, now.UTC().Format(time.RFC3339))
	fmt.Fprintf(&b, "objective: %v\n", st.slo.Objective())
	fmt.Fprintf(&b, "qps(5m)=%.2f p50(5m)=%v p99(5m)=%v\n",
		st.win.Rate(now, metric.BurnShortWindow),
		st.win.Quantile(now, metric.BurnShortWindow, 0.50),
		st.win.Quantile(now, metric.BurnShortWindow, 0.99))
	fmt.Fprintf(&b, "good(5m)=%.4f burn(5m)=%.2f burn(1h)=%.2f\n",
		st.slo.GoodFraction(now, metric.BurnShortWindow),
		st.slo.BurnRate(now, metric.BurnShortWindow),
		st.slo.BurnRate(now, metric.BurnLongWindow))
	counter := counterValue
	fmt.Fprintf(&b, "conns=%d queries ok=%d error=%d retries=%d batches=%d ru=%.1f\n",
		counter(p.conns, st.name),
		counter(p.queries, st.name, "ok"),
		counter(p.queries, st.name, "error"),
		counter(p.retries, st.name),
		counter(p.batches, st.name),
		p.RU(st.name))
	fmt.Fprintf(&b, "commits: one_phase=%d two_phase=%d read_only=%d commit_retries=%d\n",
		counter(p.commits, st.name, "one_phase"),
		counter(p.commits, st.name, "two_phase"),
		counter(p.commits, st.name, "read_only"),
		counter(p.commitRetry, st.name))
	if h := p.admWait.Peek(st.name); h != nil {
		s := h.Snapshot()
		fmt.Fprintf(&b, "admission wait: n=%d p50=%v p99=%v\n", s.Count, s.P50, s.P99)
	}
	fmt.Fprintf(&b, "scale events: up=%d down=%d suspend=%d\n",
		counter(p.scaleEvents, st.name, "up"),
		counter(p.scaleEvents, st.name, "down"),
		counter(p.scaleEvents, st.name, "suspend"))
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteSLO renders the /debug/slo page: every tenant's objective and
// multi-window burn rates, worst burners first.
func (p *Plane) WriteSLO(w io.Writer, now time.Time) error {
	if p == nil {
		_, err := io.WriteString(w, "tenant observability plane not configured\n")
		return err
	}
	rows := p.snapshotRows(now)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].burn5 != rows[j].burn5 {
			return rows[i].burn5 > rows[j].burn5
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "== slo @ %s ==\n", now.UTC().Format(time.RFC3339))
	fmt.Fprintf(&b, "tenants=%d windows=%v/%v\n", len(rows), metric.BurnShortWindow, metric.BurnLongWindow)
	fmt.Fprintf(&b, "  %-24s %16s %10s %8s %8s\n", "tenant", "objective", "good5m", "burn5m", "burn1h")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %16v %10.4f %8.2f %8.2f\n",
			r.name, r.obj, r.good5, r.burn5, r.burn1h)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
