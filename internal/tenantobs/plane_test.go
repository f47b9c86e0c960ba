package tenantobs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/timeutil"
)

func newTestPlane(max int) (*Plane, *timeutil.ManualClock, *metric.Registry) {
	clock := timeutil.NewManualClock(time.Unix(1_000_000, 0))
	r := metric.NewRegistry()
	p := New(Config{Registry: r, Clock: clock, MaxTenants: max})
	return p, clock, r
}

func TestNilPlaneIsInert(t *testing.T) {
	var p *Plane
	p.RegisterTenant(2, "alpha")
	p.ConnOpened("alpha")
	p.QueryDone(2, time.Millisecond, false)
	p.TxnRetry(2)
	p.TxnCommit(2, "one_phase")
	p.TxnCommitRetry(2)
	p.Batch(2)
	p.AdmissionWait(2, 0)
	p.AddRU(2, 1)
	p.ScaleEvent("alpha", "up")
	if p.TenantCount() != 0 || p.Absorbed() != 0 || p.RU("alpha") != 0 ||
		p.TxnCommits("alpha", "one_phase") != 0 || p.TxnCommitRetries("alpha") != 0 {
		t.Fatal("nil plane reported data")
	}
	var b strings.Builder
	if err := p.WriteTenantz(&b, time.Time{}, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteSLO(&b, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteTenant(&b, "alpha", time.Time{}); err != nil {
		t.Fatal(err)
	}
}

func TestPlaneRecordsPerTenant(t *testing.T) {
	p, clock, r := newTestPlane(0)
	p.RegisterTenant(2, "alpha")
	p.RegisterTenant(3, "beta")
	p.ConnOpened("alpha")
	for i := 0; i < 100; i++ {
		p.QueryDone(2, 10*time.Millisecond, false)
		clock.Advance(time.Second)
	}
	p.QueryDone(3, 500*time.Millisecond, true)
	p.TxnRetry(3)
	p.TxnCommit(3, "one_phase")
	p.TxnCommit(3, "two_phase")
	p.TxnCommit(3, "two_phase")
	p.TxnCommitRetry(3)
	p.Batch(2)
	p.AdmissionWait(2, 3*time.Millisecond)
	p.AddRU(2, 42.5)
	p.ScaleEvent("beta", "suspend")

	now := clock.Now()
	if got := p.Rate("alpha", now, metric.BurnShortWindow); got == 0 {
		t.Fatal("alpha qps = 0, want > 0")
	}
	if got := p.BurnRate("beta", now, metric.BurnShortWindow); got == 0 {
		t.Fatal("beta burn rate = 0, want > 0 (its one query errored)")
	}
	if got := p.BurnRate("alpha", now, metric.BurnShortWindow); got != 0 {
		t.Fatalf("alpha burn rate = %v, want 0", got)
	}
	if got := p.RU("alpha"); got != 42.5 {
		t.Fatalf("alpha RU = %v, want 42.5", got)
	}
	if one, two, ro, retries := p.TxnCommits("beta", "one_phase"), p.TxnCommits("beta", "two_phase"),
		p.TxnCommits("beta", "read_only"), p.TxnCommitRetries("beta"); one != 1 || two != 2 || ro != 0 || retries != 1 {
		t.Fatalf("beta commits one/two/read-only = %d/%d/%d, retries %d; want 1/2/0, 1", one, two, ro, retries)
	}

	// Signals keyed by ID and by name converge on the same labeled series.
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`proxy_tenant_conns{tenant="alpha"} 1`,
		`sql_tenant_queries{result="ok",tenant="alpha"} 100`,
		`sql_tenant_queries{result="error",tenant="beta"} 1`,
		`txn_tenant_retries{tenant="beta"} 1`,
		`txn_tenant_commits{result="two_phase",tenant="beta"} 2`,
		`txn_tenant_commit_retries{tenant="beta"} 1`,
		`dist_tenant_batches{tenant="alpha"} 1`,
		`tenantcost_tenant_ru{tenant="alpha"} 42.5`,
		`autoscaler_tenant_scale_events{result="suspend",tenant="beta"} 1`,
		`admission_tenant_wait_count{tenant="alpha"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPlaneUnknownIDGetsFallbackName(t *testing.T) {
	p, clock, _ := newTestPlane(0)
	p.QueryDone(7, time.Millisecond, false)
	if got := p.Rate("tenant-7", clock.Now(), metric.BurnShortWindow); got == 0 {
		t.Fatal("unregistered tenant not recorded under fallback name")
	}
	// A later registration binds the ID to the existing fallback state.
	p.RegisterTenant(7, "tenant-7")
	if got := p.TenantCount(); got != 1 {
		t.Fatalf("TenantCount = %d, want 1", got)
	}
}

// TestPlaneCardinalityGuard registers cap+1 tenants and checks the excess
// lands in the __overflow__ pseudo-tenant on every surface: state count,
// labeled series, and the tenantz page.
func TestPlaneCardinalityGuard(t *testing.T) {
	const max = 8
	p, clock, r := newTestPlane(max)
	for i := 0; i < max+1; i++ {
		id := keys.TenantID(i + 2)
		p.RegisterTenant(id, fmt.Sprintf("tenant-%04d", i))
		p.QueryDone(id, time.Millisecond, false)
	}
	if got := p.TenantCount(); got != max {
		t.Fatalf("TenantCount = %d, want cap %d", got, max)
	}
	if got := p.Absorbed(); got != 1 {
		t.Fatalf("Absorbed = %d, want 1", got)
	}
	// Re-recording for an absorbed tenant reuses the overflow state rather
	// than absorbing again.
	p.QueryDone(keys.TenantID(max+2), time.Millisecond, false)
	if got := p.Absorbed(); got != 1 {
		t.Fatalf("Absorbed after re-record = %d, want still 1", got)
	}
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `sql_tenant_queries{result="ok",tenant="__overflow__"} 2`) {
		t.Fatalf("overflow series missing:\n%s", b.String())
	}
	b.Reset()
	if err := p.WriteTenantz(&b, clock.Now(), max+4); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	if !strings.Contains(page, "absorbed=1") || !strings.Contains(page, "__overflow__") {
		t.Fatalf("tenantz page missing overflow accounting:\n%s", page)
	}
}

// TestPlaneRenderDeterministic: identical recording sequences produce
// byte-identical tenantz, slo, drill-down, and exposition pages — including
// the cardinality-overflow path (cap 4 < 10 tenants).
func TestPlaneRenderDeterministic(t *testing.T) {
	render := func() string {
		p, clock, r := newTestPlane(4)
		for i := 0; i < 10; i++ {
			id := keys.TenantID(i + 2)
			p.RegisterTenant(id, fmt.Sprintf("tenant-%04d", i))
		}
		for tick := 0; tick < 30; tick++ {
			for i := 0; i < 10; i++ {
				id := keys.TenantID(i + 2)
				lat := time.Duration(i+1) * time.Millisecond * time.Duration(tick%3+1)
				p.QueryDone(id, lat, (tick+i)%17 == 0)
				p.AddRU(id, float64(i))
			}
			clock.Advance(5 * time.Second)
		}
		now := clock.Now()
		var b strings.Builder
		if err := p.WriteTenantz(&b, now, 5); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteSLO(&b, now); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteTenant(&b, "tenant-0001", now); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteTenant(&b, "no-such-tenant", now); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteExposition(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := render()
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("render %d differs from first:\n--- first\n%s\n--- got\n%s", i, first, got)
		}
	}
	for _, want := range []string{"-- top 5 by qps --", "-- top 5 by burn rate (5m) --", "== slo", "== tenant tenant-0001", `no data recorded`} {
		if !strings.Contains(first, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, first)
		}
	}
}

// TestPlaneTopKTieBreak: equal stats order by ascending tenant name.
func TestPlaneTopKTieBreak(t *testing.T) {
	p, clock, _ := newTestPlane(0)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		p.RegisterTenant(0, name)
	}
	// Identical traffic for all three.
	for _, name := range []string{"zeta", "alpha", "mid"} {
		p.ConnOpened(name)
	}
	var b strings.Builder
	if err := p.WriteTenantz(&b, clock.Now(), 3); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	ia, im, iz := strings.Index(page, "alpha"), strings.Index(page, "mid"), strings.Index(page, "zeta")
	if !(ia < im && im < iz) {
		t.Fatalf("tie-break not by ascending name (alpha@%d mid@%d zeta@%d):\n%s", ia, im, iz, page)
	}
}
