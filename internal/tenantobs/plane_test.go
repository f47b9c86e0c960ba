package tenantobs

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
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
	h := p.RegisterTenant(2, "alpha")
	h.ConnOpened()
	p.Tenant(2).QueryDone(time.Millisecond, false)
	p.Tenant(2).TxnRetry()
	p.Tenant(2).TxnCommit("one_phase")
	p.Tenant(2).TxnCommitRetry()
	p.Tenant(2).Batch()
	p.Tenant(2).AdmissionWait(0)
	p.Tenant(2).AddRU(1)
	h.ScaleEvent("up")
	if h != nil || p.Absorbed() != 0 || h.RU() != 0 || h.P99(time.Time{}, time.Minute) != 0 ||
		h.BurnRate(time.Time{}, time.Minute) != 0 || h.TxnCommits("one_phase") != 0 || h.TxnCommitRetries() != 0 {
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
	alpha := p.RegisterTenant(2, "alpha")
	beta := p.RegisterTenant(3, "beta")
	alpha.ConnOpened()
	for i := 0; i < 100; i++ {
		p.Tenant(2).QueryDone(10*time.Millisecond, false)
		clock.Advance(time.Second)
	}
	p.Tenant(3).QueryDone(500*time.Millisecond, true)
	p.Tenant(3).TxnRetry()
	p.Tenant(3).TxnCommit("one_phase")
	p.Tenant(3).TxnCommit("two_phase")
	p.Tenant(3).TxnCommit("two_phase")
	p.Tenant(3).TxnCommitRetry()
	p.Tenant(2).Batch()
	p.Tenant(2).AdmissionWait(3 * time.Millisecond)
	p.Tenant(2).AddRU(42.5)
	beta.ScaleEvent("suspend")

	now := clock.Now()
	if got := p.rate("alpha", now, metric.BurnShortWindow); got == 0 {
		t.Fatal("alpha qps = 0, want > 0")
	}
	if got := beta.BurnRate(now, metric.BurnShortWindow); got == 0 {
		t.Fatal("beta burn rate = 0, want > 0 (its one query errored)")
	}
	if got := alpha.BurnRate(now, metric.BurnShortWindow); got != 0 {
		t.Fatalf("alpha burn rate = %v, want 0", got)
	}
	if got := alpha.P99(now, metric.BurnShortWindow); got == 0 {
		t.Fatal("alpha p99 = 0, want > 0")
	}
	if got := alpha.RU(); got != 42.5 {
		t.Fatalf("alpha RU = %v, want 42.5", got)
	}
	if one, two, ro, retries := beta.TxnCommits("one_phase"), beta.TxnCommits("two_phase"),
		beta.TxnCommits("read_only"), beta.TxnCommitRetries(); one != 1 || two != 2 || ro != 0 || retries != 1 {
		t.Fatalf("beta commits one/two/read-only = %d/%d/%d, retries %d; want 1/2/0, 1", one, two, ro, retries)
	}

	// Signals through the registered handle and through Tenant(id) converge
	// on the same labeled series.
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

// TestPlaneOneRingServesSLO: a tenant keeps one window ring, and rate,
// good fraction and burn all read it. Of 1000 queries, 5 errored and 5
// missed the 100ms threshold: good(5m) = 0.99 and burn(5m) = 0.01 / 0.001 = 10.
func TestPlaneOneRingServesSLO(t *testing.T) {
	rings := 0
	typ := reflect.TypeOf(Tenant{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type == reflect.TypeOf((*metric.Windowed)(nil)) {
			rings++
		}
	}
	if rings != 1 {
		t.Fatalf("Tenant holds %d window rings, want 1", rings)
	}

	p, clock, _ := newTestPlane(0)
	alpha := p.RegisterTenant(2, "alpha")
	for i := 0; i < 1000; i++ {
		lat, errored := 10*time.Millisecond, false
		switch {
		case i < 5:
			errored = true
		case i < 10:
			lat = 150 * time.Millisecond
		}
		p.Tenant(2).QueryDone(lat, errored)
	}
	now := clock.Now()
	if got, want := p.rate("alpha", now, metric.BurnShortWindow), 1000/metric.BurnShortWindow.Seconds(); got != want {
		t.Fatalf("qps(5m) = %v, want %v (each query recorded once)", got, want)
	}
	rows := p.snapshot(now).rows
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if got := rows[0].good5; got != 0.99 {
		t.Fatalf("good(5m) = %v, want 0.99", got)
	}
	for _, burn := range []float64{rows[0].burn5, alpha.BurnRate(now, metric.BurnShortWindow)} {
		if burn < 9.99 || burn > 10.01 {
			t.Fatalf("burn(5m) = %v, want ~10", burn)
		}
	}
	var b strings.Builder
	if err := p.WriteTenant(&b, "alpha", now); err != nil {
		t.Fatal(err)
	}
	if want := "good(5m)=0.9900 burn(5m)=10.00 burn(1h)=10.00"; !strings.Contains(b.String(), want) {
		t.Fatalf("drill-down missing %q:\n%s", want, b.String())
	}
}

func TestPlaneUnknownIDGetsFallbackName(t *testing.T) {
	p, clock, _ := newTestPlane(0)
	p.Tenant(7).QueryDone(time.Millisecond, false)
	if got := p.rate("tenant-7", clock.Now(), metric.BurnShortWindow); got == 0 {
		t.Fatal("unregistered tenant not recorded under fallback name")
	}
	// A later registration returns the existing fallback state.
	if p.RegisterTenant(7, "seven") != p.Tenant(7) {
		t.Fatal("registering a fallback-named ID made a second state")
	}
	// The drill-down finds it by its registered name too.
	if p.lookup("seven") != p.Tenant(7) {
		t.Fatal("a fallback-named state is not found by its registered name")
	}
	if got := p.snapshot(clock.Now()).tenants; got != 1 {
		t.Fatalf("tenants = %d, want 1", got)
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
		p.Tenant(id).QueryDone(time.Millisecond, false)
	}
	if got := p.snapshot(clock.Now()).tenants; got != max {
		t.Fatalf("tenants = %d, want cap %d", got, max)
	}
	if got := p.Absorbed(); got != 1 {
		t.Fatalf("Absorbed = %d, want 1", got)
	}
	// Re-recording for an absorbed tenant reuses the overflow state rather
	// than absorbing again.
	p.Tenant(keys.TenantID(max+2)).QueryDone(time.Millisecond, false)
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

// The overflow label names the overflow state, never a tenant. A tenant
// registered under it gets that state: at the cap this absorbs no tenant, so
// tenantz's absorbed= counts only tenants, and below the cap it makes no
// state of its own, whose series the overflow state's would share.
func TestPlaneOverflowLabelIsNotATenant(t *testing.T) {
	const max = 2
	p, clock, r := newTestPlane(max)
	below := p.RegisterTenant(100, OverflowLabelValue)
	if got := p.snapshot(clock.Now()).tenants; got != 0 {
		t.Fatalf("below the cap: tenants = %d after registering the overflow label, want 0", got)
	}
	if got := p.Absorbed(); got != 0 {
		t.Fatalf("below the cap: Absorbed = %d after registering the overflow label, want 0", got)
	}
	for i := 0; i < max+2; i++ {
		p.RegisterTenant(keys.TenantID(i+2), fmt.Sprintf("tenant-%d", i))
	}
	if got := p.Absorbed(); got != 2 {
		t.Fatalf("Absorbed = %d with %d tenants past a cap of %d, want 2", got, max+2, max)
	}
	at := p.RegisterTenant(101, OverflowLabelValue)
	if at != below || at != p.Tenant(keys.TenantID(max+3)) {
		t.Fatal("the overflow label and an absorbed tenant resolve to different states")
	}
	if got := p.Absorbed(); got != 2 {
		t.Fatalf("at the cap: Absorbed = %d after registering the overflow label, want 2", got)
	}
	at.QueryDone(time.Millisecond, false)
	p.Tenant(keys.TenantID(max+2)).QueryDone(time.Millisecond, false)
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	if want := `sql_tenant_queries{result="ok",tenant="__overflow__"} 2`; !strings.Contains(b.String(), want) {
		t.Fatalf("exposition lacks %q:\n%s", want, b.String())
	}
	b.Reset()
	if err := p.WriteTenantz(&b, clock.Now(), max+4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "absorbed=2") {
		t.Fatalf("tenantz page does not read absorbed=2:\n%s", b.String())
	}
}

// At the cap, /debug/tenantz and /debug/slo both count the tenants with a
// state of their own: the __overflow__ row is not a tenant.
func TestPlanePagesCountTenantsAlike(t *testing.T) {
	const max = 3
	p, clock, _ := newTestPlane(max)
	for i := 0; i < max+2; i++ {
		p.RegisterTenant(keys.TenantID(i+2), fmt.Sprintf("tenant-%d", i)).QueryDone(time.Millisecond, false)
	}
	var tenantz, slo strings.Builder
	if err := p.WriteTenantz(&tenantz, clock.Now(), 10); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteSLO(&slo, clock.Now()); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("tenants=%d ", max)
	for page, text := range map[string]string{"tenantz": tenantz.String(), "slo": slo.String()} {
		if !strings.Contains(text, "__overflow__") {
			t.Fatalf("%s page has no overflow row:\n%s", page, text)
		}
		if !strings.Contains(text, want) {
			t.Errorf("%s header does not read %q:\n%s", page, want, text)
		}
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
				p.Tenant(id).QueryDone(lat, (tick+i)%17 == 0)
				p.Tenant(id).AddRU(float64(i))
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
	// Identical traffic for all three.
	for i, name := range []string{"zeta", "alpha", "mid"} {
		p.RegisterTenant(keys.TenantID(i+2), name).ConnOpened()
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

// rate returns the tenant's query rate (QPS) over the trailing span, or 0
// for an unknown tenant.
func (p *Plane) rate(name string, now time.Time, span time.Duration) float64 {
	st := p.lookup(name)
	if st == nil {
		return 0
	}
	return st.win.Rate(now, span)
}

// Handles are resolved and written from many goroutines while the pages
// render: a first signal of a kind stores its child in the handle, which a
// concurrent first signal of the same kind may find or store again, and
// rendering reads the registry under the plane lock the signals never take.
func TestTenantHandleConcurrentSignals(t *testing.T) {
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	p := New(Config{Registry: metric.NewRegistry(), Clock: clock, MaxTenants: 4})
	const writers, signals = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < signals; i++ {
				// Six tenants against a cap of four: two share the overflow
				// handle.
				id := keys.TenantID(2 + (w+i)%6)
				h := p.RegisterTenant(id, fmt.Sprintf("t%d", id))
				h.QueryDone(time.Millisecond, i%5 == 0)
				h.Batch()
				h.AdmissionWait(0)
				h.AddRU(1)
				h.TxnCommit(commitPaths[i%len(commitPaths)])
				h.TxnRetry()
				h.TxnCommitRetry()
				h.ScaleEvent([...]string{"up", "down", "suspend"}[i%3])
				h.ConnOpened()
			}
		}(w)
	}
	done := make(chan struct{})
	rendered := make(chan struct{})
	go func() {
		defer close(rendered)
		for {
			select {
			case <-done:
				return
			default:
			}
			var b strings.Builder
			if err := p.WriteTenantz(&b, clock.Now(), 3); err != nil {
				t.Error(err)
			}
			if err := p.WriteTenant(&b, "t2", clock.Now()); err != nil {
				t.Error(err)
			}
			if err := p.WriteSLO(&b, clock.Now()); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	close(done)
	<-rendered
	// Which four tenants got series of their own depends on arrival order;
	// the overflow handle counts the other two.
	var total int64
	seen := map[*Tenant]bool{}
	for id := keys.TenantID(2); id < 8; id++ {
		if h := p.Tenant(id); !seen[h] {
			seen[h] = true
			total += h.TxnCommitRetries()
		}
	}
	if snap := p.snapshot(clock.Now()); total != writers*signals || snap.tenants != 4 || snap.absorbed != 2 {
		t.Fatalf("commit retries %d, tenants %d, absorbed %d; want %d, 4, 2", total, snap.tenants, snap.absorbed, writers*signals)
	}
}
