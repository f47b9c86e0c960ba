package metric

import (
	"sort"
	"strings"
	"testing"
	"time"
)

// buildExpositionRegistry registers one metric of every exposable type.
func buildExpositionRegistry() *Registry {
	r := NewRegistry()
	r.NewCounter("proxy.requests").Inc(7)
	g := &Gauge{}
	r.MustRegister("kv.cpu_load", g)
	g.Add(0.625)
	h := NewHistogram()
	r.MustRegister("sql.exec_latency", h)
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	cv := r.NewCounterVec("proxy.tenant_conns", "tenant")
	cv.With("beta").Inc(3)
	cv.With("alpha").Inc(9)
	return r
}

// TestExpositionCoversEveryRegisteredMetric is the completeness contract:
// every name in the registry appears in the exposed page, in the
// registry's deterministic sorted iteration order.
func TestExpositionCoversEveryRegisteredMetric(t *testing.T) {
	r := buildExpositionRegistry()
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	names := r.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Registry.Names() not sorted: %v", names)
	}
	lastIdx := -1
	for _, name := range names {
		en := expositionName(name)
		idx := strings.Index(out, "# TYPE "+en+" ")
		if idx < 0 {
			t.Fatalf("metric %q (exposed as %q) missing from exposition:\n%s", name, en, out)
		}
		if idx <= lastIdx {
			t.Fatalf("metric %q exposed out of sorted order", name)
		}
		lastIdx = idx
	}
}

func TestExpositionFormatPerType(t *testing.T) {
	r := buildExpositionRegistry()
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE proxy_requests counter\nproxy_requests 7\n",
		"# TYPE kv_cpu_load gauge\nkv_cpu_load 0.625\n",
		"# TYPE sql_exec_latency histogram\n",
		`sql_exec_latency_bucket{le="0.001"} `,
		`sql_exec_latency_bucket{le="0.064"} `,
		`sql_exec_latency_bucket{le="+Inf"} 100` + "\n",
		"sql_exec_latency_sum 5.05\n",
		"sql_exec_latency_count 100\n",
		"# TYPE proxy_tenant_conns counter\n" +
			`proxy_tenant_conns{tenant="alpha"} 9` + "\n" +
			`proxy_tenant_conns{tenant="beta"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionLabelsSortedAndOnEveryLine(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("proxy.requests").Inc(1)
	h := NewHistogram()
	r.MustRegister("sql.exec_latency", h)
	h.Record(time.Millisecond)
	var b strings.Builder
	err := r.WriteExpositionLabels(&b, map[string]string{"zone": "b", "region": "us-east1"})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Label keys render sorted regardless of map order, and the le
	// label comes last.
	for _, want := range []string{
		`proxy_requests{region="us-east1",zone="b"} 1`,
		`sql_exec_latency_bucket{region="us-east1",zone="b",le="0.001"}`,
		`sql_exec_latency_count{region="us-east1",zone="b"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labeled exposition missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, `region="us-east1"`) {
			t.Errorf("line missing label set: %q", line)
		}
	}
}

// TestExpositionDeterministic: two renders of the same registry are
// byte-identical (no map-order leakage).
func TestExpositionDeterministic(t *testing.T) {
	r := buildExpositionRegistry()
	labels := map[string]string{"region": "eu-west1", "az": "a", "pod": "p1"}
	render := func() string {
		var b strings.Builder
		if err := r.WriteExpositionLabels(&b, labels); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := render()
	for i := 0; i < 10; i++ {
		if got := render(); got != first {
			t.Fatalf("exposition not deterministic:\n--- first\n%s\n--- run %d\n%s", first, i, got)
		}
	}
}

// TestRegistryEachSortedOrder pins the iteration order the exposition
// relies on: Each visits metrics in ascending name order.
func TestRegistryEachSortedOrder(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zz.last", "aa.first", "mm.middle"} {
		r.NewCounter(name)
	}
	var visited []string
	r.Each(func(name string, m any) {
		visited = append(visited, name)
	})
	want := []string{"aa.first", "mm.middle", "zz.last"}
	for i := range want {
		if i >= len(visited) || visited[i] != want[i] {
			t.Fatalf("Each order = %v, want %v", visited, want)
		}
	}
}
