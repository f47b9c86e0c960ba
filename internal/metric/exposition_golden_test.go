package metric

import (
	"strings"
	"testing"
	"time"
)

// TestExpositionGolden pins the exact bytes of the exposition page for a
// small registry covering every histogram line type — _bucket ladder, +Inf,
// _sum, _count — plus a labeled vector whose children sort by label value,
// the tenant plane's __overflow__ among them. Any formatting drift (bucket
// bounds, label ordering, float rendering) fails here first.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("proxy.requests").Inc(7)
	h := NewHistogram()
	r.MustRegister("sql.exec_latency", h)
	h.Record(5 * time.Millisecond)
	v := r.NewCounterVec("kv.tenant_batches", "tenant")
	v.With("alpha").Inc(1)
	v.With("beta").Inc(2)
	v.With("__overflow__").Inc(4)

	const want = `# TYPE kv_tenant_batches counter
kv_tenant_batches{tenant="__overflow__"} 4
kv_tenant_batches{tenant="alpha"} 1
kv_tenant_batches{tenant="beta"} 2
# TYPE proxy_requests counter
proxy_requests 7
# TYPE sql_exec_latency histogram
sql_exec_latency_bucket{le="0.001"} 0
sql_exec_latency_bucket{le="0.004"} 0
sql_exec_latency_bucket{le="0.016"} 1
sql_exec_latency_bucket{le="0.064"} 1
sql_exec_latency_bucket{le="0.256"} 1
sql_exec_latency_bucket{le="1"} 1
sql_exec_latency_bucket{le="4"} 1
sql_exec_latency_bucket{le="16"} 1
sql_exec_latency_bucket{le="+Inf"} 1
sql_exec_latency_sum 0.005
sql_exec_latency_count 1
`
	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Fatalf("golden exposition mismatch:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
