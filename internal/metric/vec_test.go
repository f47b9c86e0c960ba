package metric

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterVecBasics(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("sql.tenant_queries", "tenant", "result")
	v.With("alpha", "ok").Inc(3)
	v.With("alpha", "ok").Inc(2)
	v.With("alpha", "error").Inc(1)
	if got := v.With("alpha", "ok").Value(); got != 5 {
		t.Fatalf("child value = %d, want 5", got)
	}
	if got := v.length(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	var visited []string
	v.Each(func(values []string, c *Counter) {
		visited = append(visited, fmt.Sprintf("%s/%s=%d", values[0], values[1], c.Value()))
	})
	want := []string{"alpha/error=1", "alpha/ok=5"}
	if fmt.Sprint(visited) != fmt.Sprint(want) {
		t.Fatalf("Each order = %v, want %v", visited, want)
	}
}

func TestVecPanicsOnBadSchema(t *testing.T) {
	r := NewRegistry()
	for name, fn := range map[string]func(){
		"no keys":       func() { r.NewCounterVec("a.nokeys") },
		"bad key shape": func() { r.NewGaugeVec("a.badkey", "Tenant") },
		"repeated key":  func() { r.NewHistogramVec("a.repkey", "tenant", "tenant") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	v := r.NewCounterVec("a.ok", "tenant")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong arity: no panic")
			}
		}()
		v.With("x", "y")
	}()
}

// TestVecCardinalityGuard is the cap+1 guard: registering one more label
// set than the cap routes the excess to a single shared __overflow__ child
// instead of growing without bound.
func TestVecCardinalityGuard(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("kv.tenant_batches", "tenant")
	const capN = 16
	v.SetMaxCardinality(capN)
	for i := 0; i < capN+1; i++ {
		v.With(fmt.Sprintf("tenant-%04d", i)).Inc(1)
	}
	if got := v.length(); got != capN {
		t.Fatalf("Len = %d, want the cap %d", got, capN)
	}
	if got := v.absorbedCount(); got != 1 {
		t.Fatalf("Absorbed = %d, want 1", got)
	}
	// Everything past the cap shares one child, however many label sets
	// arrive.
	for i := capN + 1; i < 4*capN; i++ {
		v.With(fmt.Sprintf("tenant-%04d", i)).Inc(1)
	}
	if got := v.length(); got != capN {
		t.Fatalf("Len grew past the cap: %d", got)
	}
	if got := v.With(OverflowLabelValue).Value(); got != int64(3*capN) {
		t.Fatalf("overflow child = %d, want %d", got, 3*capN)
	}
	// Explicitly addressing the overflow bucket does not count as a new
	// absorbed label set.
	if got := v.absorbedCount(); got != int64(3*capN) {
		t.Fatalf("Absorbed = %d, want %d", got, 3*capN)
	}
	var last []string
	v.Each(func(values []string, c *Counter) { last = values })
	if len(last) != 1 || last[0] != OverflowLabelValue {
		t.Fatalf("overflow child not iterated last: %v", last)
	}
}

// TestVecOverflowDeterministic: under a fixed arrival order the
// overflow split and the exposition bytes are identical run to run.
func TestVecOverflowDeterministic(t *testing.T) {
	render := func() string {
		r := NewRegistry()
		v := r.NewCounterVec("kv.tenant_batches", "tenant")
		v.SetMaxCardinality(4)
		for i := 0; i < 10; i++ {
			v.With(fmt.Sprintf("t%02d", i)).Inc(int64(i + 1))
		}
		var b strings.Builder
		if err := r.WriteExposition(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("overflow exposition not deterministic:\n--- first\n%s\n--- run %d\n%s", first, i, got)
		}
	}
	if !strings.Contains(first, `kv_tenant_batches{tenant="__overflow__"} 45`) {
		t.Fatalf("overflow child missing or wrong (want 5+...+10=45):\n%s", first)
	}
}

func TestVecConcurrentUse(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("kv.tenant_batches", "tenant")
	v.SetMaxCardinality(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v.With(fmt.Sprintf("t%d", i%16)).Inc(1)
			}
		}(g)
	}
	wg.Wait()
	var total int64
	v.Each(func(_ []string, c *Counter) { total += c.Value() })
	if total != 800 {
		t.Fatalf("total across children = %d, want 800", total)
	}
}

func TestHistogramAndGaugeVec(t *testing.T) {
	r := NewRegistry()
	hv := r.NewHistogramVec("sql.tenant_exec_latency", "tenant")
	for i := 1; i <= 10; i++ {
		hv.With("alpha").Record(5e6) // 5ms
	}
	if got := hv.With("alpha").Snapshot().Count; got != 10 {
		t.Fatalf("histogram child count = %d, want 10", got)
	}
	gv := r.NewGaugeVec("tenantcost.tenant_ru", "tenant")
	gv.With("alpha").Add(2.5)
	gv.With("alpha").Add(1.5)
	if got := gv.With("alpha").Value(); got != 4 {
		t.Fatalf("gauge child = %v, want 4", got)
	}
}

// length returns the number of distinct (non-overflow) children.
func (v *vecCore) length() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.children)
}

// absorbedCount returns how many distinct label sets have been routed to the
// overflow child.
func (v *vecCore) absorbedCount() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.absorbed
}
