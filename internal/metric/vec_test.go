package metric

import (
	"fmt"
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

func TestVecConcurrentUse(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("kv.tenant_batches", "tenant")
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

// length returns the number of distinct children.
func (v *vecCore) length() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.children)
}
