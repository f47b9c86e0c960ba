package metric

import "testing"

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestRegistryRegisterAndGet(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("proxy.test_hits")
	c.Inc(3)
	got := r.Get("proxy.test_hits")
	if got == nil {
		t.Fatal("registered counter not found")
	}
	if got.(*Counter).Value() != 3 {
		t.Errorf("counter value = %d, want 3", got.(*Counter).Value())
	}
	names := r.Names()
	if len(names) != 1 || names[0] != "proxy.test_hits" {
		t.Errorf("Names() = %v", names)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "no dot", func() { r.NewCounter("nodots") })
	mustPanic(t, "uppercase", func() { r.NewCounter("Proxy.Things") })
	mustPanic(t, "empty", func() { r.MustRegister("", 1) })
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("proxy.dup_check")
	mustPanic(t, "duplicate", func() { r.NewCounter("proxy.dup_check") })
}
