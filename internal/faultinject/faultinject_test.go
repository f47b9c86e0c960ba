package faultinject

import (
	"errors"
	"strings"
	"testing"
	"time"

	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/timeutil"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Enable("x", Site{Probability: 1})
	if r.Should("x") {
		t.Fatal("nil registry fired")
	}
	if err := r.MaybeErr("x"); err != nil {
		t.Fatalf("nil registry returned %v", err)
	}
	if r.Fires("x") != 0 || r.Schedule() != "" {
		t.Fatal("nil registry reported state")
	}
	r.DisableAll()
}

func TestUnknownSiteNeverFires(t *testing.T) {
	r := New(1, nil)
	for i := 0; i < 100; i++ {
		if r.Should("never.enabled") {
			t.Fatal("unknown site fired")
		}
	}
}

func TestAfterAndMaxFires(t *testing.T) {
	r := New(42, nil)
	r.Enable("s", Site{Probability: 1, After: 3, MaxFires: 2})
	var fired []int
	for i := 0; i < 10; i++ {
		if r.Should("s") {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 4 {
		t.Fatalf("fired at %v, want [3 4]", fired)
	}
	if got := r.Fires("s"); got != 2 {
		t.Fatalf("Fires = %d, want 2", got)
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	run := func(seed int64) string {
		r := New(seed, nil)
		r.Enable("a", Site{Probability: 0.3})
		r.Enable("b", Site{Probability: 0.7, MaxFires: 5})
		for i := 0; i < 200; i++ {
			r.Should("a")
			_ = r.MaybeErr("b")
		}
		return r.Schedule()
	}
	if run(7) != run(7) {
		t.Fatal("same seed produced different schedules")
	}
	if run(7) == run(8) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

// TestSiteStreamsIndependent pins the core determinism property: a site's
// schedule depends only on its own consultation count, not on how other
// sites' consultations interleave with it.
func TestSiteStreamsIndependent(t *testing.T) {
	fires := func(interleave bool) []int {
		r := New(99, nil)
		r.Enable("a", Site{Probability: 0.4})
		r.Enable("noise", Site{Probability: 0.5})
		var out []int
		for i := 0; i < 100; i++ {
			if interleave {
				r.Should("noise")
			}
			if r.Should("a") {
				out = append(out, i)
			}
		}
		return out
	}
	a, b := fires(false), fires(true)
	if len(a) != len(b) {
		t.Fatalf("interleaving changed site a's schedule: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleaving changed site a's schedule: %v vs %v", a, b)
		}
	}
}

func TestErrorRetriability(t *testing.T) {
	r := New(3, nil)
	r.Enable("transient", Site{Probability: 1, Retriable: true})
	r.Enable("hard", Site{Probability: 1})
	terr := r.MaybeErr("transient")
	herr := r.MaybeErr("hard")
	if terr == nil || herr == nil {
		t.Fatal("probability-1 sites did not fire")
	}
	if !IsInjected(terr) || !IsInjected(herr) {
		t.Fatal("IsInjected missed an injected error")
	}
	if !kvpb.IsRetriable(terr) {
		t.Fatalf("retriable injected fault not retriable: %v", terr)
	}
	if kvpb.IsRetriable(herr) {
		t.Fatalf("non-retriable injected fault reported retriable: %v", herr)
	}
	if IsInjected(errors.New("other")) {
		t.Fatal("IsInjected matched a foreign error")
	}
}

func TestDelaySleepsOnClock(t *testing.T) {
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	r := New(5, clock)
	r.Enable("stall", Site{Probability: 1, Delay: time.Second})
	done := make(chan bool)
	go func() { done <- r.Should("stall") }()
	for clock.NumWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	clock.Advance(time.Second)
	if !<-done {
		t.Fatal("stall site did not fire")
	}
}

func TestDisableStopsFiring(t *testing.T) {
	r := New(11, nil)
	r.Enable("s", Site{Probability: 1})
	if !r.Should("s") {
		t.Fatal("armed site did not fire")
	}
	r.DisableAll()
	if r.Should("s") {
		t.Fatal("disabled site fired")
	}
	if n := strings.Count(r.Schedule(), "\n"); n != 1 {
		t.Fatalf("schedule holds %d fires, want 1 (log survives disable)", n)
	}
}
