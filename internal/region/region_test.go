package region

import (
	"testing"
	"time"

	"crdbserverless/internal/randutil"
)

func TestTopologyRTT(t *testing.T) {
	top := DefaultTopology()
	if got := top.RTT("asia-southeast1", "europe-west1"); got != 180*time.Millisecond {
		t.Fatalf("RTT = %v", got)
	}
	// Symmetric.
	if got := top.RTT("europe-west1", "asia-southeast1"); got != 180*time.Millisecond {
		t.Fatalf("reverse RTT = %v", got)
	}
	// Same region is sub-millisecond.
	if got := top.RTT("us-central1", "us-central1"); got >= time.Millisecond {
		t.Fatalf("local RTT = %v", got)
	}
	// Unknown pairs get a conservative default.
	if got := top.RTT("mars-east1", "us-central1"); got != 150*time.Millisecond {
		t.Fatalf("unknown RTT = %v", got)
	}
}

func TestTopologyRegionsSortedAndContains(t *testing.T) {
	top := NewTopology([]Region{"zz", "aa", "mm"})
	rs := top.Regions()
	if len(rs) != 3 || rs[0] != "aa" || rs[1] != "mm" || rs[2] != "zz" {
		t.Fatalf("regions = %v, want exactly [aa mm zz]", rs)
	}
}

func TestSampleRTTJitterBounds(t *testing.T) {
	top := DefaultTopology()
	rng := randutil.NewRand(1)
	base := top.RTT("asia-southeast1", "us-central1")
	for i := 0; i < 200; i++ {
		d := top.SampleRTT(rng, "asia-southeast1", "us-central1")
		if d < time.Duration(float64(base)*0.89) || d > time.Duration(float64(base)*1.11) {
			t.Fatalf("jittered RTT %v outside ±10%% of %v", d, base)
		}
	}
}

func TestNearest(t *testing.T) {
	top := DefaultTopology()
	got := top.Nearest("europe-west1", []Region{"asia-southeast1", "us-central1"})
	if got != "us-central1" {
		t.Fatalf("nearest from europe = %s", got)
	}
	if got := top.Nearest("x", nil); got != "" {
		t.Fatalf("nearest of empty = %q", got)
	}
	// Origin inside the candidate set picks itself.
	if got := top.Nearest("us-central1", top.Regions()); got != "us-central1" {
		t.Fatalf("nearest from member region = %s", got)
	}
}

func TestDNSNamesAndResolve(t *testing.T) {
	top := DefaultTopology()
	dns := NewDNS(top)
	if got := dns.GlobalName("acme"); got != "acme.serverless.example.com" {
		t.Fatalf("global name = %s", got)
	}
	regional := "acme.europe-west1.serverless.example.com"
	tenantRegions := []Region{"europe-west1", "us-central1"}
	// Regional name routes to its region.
	r, err := dns.Resolve(regional, "asia-southeast1", tenantRegions)
	if err != nil || r != "europe-west1" {
		t.Fatalf("regional resolve = %s, %v", r, err)
	}
	// Regional name for a region the tenant is not in fails.
	if _, err := dns.Resolve("acme.asia-southeast1.serverless.example.com", "x", tenantRegions); err == nil {
		t.Fatal("resolve to absent region should fail")
	}
	// Global name geo-routes to the nearest tenant region.
	r, err = dns.Resolve(dns.GlobalName("acme"), "asia-southeast1", tenantRegions)
	if err != nil || r != "us-central1" {
		t.Fatalf("global resolve from asia = %s, %v", r, err)
	}
	// No regions configured.
	if _, err := dns.Resolve(dns.GlobalName("acme"), "x", nil); err == nil {
		t.Fatal("resolve with no regions should fail")
	}
}

func TestLocalityString(t *testing.T) {
	for l, want := range map[Locality]string{
		LocalityRegionalByTable: "REGIONAL BY TABLE",
		LocalityGlobal:          "GLOBAL",
		LocalityRegionalByRow:   "REGIONAL BY ROW",
		Locality(9):             "Locality(9)",
	} {
		if got := l.String(); got != want {
			t.Fatalf("%d = %q", l, got)
		}
	}
}

func TestLeasePlacementReadLatency(t *testing.T) {
	top := DefaultTopology()
	// Unoptimized: leaseholders pinned to asia-southeast1 (the Fig 10b
	// baseline). A read from us-central1 pays the cross-region RTT.
	pinned := LeasePlacement{Locality: LocalityRegionalByTable, Home: "asia-southeast1"}
	remote := pinned.ReadRTT(top, "us-central1")
	if remote != top.RTT("us-central1", "asia-southeast1") {
		t.Fatalf("pinned remote read RTT = %v", remote)
	}
	// Optimized: global tables read locally from every region.
	global := LeasePlacement{Locality: LocalityGlobal}
	local := global.ReadRTT(top, "us-central1")
	if local >= remote {
		t.Fatalf("global read %v should beat pinned remote read %v", local, remote)
	}
	// Regional-by-row reads the node's own row locally.
	byRow := LeasePlacement{Locality: LocalityRegionalByRow}
	if byRow.ReadRTT(top, "europe-west1") >= remote {
		t.Fatal("regional-by-row read should be local")
	}
}

func TestLeasePlacementWriteLatency(t *testing.T) {
	top := DefaultTopology()
	// Global tables pay the farthest-region RTT on writes.
	global := LeasePlacement{Locality: LocalityGlobal}
	w := global.WriteRTT(top, "us-central1")
	if w != top.RTT("us-central1", "asia-southeast1") {
		t.Fatalf("global write RTT = %v", w)
	}
	// Regional-by-row writes stay local — this is why system.sql_instances
	// uses it (§3.2.5: latency-sensitive startup writes).
	byRow := LeasePlacement{Locality: LocalityRegionalByRow}
	if byRow.WriteRTT(top, "us-central1") >= w {
		t.Fatal("regional-by-row write should be local")
	}
	// Pinned tables write to their home region.
	pinned := LeasePlacement{Locality: LocalityRegionalByTable, Home: "europe-west1"}
	if pinned.WriteRTT(top, "us-central1") != top.RTT("us-central1", "europe-west1") {
		t.Fatal("pinned write RTT mismatch")
	}
}
