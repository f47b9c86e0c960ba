// Package region models multi-region topology: named regions, a round-trip
// latency matrix between them, table localities (§3.2.5), per-tenant region
// selection, and geo-routed DNS (§4.2.5). Cold-start latency experiments
// (Fig 10b) draw cross-region access costs from this model.
package region

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"crdbserverless/internal/randutil"
)

// Region is a named cloud region.
type Region string

// Locality describes how a table is optimized for multi-region access
// (§3.2.5).
type Locality int

const (
	// LocalityRegionalByTable places all leaseholders in one home region:
	// reads and writes from that region are fast, remote reads pay an RTT.
	// This is the default (and the "unoptimized" configuration of Fig 10b).
	LocalityRegionalByTable Locality = iota
	// LocalityGlobal allows consistent local reads in every region at the
	// cost of higher write latency (system.descriptor uses this).
	LocalityGlobal
	// LocalityRegionalByRow partitions by row so each row's leaseholder
	// lives in a specific region (system.sql_instances uses this: a node's
	// startup write stays local).
	LocalityRegionalByRow
)

// String implements fmt.Stringer.
func (l Locality) String() string {
	switch l {
	case LocalityRegionalByTable:
		return "REGIONAL BY TABLE"
	case LocalityGlobal:
		return "GLOBAL"
	case LocalityRegionalByRow:
		return "REGIONAL BY ROW"
	default:
		return fmt.Sprintf("Locality(%d)", int(l))
	}
}

// Topology is a set of regions and the RTTs between them.
type Topology struct {
	mu      sync.RWMutex
	regions []Region
	rtt     map[[2]Region]time.Duration
	// jitterFrac is applied to latency draws (default 0.1).
	jitterFrac float64
}

// NewTopology creates a topology over the given regions with the provided
// symmetric RTT matrix entries.
func NewTopology(regions []Region) *Topology {
	t := &Topology{
		regions:    append([]Region(nil), regions...),
		rtt:        make(map[[2]Region]time.Duration),
		jitterFrac: 0.1,
	}
	sort.Slice(t.regions, func(i, j int) bool { return t.regions[i] < t.regions[j] })
	return t
}

// DefaultTopology returns the three-region topology used in the paper's
// multi-region cold start evaluation (Fig 10b), with RTTs approximating the
// real asia-southeast1 / europe-west1 / us-central1 distances.
func DefaultTopology() *Topology {
	t := NewTopology([]Region{"asia-southeast1", "europe-west1", "us-central1"})
	t.SetRTT("asia-southeast1", "europe-west1", 180*time.Millisecond)
	t.SetRTT("asia-southeast1", "us-central1", 160*time.Millisecond)
	t.SetRTT("europe-west1", "us-central1", 100*time.Millisecond)
	return t
}

// Regions returns the regions in sorted order.
func (t *Topology) Regions() []Region {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]Region(nil), t.regions...)
}

// SetRTT sets the symmetric round-trip time between two regions.
func (t *Topology) SetRTT(a, b Region, rtt time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rtt[[2]Region{a, b}] = rtt
	t.rtt[[2]Region{b, a}] = rtt
}

// RTT returns the round-trip time between two regions. Same-region RTTs are
// 500µs (intra-region network).
func (t *Topology) RTT(a, b Region) time.Duration {
	if a == b {
		return 500 * time.Microsecond
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if d, ok := t.rtt[[2]Region{a, b}]; ok {
		return d
	}
	// Unknown pairs default to a conservative intercontinental RTT.
	return 150 * time.Millisecond
}

// SampleRTT draws a jittered RTT between two regions.
//
//lint:allow deadsurface roadmap: "Run Fig 10 on the assembly" (1) charges Topology RTTs at the DistSender hop and the raft round
func (t *Topology) SampleRTT(rng *rand.Rand, a, b Region) time.Duration {
	return randutil.Jitter(rng, t.RTT(a, b), t.jitterFrac)
}

// Nearest returns the region in the topology with the lowest RTT from the
// given origin region (which may be outside the topology).
func (t *Topology) Nearest(origin Region, among []Region) Region {
	if len(among) == 0 {
		return ""
	}
	best := among[0]
	bestRTT := t.RTT(origin, best)
	for _, r := range among[1:] {
		if d := t.RTT(origin, r); d < bestRTT {
			best = r
			bestRTT = d
		}
	}
	return best
}

// DNS provides the tenant's connection endpoints: a per-region name that
// always routes to that region, and a global name that geo-routes to the
// nearest region in the tenant's selection (§4.2.5).
type DNS struct {
	topology *Topology
}

// NewDNS returns a DNS resolver over the topology.
func NewDNS(t *Topology) *DNS { return &DNS{topology: t} }

// GlobalName returns the tenant's geo-routed global DNS name.
func (d *DNS) GlobalName(tenantName string) string {
	return fmt.Sprintf("%s.serverless.example.com", tenantName)
}

// Resolve routes a connection: a regional name goes to its region; the
// global name goes to the nearest of the tenant's selected regions from the
// client's origin.
func (d *DNS) Resolve(name string, origin Region, tenantRegions []Region) (Region, error) {
	if len(tenantRegions) == 0 {
		return "", fmt.Errorf("region: tenant has no regions configured")
	}
	for _, r := range d.topology.Regions() {
		suffix := fmt.Sprintf(".%s.serverless.example.com", r)
		if len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix {
			for _, tr := range tenantRegions {
				if tr == r {
					return r, nil
				}
			}
			return "", fmt.Errorf("region: tenant not present in %s", r)
		}
	}
	return d.topology.Nearest(origin, tenantRegions), nil
}

// LeasePlacement answers where a table's leaseholder lives for an access
// from a given region, under a locality setting. This is the latency kernel
// of the multi-region cold-start analysis (§3.2.5): a read blocks on the
// leaseholder region unless the table is GLOBAL; a write blocks on the
// leaseholder region unless the table is REGIONAL BY ROW (the row's home is
// the writing region).
type LeasePlacement struct {
	Locality Locality
	// Home is the leaseholder region for REGIONAL BY TABLE tables.
	Home Region
}

// ReadRTT returns the network round trips a consistent read from the given
// region pays.
func (p LeasePlacement) ReadRTT(t *Topology, from Region) time.Duration {
	switch p.Locality {
	case LocalityGlobal:
		// Global tables serve consistent local reads.
		return t.RTT(from, from)
	case LocalityRegionalByRow:
		// The rows a node reads at startup are its own region's rows.
		return t.RTT(from, from)
	default:
		return t.RTT(from, p.Home)
	}
}

// WriteRTT returns the network round trips a write from the given region
// pays.
func (p LeasePlacement) WriteRTT(t *Topology, from Region) time.Duration {
	switch p.Locality {
	case LocalityGlobal:
		// Global tables pay a cross-region commit wave: the farthest
		// region's RTT bounds the write.
		var max time.Duration
		for _, r := range t.Regions() {
			if d := t.RTT(from, r); d > max {
				max = d
			}
		}
		return max
	case LocalityRegionalByRow:
		// The node writes its own region's row locally.
		return t.RTT(from, from)
	default:
		return t.RTT(from, p.Home)
	}
}
