package experiments

import (
	"fmt"
	"time"

	"crdbserverless/internal/coldstart"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/randutil"
	"crdbserverless/internal/region"
	"crdbserverless/internal/sql"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
)

// Fig10aResult compares cold-start latency with and without process
// pre-warming.
type Fig10aResult struct {
	Unoptimized metric.Summary
	Optimized   metric.Summary
	// Trace is one optimized cold start decomposed into child spans
	// (pod_assign, cert_issue, fs_watch, system database accesses,
	// conn_migrate). The children partition the root exactly.
	Trace *trace.Span
}

// Fig10a reproduces §6.5.1: the production cold-start prober measured before
// and after the pre-warming optimization. Expected shape: p50 and p99 both
// drop by more than half; the optimized flow is sub-second. It also records
// one optimized trial as a trace and verifies the scale-from-zero
// decomposition: the child spans' durations sum exactly to the end-to-end
// root span.
func Fig10a(trials int) (*Fig10aResult, *Table, error) {
	if trials <= 0 {
		trials = 1000
	}
	top := region.DefaultTopology()
	params := coldstart.DefaultParams(top)
	rng := randutil.NewRand(20250622)
	loc := sql.SystemTableLocalities{RegionAware: true}

	unopt := coldstart.RunProber(rng, params, coldstart.Flow{
		PreWarmed: false, Localities: loc, ClientRegion: "us-central1",
	}, trials)
	opt := coldstart.RunProber(rng, params, coldstart.Flow{
		PreWarmed: true, Localities: loc, ClientRegion: "us-central1",
	}, trials)

	// Decompose one optimized cold start as a trace on a manual-clock
	// tracer and assert the structural invariant.
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	tr := trace.New(trace.Options{Clock: clock, Seed: 20250622})
	root, total, err := coldstart.TraceOne(tr, rng, params, coldstart.Flow{
		PreWarmed: true, Localities: loc, ClientRegion: "us-central1",
	})
	if err != nil {
		return nil, nil, err
	}
	var sum time.Duration
	for _, c := range root.Children() {
		sum += c.Duration()
	}
	if sum != root.Duration() || sum != total {
		return nil, nil, fmt.Errorf(
			"fig10a: cold-start trace does not decompose: children sum %v, root %v, simulated total %v",
			sum, root.Duration(), total)
	}

	res := &Fig10aResult{Unoptimized: unopt.Snapshot(), Optimized: opt.Snapshot(), Trace: root}
	table := &Table{
		Title:   "Fig 10a: cold start latency, pre-warmed SQL process (§6.5.1)",
		Columns: []string{"flow", "p50", "p99"},
		Rows: [][]string{
			{"unoptimized", fmtDur(res.Unoptimized.P50), fmtDur(res.Unoptimized.P99)},
			{"optimized (pre-warmed)", fmtDur(res.Optimized.P50), fmtDur(res.Optimized.P99)},
			{"reduction", fmt.Sprintf("%.0f%%", 100*(1-res.Optimized.P50.Seconds()/res.Unoptimized.P50.Seconds())),
				fmt.Sprintf("%.0f%%", 100*(1-res.Optimized.P99.Seconds()/res.Unoptimized.P99.Seconds()))},
		},
	}
	for _, c := range root.Children() {
		table.Rows = append(table.Rows, []string{"  trace: " + c.Op(), fmtDur(c.Duration()), ""})
	}
	table.Rows = append(table.Rows, []string{"  trace: end-to-end", fmtDur(root.Duration()), ""})
	return res, table, nil
}

// Fig10bRegion is one region's cold-start distribution under both system
// database configurations.
type Fig10bRegion struct {
	Region      region.Region
	Optimized   metric.Summary
	Unoptimized metric.Summary
}

// Fig10b reproduces §6.5.2: multi-region cold starts with the region-aware
// system database (GLOBAL descriptors, REGIONAL BY ROW sql_instances) vs
// leaseholders pinned to asia-southeast1. Expected shape: region-aware gives
// sub-second p50 (<= 0.73s) in every region; pinning penalizes remote
// regions by their RTT to asia.
func Fig10b(trials int) ([]Fig10bRegion, *Table) {
	if trials <= 0 {
		trials = 1000
	}
	top := region.DefaultTopology()
	params := coldstart.DefaultParams(top)
	rng := randutil.NewRand(20250623)

	aware := sql.SystemTableLocalities{RegionAware: true}
	pinned := sql.SystemTableLocalities{RegionAware: false, Home: "asia-southeast1"}

	var out []Fig10bRegion
	table := &Table{
		Title:   "Fig 10b: multi-region cold starts (§6.5.2); pinned leaseholders in asia-southeast1",
		Columns: []string{"region", "optimized p50", "optimized p99", "unoptimized p50", "unoptimized p99"},
	}
	for _, r := range top.Regions() {
		opt := coldstart.RunProber(rng, params, coldstart.Flow{
			PreWarmed: true, Localities: aware, ClientRegion: r,
		}, trials)
		unopt := coldstart.RunProber(rng, params, coldstart.Flow{
			PreWarmed: true, Localities: pinned, ClientRegion: r,
		}, trials)
		row := Fig10bRegion{Region: r, Optimized: opt.Snapshot(), Unoptimized: unopt.Snapshot()}
		out = append(out, row)
		table.Rows = append(table.Rows, []string{
			string(r),
			fmtDur(row.Optimized.P50), fmtDur(row.Optimized.P99),
			fmtDur(row.Unoptimized.P50), fmtDur(row.Unoptimized.P99),
		})
	}
	return out, table
}

// WarmPoolPoint is one pool size of the warm-pool sweep. A cold start that
// misses the warm pool pays the full pod creation cost; the hit rate depends
// on pool size versus cold-start arrival rate.
type WarmPoolPoint struct {
	P50Latency time.Duration
}

// AblationWarmPool sweeps the warm-pool size against a Poisson-ish arrival
// process of cold starts and reports hit rate and p50 latency. Pool misses
// pay pod creation (~3s per §4.2.1); hits pay only the optimized flow.
func AblationWarmPool(arrivalsPerMin float64, trials int) ([]WarmPoolPoint, *Table) {
	if trials <= 0 {
		trials = 2000
	}
	top := region.DefaultTopology()
	params := coldstart.DefaultParams(top)
	rng := randutil.NewRand(99)
	loc := sql.SystemTableLocalities{RegionAware: true}
	// Pod creation without a warm pool takes ~3s (§4.2.1).
	podCreate := coldstart.Dist{Median: 3 * time.Second, Sigma: 0.2}
	// Pool refill takes ~replenish seconds; during a burst, arrivals beyond
	// the pool size miss. Model hit probability with an M/M/c-loss-style
	// approximation: hits while any of c warm pods is available, with
	// refill time vs inter-arrival time.
	refill := 5.0 // seconds to replenish one pod
	interArrival := 60.0 / arrivalsPerMin

	var out []WarmPoolPoint
	table := &Table{
		Title:   fmt.Sprintf("Ablation: warm pool size at %.0f cold starts/min", arrivalsPerMin),
		Columns: []string{"pool size", "hit rate", "p50 cold start"},
	}
	for _, size := range []int{0, 1, 2, 4, 8} {
		// Occupancy: expected pods mid-refill when an arrival lands.
		busy := refill / interArrival
		hitRate := 1.0
		if size == 0 {
			hitRate = 0
		} else if busy > 0 {
			// Erlang-B-flavored loss approximation.
			b := 1.0
			for k := 1; k <= size; k++ {
				b = busy * b / (float64(k) + busy*b)
			}
			hitRate = 1 - b
		}
		h := metric.NewHistogram()
		for i := 0; i < trials; i++ {
			lat := coldstart.Simulate(rng, params, coldstart.Flow{
				PreWarmed: true, Localities: loc, ClientRegion: "us-central1",
			})
			if rng.Float64() > hitRate {
				lat += podCreate.Sample(rng)
			}
			h.Record(lat)
		}
		pt := WarmPoolPoint{P50Latency: h.P50()}
		out = append(out, pt)
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.0f%%", hitRate*100),
			fmtDur(pt.P50Latency),
		})
	}
	return out, table
}
