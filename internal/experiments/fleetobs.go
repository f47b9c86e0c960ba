package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/randutil"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
)

// The fleet-observability experiment: a heavy-tailed fleet of tenants runs
// against the tenant observability plane while the top 1% of tenants stage a
// load storm. The same fleet is replayed twice — once with per-tenant
// isolation (the aggressors' excess work hurts only themselves) and once on a
// modeled shared queue (everyone's latency inflates with total load) — and
// the plane's windowed p99s and SLO burn rates are compared: under isolation
// the victim's p99 stays put while the storming tenants' burn rate explodes;
// on the shared queue the victim's p99 and burn rate absorb the storm.
//
// Every run uses a manual clock and a single seeded RNG drawn in fixed tenant
// order, so the rendered /debug/tenantz, /debug/slo, and /debug/metrics pages
// are byte-identical across same-seed runs; the experiment replays the
// isolated run twice and byte-compares to certify that.

// FleetObsOptions size the fleet-observability experiment.
type FleetObsOptions struct {
	// Tenants is the fleet size (default 1000).
	Tenants int
	// CalmTicks and StormTicks are the number of 15-second ticks in each
	// phase (defaults 20 and 8: a 5-minute calm and a 2-minute storm).
	CalmTicks  int
	StormTicks int
	// MaxTenants caps the plane's distinct-tenant cardinality; the excess
	// is absorbed into __overflow__. Default: 3/4 of the fleet, so the
	// cardinality policy is always exercised.
	//lint:allow deadsurface test seam: TestFleetObsOverflowRunStaysDeterministic clamps the plane so most of the fleet overflows
	MaxTenants int
}

// fleetObsSeed seeds the fleet's load generator.
const fleetObsSeed = 20250807

// FleetObsResult is the digest of the fleet-observability experiment.
type FleetObsResult struct {
	Tenants, Aggressors int
	// Absorbed is how many distinct tenants the plane folded into the
	// __overflow__ pseudo-tenant under its cardinality cap.
	Absorbed int64

	VictimName, AggressorName string
	// Victim p99 over the calm window, and over the storm window under
	// each contention model.
	VictimP99Calm        time.Duration
	VictimP99StormIso    time.Duration
	VictimP99StormShared time.Duration
	// IsolationFactor is sharedStormP99 / isolatedStormP99.
	IsolationFactor float64
	// 5-minute SLO burn rates at the end of the storm.
	VictimBurnIso    float64
	AggressorBurnIso float64
	VictimBurnShared float64
	// DeterminismOK reports whether two same-seed isolated runs rendered
	// byte-identical tenantz/slo/metrics pages.
	DeterminismOK bool

	// Rendered debug surfaces from the isolated run.
	Tenantz, VictimPage, AggressorPage, SLO, Metrics string
}

// fleetRun is the measured output of one replay of the fleet.
type fleetRun struct {
	absorbed      int64
	victimP99Calm time.Duration
	victimP99Strm time.Duration
	victimBurn    float64
	aggrBurn      float64

	tenantz, victimPage, aggrPage, slo, metrics string
}

const fleetTick = 15 * time.Second

// fleetLatency draws one query latency and error flag. m is the shared-queue
// load multiplier for the current tick (1 when calm).
func fleetLatency(rng *rand.Rand, isolated, storm, aggressor bool, m float64) (time.Duration, bool) {
	// Baseline: 2-3ms with a 0.5% tail around 16-24ms, all far below the
	// default 100ms SLO threshold.
	base := 2*time.Millisecond + time.Duration(rng.Int63n(int64(time.Millisecond)))
	tail := rng.Float64() < 0.005
	if tail {
		base *= 8
	}
	if !storm {
		return base, false
	}
	if isolated {
		if !aggressor {
			// Per-tenant admission and token buckets: the storm never
			// reaches this tenant's latency.
			return base, false
		}
		// The aggressor's excess work queues behind its own quota:
		// throttle delays past the SLO threshold, plus outright errors.
		if rng.Float64() < 0.35 {
			base *= 40
		}
		return base, rng.Float64() < 0.10
	}
	// Shared queue: everyone's service time stretches with total load, and
	// queueing stalls past the SLO threshold appear in proportion to the
	// overload.
	if rng.Float64() < 0.02*(m-1) {
		return 120*time.Millisecond + time.Duration(rng.Int63n(int64(40*time.Millisecond))), false
	}
	return time.Duration(float64(base) * m), false
}

// fleetCalmLoad is tenant rank's queries per tick: a heavy-tailed ~1/r^0.7
// curve with a floor of one query so every tenant stays live.
func fleetCalmLoad(rank int) int {
	q := int(120 / math.Pow(float64(rank), 0.7))
	if q < 1 {
		q = 1
	}
	return q
}

// runFleetObs replays the fleet once under the given contention model.
func runFleetObs(opts FleetObsOptions, isolated bool) (*fleetRun, error) {
	ctx := context.Background()
	clock := timeutil.NewManualClock(time.Unix(1_754_000_000, 0))
	reg := metric.NewRegistry()
	plane := tenantobs.New(tenantobs.Config{
		Registry:   reg,
		Clock:      clock,
		MaxTenants: opts.MaxTenants,
	})
	// The fleet needs KV nodes that report to this plane, with its own
	// cardinality cap, and drives no SQL: it builds them here, as chaos and
	// kvscaling do.
	var nodes []*kvserver.Node
	for id := kvserver.NodeID(1); id <= 3; id++ {
		nodes = append(nodes, kvserver.NewNode(kvserver.NodeConfig{ID: id, VCPUs: 8, Clock: clock, Obs: plane}))
	}
	cluster, err := kvserver.NewCluster(kvserver.ClusterConfig{Clock: clock}, nodes)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	buckets := tenantcost.NewBucketServer(clock)

	n := opts.Tenants
	aggressors := n / 100
	if aggressors < 1 {
		aggressors = 1
	}
	victim := n / 2

	type fleetTenant struct {
		id    keys.TenantID
		name  string
		obs   *tenantobs.Tenant
		calmQ int
		ds    *kvserver.DistSender
		nb    *tenantcost.NodeBucket
		key   keys.Key
	}
	fleet := make([]*fleetTenant, n)
	calmTotal := 0
	// The KV cluster's own bring-up traffic passes through admission under
	// the system tenant; register it so it shows up by name rather than as
	// an id-derived fallback.
	plane.RegisterTenant(keys.SystemTenantID, "system")
	for rank := 1; rank <= n; rank++ {
		id := keys.TenantID(rank + 1)
		name := fmt.Sprintf("t-%04d", rank)
		// Registered before its sender resolves the handle by ID; the
		// bucket records through the handle itself.
		obs := plane.RegisterTenant(id, name)
		t := &fleetTenant{
			id:    id,
			name:  name,
			obs:   obs,
			calmQ: fleetCalmLoad(rank),
			ds:    kvserver.NewDistSender(cluster, kvserver.Identity{Tenant: id}, kvserver.Config{Obs: plane}),
			nb:    tenantcost.NewNodeBucket(buckets, clock, id, 1, obs),
			key:   append(keys.MakeTenantPrefix(id), 'k'),
		}
		fleet[rank-1] = t
		calmTotal += t.calmQ
		obs.ConnOpened()
	}

	rng := randutil.NewRand(fleetObsSeed)
	run := &fleetRun{}
	totalTicks := opts.CalmTicks + opts.StormTicks
	for tick := 0; tick < totalTicks; tick++ {
		storm := tick >= opts.CalmTicks
		clock.Advance(fleetTick)
		now := clock.Now()

		if storm && tick == opts.CalmTicks {
			// The autoscaler reacts to the storm: scale the aggressors up.
			for rank := 1; rank <= aggressors; rank++ {
				fleet[rank-1].obs.ScaleEvent("up")
			}
			// Snapshot the victim's calm p99 before the storm lands.
			run.victimP99Calm = fleet[victim-1].obs.P99(now, metric.BurnShortWindow)
		}

		// Total demand this tick sets the shared-queue multiplier.
		totalQ := calmTotal
		if storm {
			for rank := 1; rank <= aggressors; rank++ {
				totalQ += fleet[rank-1].calmQ * 19 // x20 load during the storm
			}
		}
		m := float64(totalQ) / float64(calmTotal)

		for rank := 1; rank <= n; rank++ {
			t := fleet[rank-1]
			aggr := rank <= aggressors
			q := t.calmQ
			if storm && aggr {
				q *= 20
			}
			// One real KV read per active tenant per tick keeps the
			// dist.tenant_batches and admission.tenant_wait series fed by
			// the genuine DistSender/admission path.
			ba := &kvpb.BatchRequest{Tenant: t.id, Requests: []kvpb.Request{{Method: kvpb.Get, Key: t.key}}}
			if _, err := t.ds.Send(ctx, ba); err != nil {
				return nil, err
			}
			// Modeled request units flow through the token-bucket
			// consumption observer into tenantcost.tenant_ru.
			t.nb.Consume(0.25 * float64(q))
			for i := 0; i < q; i++ {
				lat, bad := fleetLatency(rng, isolated, storm, aggr, m)
				t.obs.QueryDone(lat, bad)
			}
			if storm && aggr {
				for i := 0; i < q/10; i++ {
					t.obs.TxnRetry()
				}
			}
		}
	}

	now := clock.Now()
	stormSpan := time.Duration(opts.StormTicks) * fleetTick
	victimT, aggrT := fleet[victim-1], fleet[0]
	run.absorbed = plane.Absorbed()
	run.victimP99Strm = victimT.obs.P99(now, stormSpan)
	run.victimBurn = victimT.obs.BurnRate(now, metric.BurnShortWindow)
	run.aggrBurn = aggrT.obs.BurnRate(now, metric.BurnShortWindow)

	var b strings.Builder
	if err := plane.WriteTenantz(&b, now, 8); err != nil {
		return nil, err
	}
	run.tenantz = b.String()
	b.Reset()
	if err := plane.WriteTenant(&b, victimT.name, now); err != nil {
		return nil, err
	}
	run.victimPage = b.String()
	b.Reset()
	if err := plane.WriteTenant(&b, aggrT.name, now); err != nil {
		return nil, err
	}
	run.aggrPage = b.String()
	b.Reset()
	if err := plane.WriteSLO(&b, now); err != nil {
		return nil, err
	}
	run.slo = b.String()
	b.Reset()
	if err := reg.WriteExposition(&b); err != nil {
		return nil, err
	}
	run.metrics = b.String()
	return run, nil
}

// FleetObs runs the fleet-observability experiment: two same-seed isolated
// replays (byte-compared for determinism) plus one shared-queue replay for
// the noisy-neighbor contrast.
func FleetObs(opts FleetObsOptions) (*FleetObsResult, *Table, error) {
	if opts.Tenants <= 0 {
		opts.Tenants = 1000
	}
	if opts.CalmTicks <= 0 {
		opts.CalmTicks = 20
	}
	if opts.StormTicks <= 0 {
		opts.StormTicks = 8
	}
	if opts.MaxTenants <= 0 {
		opts.MaxTenants = opts.Tenants * 3 / 4
	}

	iso, err := runFleetObs(opts, true)
	if err != nil {
		return nil, nil, err
	}
	iso2, err := runFleetObs(opts, true)
	if err != nil {
		return nil, nil, err
	}
	shared, err := runFleetObs(opts, false)
	if err != nil {
		return nil, nil, err
	}

	aggressors := opts.Tenants / 100
	if aggressors < 1 {
		aggressors = 1
	}
	res := &FleetObsResult{
		Tenants:              opts.Tenants,
		Aggressors:           aggressors,
		Absorbed:             iso.absorbed,
		VictimName:           fmt.Sprintf("t-%04d", opts.Tenants/2),
		AggressorName:        "t-0001",
		VictimP99Calm:        iso.victimP99Calm,
		VictimP99StormIso:    iso.victimP99Strm,
		VictimP99StormShared: shared.victimP99Strm,
		VictimBurnIso:        iso.victimBurn,
		AggressorBurnIso:     iso.aggrBurn,
		VictimBurnShared:     shared.victimBurn,
		DeterminismOK: iso.tenantz == iso2.tenantz &&
			iso.slo == iso2.slo && iso.metrics == iso2.metrics,
		Tenantz:       iso.tenantz,
		VictimPage:    iso.victimPage,
		AggressorPage: iso.aggrPage,
		SLO:           iso.slo,
		Metrics:       iso.metrics,
	}
	if res.VictimP99StormIso > 0 {
		res.IsolationFactor = float64(res.VictimP99StormShared) / float64(res.VictimP99StormIso)
	}

	tbl := &Table{
		Title:   "fleet observability: noisy-neighbor isolation as seen by the plane (§6)",
		Columns: []string{"metric", "isolated", "shared queue"},
		Rows: [][]string{
			{"fleet size / aggressors", fmt.Sprintf("%d / %d", res.Tenants, res.Aggressors), ""},
			{"plane cardinality cap / absorbed", fmt.Sprintf("%d / %d", opts.MaxTenants, res.Absorbed), ""},
			{fmt.Sprintf("victim %s p99 (calm)", res.VictimName), res.VictimP99Calm.String(), res.VictimP99Calm.String()},
			{fmt.Sprintf("victim %s p99 (storm)", res.VictimName), res.VictimP99StormIso.String(), res.VictimP99StormShared.String()},
			{"victim burn rate, 5m (storm)", fmt.Sprintf("%.1f", res.VictimBurnIso), fmt.Sprintf("%.1f", res.VictimBurnShared)},
			{fmt.Sprintf("aggressor %s burn rate, 5m", res.AggressorName), fmt.Sprintf("%.1f", res.AggressorBurnIso), ""},
			{"isolation factor (shared p99 / isolated p99)", fmt.Sprintf("%.1fx", res.IsolationFactor), ""},
			{"same-seed pages byte-identical", fmt.Sprintf("%v", res.DeterminismOK), ""},
		},
	}
	return res, tbl, nil
}
