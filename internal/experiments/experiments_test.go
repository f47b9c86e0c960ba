package experiments

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tab.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "333") {
		t.Fatalf("render = %q", out)
	}
}

func TestFig5Shape(t *testing.T) {
	points, table := Fig5()
	if len(points) < 5 || table == nil {
		t.Fatal("no fig5 points")
	}
	// Non-linearity: per-batch cost falls with rate (Fig 5's batching
	// efficiency), so batches-per-vCPU rises.
	first, last := points[0], points[len(points)-1]
	if last.GroundTruthPerB >= first.GroundTruthPerB {
		t.Fatalf("per-batch cost did not fall: %v -> %v", first.GroundTruthPerB, last.GroundTruthPerB)
	}
	if last.BatchesPerVCPUs <= first.BatchesPerVCPUs {
		t.Fatal("batches per vCPU did not rise with rate")
	}
	// The piecewise fit tracks the curve within 20% everywhere.
	for _, p := range points {
		if p.ModelErrPercent > 20 || p.ModelErrPercent < -20 {
			t.Fatalf("model error %f%% at rate %f", p.ModelErrPercent, p.BatchesPerSec)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	results, table, err := Fig6(Fig6Options{
		TPCCOps: 15, TPCHRows: 300, TPCHRuns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]Fig6Workload{}
	for _, r := range results {
		byName[r.Name] = r
	}
	// TPC-C: similar CPU in both modes (within ~40%).
	if r := byName["tpcc"]; r.CPURatio < 0.7 || r.CPURatio > 1.4 {
		t.Fatalf("tpcc ratio = %.2f, want ~1", r.CPURatio)
	}
	// Q1: the full-scan aggregation costs materially more in Serverless.
	if r := byName["tpch-q1"]; r.CPURatio < 1.3 {
		t.Fatalf("q1 ratio = %.2f, want >= 1.3", r.CPURatio)
	}
	// Q9: index joins keep the two modes comparable, and well below Q1's gap.
	if r := byName["tpch-q9"]; r.CPURatio > byName["tpch-q1"].CPURatio {
		t.Fatalf("q9 ratio %.2f exceeds q1 ratio %.2f", r.CPURatio, byName["tpch-q1"].CPURatio)
	}
}

func TestFig7Shape(t *testing.T) {
	res, table, err := Fig7(Fig7Options{
		SuspendedCounts: []int{20, 100},
		IdleCounts:      []int{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(res.Suspended) != 2 || len(res.Idle) != 1 {
		t.Fatalf("res = %+v", res)
	}
	// Amortization: per-tenant overhead at 100 tenants <= at 20.
	if res.Suspended[1].BytesPerTenant > res.Suspended[0].BytesPerTenant {
		t.Fatalf("suspended overhead grew: %d -> %d",
			res.Suspended[0].BytesPerTenant, res.Suspended[1].BytesPerTenant)
	}
	// Idle tenants cost much more than suspended ones (live SQL process).
	if res.Idle[0].BytesPerTenant < 2*res.Suspended[1].BytesPerTenant {
		t.Fatalf("idle %d B should dwarf suspended %d B",
			res.Idle[0].BytesPerTenant, res.Suspended[1].BytesPerTenant)
	}
	// Idle CPU is near zero.
	if res.IdleCPUPerTenant > 0.01 {
		t.Fatalf("idle cpu/tenant = %f", res.IdleCPUPerTenant)
	}
}

func TestFig8Shape(t *testing.T) {
	res, table, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(res.Series) < 60 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// Allocation tracks load: mean headroom in the 1x..8x band (target 4x
	// average with the 1.33x-peak floor adding slack).
	if res.MeanHeadroom < 1 || res.MeanHeadroom > 8 {
		t.Fatalf("mean headroom = %.2f", res.MeanHeadroom)
	}
	// Under-provisioning is rare.
	if res.UnderProvisionedFrac > 0.1 {
		t.Fatalf("under-provisioned %.0f%% of samples", res.UnderProvisionedFrac*100)
	}
	// The spike at minute 60 is reacted to: allocation at minute 64 covers it.
	for _, p := range res.Series {
		if p.At >= 64*time.Minute && p.At < 65*time.Minute {
			if p.AllocatedVCPUs < 14 {
				t.Fatalf("spike not covered: allocated %.0f vCPUs", p.AllocatedVCPUs)
			}
		}
	}
	// The trace runs on a manual clock, so a second run replays it exactly,
	// whatever the deployment's warm-pool backfills do in the background.
	again, _, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Series, res.Series) {
		t.Fatal("a second Fig 8 run produced a different series")
	}
}

func TestFig9Shape(t *testing.T) {
	res, table, err := Fig9(Fig9Options{Connections: 4, Phase: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if table == nil {
		t.Fatal("no table")
	}
	if res.Errors != 0 {
		t.Fatalf("errors=%d", res.Errors)
	}
	if res.Migrations == 0 {
		t.Fatal("rolling upgrade migrated nothing")
	}
	if res.QueriesDuring == 0 || res.QueriesAfter == 0 {
		t.Fatalf("throughput collapsed: during=%d after=%d", res.QueriesDuring, res.QueriesAfter)
	}
	// Latency during the upgrade is not catastrophically worse (10x).
	if res.During.P50 > 10*res.Before.P50+10*time.Millisecond {
		t.Fatalf("p50 during upgrade %v vs before %v", res.During.P50, res.Before.P50)
	}
}

func TestFig10Shapes(t *testing.T) {
	a, tableA, err := Fig10a(400)
	if err != nil {
		t.Fatal(err)
	}
	if tableA == nil {
		t.Fatal("no table")
	}
	if a.Optimized.P50*2 > a.Unoptimized.P50 {
		t.Fatalf("pre-warming gain too small: %v vs %v", a.Optimized.P50, a.Unoptimized.P50)
	}
	// The cold-start trace decomposes scale-from-zero into the paper's
	// steps: pod assignment, certificate issuance, and the connection
	// migration at the end, with child durations partitioning the root.
	if a.Trace == nil {
		t.Fatal("fig10a returned no trace")
	}
	ops := map[string]bool{}
	var sum time.Duration
	for _, c := range a.Trace.Children() {
		ops[c.Op()] = true
		sum += c.Duration()
	}
	for _, want := range []string{"pod_assign", "cert_issue", "fs_watch", "conn_migrate"} {
		if !ops[want] {
			t.Fatalf("cold-start trace missing step %q (have %v)", want, ops)
		}
	}
	if sum != a.Trace.Duration() {
		t.Fatalf("child spans sum to %v, root is %v", sum, a.Trace.Duration())
	}
	b, tableB := Fig10b(400)
	if tableB == nil || len(b) != 3 {
		t.Fatalf("fig10b rows = %d", len(b))
	}
	for _, r := range b {
		if r.Optimized.P50 > 730*time.Millisecond {
			t.Fatalf("region %s optimized p50 = %v", r.Region, r.Optimized.P50)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	goroutines := runtime.NumGoroutine()
	// A very tight liveness bound makes the no-limits destabilization
	// deterministic at this short test duration; admission control's
	// executor queues stay well below it.
	res, table, err := Table1(Table1Options{
		Duration:           1500 * time.Millisecond,
		LivenessQueueLimit: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byCfg := map[NoisyConfig]Table1Row{}
	for _, r := range res.Rows {
		byCfg[r.Config] = r
	}
	// Every configuration must have completed work on the well-behaved
	// tenant; a zero row means the deployment wedged rather than throttled.
	for _, cfg := range []NoisyConfig{NoLimits, ACOnly, ACAndECPU} {
		if _, ok := byCfg[cfg]; !ok {
			t.Fatalf("missing row for config %v", cfg)
		}
	}
	if byCfg[ACOnly].TpmC <= 0 || byCfg[ACOnly].P99 <= 0 {
		t.Fatalf("AC-only row is empty: tpmC %.0f, p99 %v", byCfg[ACOnly].TpmC, byCfg[ACOnly].P99)
	}
	t.Logf("\n%s", table)
	// Every worker has stopped by the time Table1 returns.
	if left := runtime.NumGoroutine() - goroutines; left > 0 {
		t.Fatalf("Table1 left %d goroutines behind", left)
	}
	if raceEnabled {
		// The race detector slows the workers ~50x, so the fixed-duration
		// run no longer saturates the executors and the latency/utilization
		// contrasts between configurations vanish. Keep the deterministic
		// shape checks above and log the (uninformative) contrast numbers.
		t.Logf("race build: skipping timing-contrast assertions (p99 %v/%v/%v, util %.2f/%.2f)",
			byCfg[NoLimits].P99, byCfg[ACOnly].P99, byCfg[ACAndECPU].P99,
			byCfg[ACOnly].MeanUtilization, byCfg[ACAndECPU].MeanUtilization)
	} else {
		// Admission control rescues the well-behaved tenant. The no-limits
		// cluster fails in one of two ways depending on timing: completed
		// transactions are slow (p99 blow-up), or almost nothing completes at
		// all (throughput collapse, where the few survivors can even look
		// fast). Either signature demonstrates the destabilization.
		latencyBlowup := byCfg[ACOnly].P99*2 <= byCfg[NoLimits].P99
		throughputCollapse := byCfg[NoLimits].TpmC*2 <= byCfg[ACOnly].TpmC
		if !latencyBlowup && !throughputCollapse {
			t.Fatalf("no-limits run not visibly worse: p99 %v vs AC %v, tpmC %.0f vs AC %.0f",
				byCfg[NoLimits].P99, byCfg[ACOnly].P99, byCfg[NoLimits].TpmC, byCfg[ACOnly].TpmC)
		}
		// eCPU limits improve latency further (or at least not worse) and drop
		// utilization well below the AC-only (work-conserving) level.
		if byCfg[ACAndECPU].P99 > byCfg[ACOnly].P99*2 {
			t.Fatalf("AC+eCPU p99 %v vs AC %v", byCfg[ACAndECPU].P99, byCfg[ACOnly].P99)
		}
		if byCfg[ACAndECPU].MeanUtilization >= byCfg[ACOnly].MeanUtilization {
			t.Fatalf("eCPU limits did not reduce utilization: %.2f vs %.2f",
				byCfg[ACAndECPU].MeanUtilization, byCfg[ACOnly].MeanUtilization)
		}
		// Throughput of the think-time-paced tenant does not degrade under AC
		// (allow a sliver of noise).
		if byCfg[ACOnly].TpmC < byCfg[NoLimits].TpmC*0.9 {
			t.Fatalf("tpmC fell with AC: %.0f vs %.0f", byCfg[ACOnly].TpmC, byCfg[NoLimits].TpmC)
		}
	}
	// Fig 12/13 render.
	if Fig12Table(ACOnly, res.Timelines[ACOnly]) == nil ||
		Fig13Table(ACOnly, res.Timelines[ACOnly]) == nil {
		t.Fatal("timeline tables missing")
	}
}

func TestFig11SampledWorkloads(t *testing.T) {
	// The full 23-workload sweep runs in the bench harness; here a sample
	// checks the estimate/actual machinery end to end.
	ctx := context.Background()
	specs := fig11Workloads()
	if len(specs) != 23 {
		t.Fatalf("workload count = %d, want 23", len(specs))
	}
	for _, name := range []string{"ycsb-C", "kv-read50"} {
		var spec fig11Workload
		for _, s := range specs {
			if s.name == name {
				spec = s
				break
			}
		}
		est, err := fig11Run(ctx, spec, false)
		if err != nil {
			t.Fatal(err)
		}
		act, err := fig11Run(ctx, spec, true)
		if err != nil {
			t.Fatal(err)
		}
		if est.estimated <= 0 || act.actual <= 0 {
			t.Fatalf("%s: est=%v act=%v", name, est.estimated, act.actual)
		}
		ratio := float64(est.estimated) / float64(act.actual)
		if ratio < 0.4 || ratio > 2.5 {
			t.Fatalf("%s: ratio %.2f wildly off", name, ratio)
		}
	}
}

// Rows that print the same est/actual ratio come out by name, in whatever
// order they arrive and whatever their unprinted digits, and so does the
// worst outlier among points equally far from 1.
func TestFig11OrderBreaksTiesByName(t *testing.T) {
	points := []Fig11Point{
		{Name: "tpch-q9", Ratio: 1.1012},
		{Name: "ycsb-C", Ratio: 0.97},
		{Name: "import-600", Ratio: 1.0951},
		{Name: "kv-read50", Ratio: 1.21},
		{Name: "import-200", Ratio: 1.0998},
		{Name: "tpcc", Ratio: 0.79},
	}
	want := []string{"kv-read50", "import-200", "import-600", "tpch-q9", "ycsb-C", "tpcc"}
	for rot := range points {
		in := append(append([]Fig11Point(nil), points[rot:]...), points[:rot]...)
		sorted, worst := fig11Order(in)
		var got []string
		for _, p := range sorted {
			got = append(got, p.Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rotation %d: order %v, want %v", rot, got, want)
		}
		// kv-read50 (1.21) and tpcc (0.79) both print 0.21 from 1.
		if worst != "kv-read50" {
			t.Fatalf("rotation %d: worst outlier %q, want kv-read50", rot, worst)
		}
	}
}

func TestAblations(t *testing.T) {
	fair, table, err := AblationFIFOvsFair()
	if err != nil || table == nil {
		t.Fatal(err)
	}
	if fair.FairLightP99 >= fair.FIFOLightP99 {
		t.Fatalf("fair p99 %v not better than FIFO %v", fair.FairLightP99, fair.FIFOLightP99)
	}
	trickle, table2 := AblationTrickleGrants()
	if table2 == nil {
		t.Fatal("no trickle table")
	}
	if trickle.TrickleMaxStall >= trickle.StopStartMaxStall {
		t.Fatalf("trickle max stall %v not better than stop/start %v",
			trickle.TrickleMaxStall, trickle.StopStartMaxStall)
	}
	shape, table3 := AblationCostModelShape()
	if table3 == nil {
		t.Fatal("no shape table")
	}
	if shape.PiecewiseMaxErrPct >= shape.LinearMaxErrPct {
		t.Fatalf("piecewise err %.1f%% not better than linear %.1f%%",
			shape.PiecewiseMaxErrPct, shape.LinearMaxErrPct)
	}
	_, table4 := AblationWarmPool(20, 500)
	if table4 == nil {
		t.Fatal("no warm pool table")
	}
}

func TestTracezObservability(t *testing.T) {
	res, table, err := Tracez(TracezOptions{Queries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if table == nil {
		t.Fatal("no table")
	}
	// The full point-read path nests proxy.conn -> proxy.exchange ->
	// sqlnode.query -> sql.exec -> txn.run -> dist.send -> kv.eval.
	if res.DeepestChain < 5 {
		t.Fatalf("deepest span chain = %d, want >= 5\n%s", res.DeepestChain, res.Tracez)
	}
	// Admission-queue wait must surface as a span attribute the
	// experiment consumed.
	if res.AdmissionWaits == 0 {
		t.Fatalf("no kv.eval spans carried admission.wait\n%s", res.Tracez)
	}
	if !strings.Contains(res.Tracez, "proxy.conn") || !strings.Contains(res.Tracez, "kv.eval") {
		t.Fatalf("tracez dump missing ops:\n%s", res.Tracez)
	}
	if !strings.Contains(res.Metrics, "trace_spans_finished") {
		t.Fatalf("metrics dump missing trace counters:\n%s", res.Metrics)
	}
}
