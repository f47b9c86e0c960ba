package crdbserverless_test

// One benchmark per table and figure of the paper's evaluation (§6), plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// regenerates its experiment through internal/experiments and reports the
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. The experiments are end-to-end runs, not
// microbenchmarks: run them with -benchtime=1x (the default b.N=1 pass is
// what they are designed for).

import (
	"testing"
	"time"

	"crdbserverless/internal/experiments"
)

// BenchmarkFig5WriteBatchModel regenerates Fig 5: the write-batch efficiency
// curve and its piecewise-linear fit.
func BenchmarkFig5WriteBatchModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, _ := experiments.Fig5()
		first, last := points[0], points[len(points)-1]
		b.ReportMetric(first.BatchesPerVCPUs, "batches/vcpu-low-rate")
		b.ReportMetric(last.BatchesPerVCPUs, "batches/vcpu-high-rate")
	}
}

// BenchmarkFig6Efficiency regenerates Fig 6: Serverless vs Traditional CPU
// for TPC-C and TPC-H Q1/Q9.
func BenchmarkFig6Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.Fig6(experiments.Fig6Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(r.CPURatio, r.Name+"-cpu-ratio")
		}
	}
}

// BenchmarkFig7TenantOverhead regenerates Fig 7: suspended and idle tenant
// overhead.
func BenchmarkFig7TenantOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig7(experiments.Fig7Options{})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Suspended[len(res.Suspended)-1]
		b.ReportMetric(float64(last.BytesPerTenant), "suspended-B/tenant")
		if len(res.Idle) > 0 {
			b.ReportMetric(float64(res.Idle[len(res.Idle)-1].BytesPerTenant), "idle-B/tenant")
			b.ReportMetric(res.IdleCPUPerTenant, "idle-cpu/tenant")
		}
	}
}

// BenchmarkFig8Autoscaler regenerates Fig 8: the autoscaler tracking a
// bursty production-like trace.
func BenchmarkFig8Autoscaler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanHeadroom, "mean-headroom-x")
		b.ReportMetric(res.UnderProvisionedFrac*100, "under-provisioned-%")
	}
}

// BenchmarkFig9Migration regenerates Fig 9: a rolling upgrade migrating
// every connection with no visible impact.
func BenchmarkFig9Migration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig9(experiments.Fig9Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Migrations), "migrations")
		b.ReportMetric(float64(res.Errors), "errors")
		b.ReportMetric(res.During.P99.Seconds()*1000, "during-p99-ms")
	}
}

// BenchmarkFig10aColdStart regenerates Fig 10a: cold-start latency with and
// without the pre-warmed SQL process.
func BenchmarkFig10aColdStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig10a(2000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Unoptimized.P50.Seconds(), "unopt-p50-s")
		b.ReportMetric(res.Optimized.P50.Seconds(), "opt-p50-s")
		b.ReportMetric(res.Optimized.P99.Seconds(), "opt-p99-s")
	}
}

// BenchmarkFig10bMultiRegion regenerates Fig 10b: multi-region cold starts
// under region-aware vs pinned system databases.
func BenchmarkFig10bMultiRegion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig10b(2000)
		var worstOpt time.Duration
		for _, r := range rows {
			if r.Optimized.P50 > worstOpt {
				worstOpt = r.Optimized.P50
			}
		}
		b.ReportMetric(worstOpt.Seconds(), "worst-region-opt-p50-s")
	}
}

// BenchmarkTable1NoisyNeighbor regenerates Table 1: the well-behaved
// tenant's latency and throughput under the three control configurations.
func BenchmarkTable1NoisyNeighbor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Table1(experiments.Table1Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			prefix := map[experiments.NoisyConfig]string{
				experiments.NoLimits:  "nolimits",
				experiments.ACOnly:    "ac",
				experiments.ACAndECPU: "ac+ecpu",
			}[row.Config]
			b.ReportMetric(row.P99.Seconds()*1000, prefix+"-p99-ms")
			b.ReportMetric(row.TpmC, prefix+"-tpmC")
		}
	}
}

// BenchmarkFig12Stability regenerates the Fig 12 series (per-node cores and
// leases) and reports lease-movement churn per configuration.
func BenchmarkFig12Stability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Table1(experiments.Table1Options{
			Configs: []experiments.NoisyConfig{experiments.NoLimits, experiments.ACOnly},
		})
		if err != nil {
			b.Fatal(err)
		}
		for cfg, tl := range res.Timelines {
			churn := 0
			for j := 1; j < len(tl); j++ {
				for n := range tl[j].LeasesPerNode {
					d := tl[j].LeasesPerNode[n] - tl[j-1].LeasesPerNode[n]
					if d < 0 {
						d = -d
					}
					churn += d
				}
			}
			name := "ac"
			if cfg == experiments.NoLimits {
				name = "nolimits"
			}
			b.ReportMetric(float64(churn), name+"-lease-moves")
		}
	}
}

// BenchmarkFig13TenantECPU regenerates the Fig 13 series and reports the
// noisy tenants' eCPU rate stability under limits.
func BenchmarkFig13TenantECPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Table1(experiments.Table1Options{
			Configs: []experiments.NoisyConfig{experiments.ACAndECPU},
		})
		if err != nil {
			b.Fatal(err)
		}
		tl := res.Timelines[experiments.ACAndECPU]
		var sum float64
		var n int
		for _, s := range tl[len(tl)/2:] { // steady-state half
			for name, rate := range s.ECPUPerTenant {
				if name != "test" {
					sum += rate
					n++
				}
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), "noisy-ecpu-vcpus-mean")
		}
	}
}

// BenchmarkFig11ModelAccuracy regenerates Fig 11: estimated vs actual CPU on
// the 23 held-out workloads. This is the longest experiment (~minutes).
func BenchmarkFig11ModelAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Within20Frac*100, "within-20pct-%")
	}
}

// BenchmarkExtensionFilterPushdown measures the §8 push-down on a selective
// full scan (filter push-down) and on TPC-H Q1 (aggregation push-down).
func BenchmarkExtensionFilterPushdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.AblationFilterPushdown(1000, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PenaltyNoPushdown, "penalty-no-pushdown-x")
		b.ReportMetric(res.PenaltyWithPushdown, "penalty-pushdown-x")
		b.ReportMetric(res.Q1PenaltyNoPushdown, "q1-penalty-no-pushdown-x")
		b.ReportMetric(res.Q1PenaltyWithPushdown, "q1-penalty-pushdown-x")
	}
}

// BenchmarkExtensionKVScaling exercises automatic KV node scaling (§8 future
// work) across a load cycle.
func BenchmarkExtensionKVScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.ExtensionKVScaling()
		if err != nil {
			b.Fatal(err)
		}
		if !res.DataOK {
			b.Fatal("data lost across the scale cycle")
		}
		b.ReportMetric(float64(res.MaxNodes), "peak-kv-nodes")
		b.ReportMetric(float64(res.EndNodes), "end-kv-nodes")
	}
}

// BenchmarkAblationFIFOvsFair isolates the heap-of-heaps fairness design.
func BenchmarkAblationFIFOvsFair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.AblationFIFOvsFair()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FIFOLightP99.Seconds()*1000, "fifo-light-p99-ms")
		b.ReportMetric(res.FairLightP99.Seconds()*1000, "fair-light-p99-ms")
	}
}

// BenchmarkAblationTrickleGrants isolates the trickle-grant design of
// §5.2.2.
func BenchmarkAblationTrickleGrants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := experiments.AblationTrickleGrants()
		b.ReportMetric(res.StopStartMaxStall.Seconds(), "stopstart-max-stall-s")
		b.ReportMetric(res.TrickleMaxStall.Seconds(), "trickle-max-stall-s")
	}
}

// BenchmarkAblationAutoscalerPeak quantifies the 1.33x-peak term's effect on
// spike reaction (the Fig 8 trace with the term disabled under-reacts).
func BenchmarkAblationAutoscalerPeak(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanHeadroom, "with-peak-headroom-x")
	}
}

// BenchmarkAblationWarmPool sweeps warm-pool sizes against cold-start
// arrivals.
func BenchmarkAblationWarmPool(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, _ := experiments.AblationWarmPool(20, 2000)
		b.ReportMetric(points[0].P50Latency.Seconds(), "pool0-p50-s")
		b.ReportMetric(points[len(points)-1].P50Latency.Seconds(), "pool8-p50-s")
	}
}

// BenchmarkAblationCostModelShape compares piecewise-linear and single-slope
// cost models over the Fig 5 sweep.
func BenchmarkAblationCostModelShape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := experiments.AblationCostModelShape()
		b.ReportMetric(res.PiecewiseMaxErrPct, "piecewise-maxerr-%")
		b.ReportMetric(res.LinearMaxErrPct, "linear-maxerr-%")
	}
}
