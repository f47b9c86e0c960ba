// Command repro regenerates the paper's tables and figures (§6) on the
// simulated substrate. Each experiment prints rows/series mirroring the
// paper's presentation.
//
// Usage:
//
//	repro -experiment all
//	repro -experiment fig6
//	repro -list
//
// Experiments: fig5, fig6, fig7, fig8, fig9, fig10a, fig10b, table1 (also
// emits fig12+fig13), tracez, fleetobs (per-tenant observability under a
// noisy-neighbor storm), fig11, pushdown, kvscaling, chaos (seeded fault
// storm; -chaos-seed reproduces a run), mergestorm (split/merge churn against
// the range directory), ablations.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"crdbserverless/internal/experiments"
)

type experiment struct {
	name string
	desc string
	run  func() error
}

func main() {
	var (
		which     = flag.String("experiment", "all", "experiment id or 'all'")
		list      = flag.Bool("list", false, "list experiments and exit")
		quick     = flag.Bool("quick", false, "smaller sizes for a fast pass")
		chaosSeed = flag.Int64("chaos-seed", 1, "seed for the chaos experiment; same seed reproduces the run")
	)
	flag.Parse()

	exps := buildExperiments(*quick, *chaosSeed)
	if *list {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}
	ran := 0
	for _, e := range exps {
		if *which != "all" && *which != e.name {
			continue
		}
		ran++
		start := time.Now() //lint:allow directtime CLI progress display wants real wall time
		fmt.Printf("--- %s: %s\n", e.name, e.desc)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		//lint:allow directtime CLI progress display wants real wall time
		fmt.Printf("--- %s done in %v\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *which)
		os.Exit(1)
	}
}

func buildExperiments(quick bool, chaosSeed int64) []experiment {
	scale := func(full, small int) int {
		if quick {
			return small
		}
		return full
	}
	return []experiment{
		{"fig5", "write-batch rate vs CPU efficiency; piecewise-linear fit (§5.2.1)", func() error {
			_, table := experiments.Fig5()
			fmt.Print(table)
			return nil
		}},
		{"fig6", "TPC-C / TPC-H Q1 / Q9: Serverless vs Traditional CPU & latency (§6.1)", func() error {
			_, table, err := experiments.Fig6(experiments.Fig6Options{
				TPCCOps:  scale(60, 15),
				TPCHRows: scale(800, 300),
				TPCHRuns: scale(10, 4),
			})
			if err != nil {
				return err
			}
			fmt.Print(table)
			return nil
		}},
		{"fig7", "per-tenant overhead of suspended and idle tenants (§6.2)", func() error {
			opts := experiments.Fig7Options{}
			if quick {
				opts.SuspendedCounts = []int{20, 100}
				opts.IdleCounts = []int{4}
			}
			_, table, err := experiments.Fig7(opts)
			if err != nil {
				return err
			}
			fmt.Print(table)
			return nil
		}},
		{"fig8", "autoscaler tracks a bursty CPU trace (§6.3)", func() error {
			_, table, err := experiments.Fig8()
			if err != nil {
				return err
			}
			fmt.Print(table)
			return nil
		}},
		{"fig9", "rolling upgrade with session migration (§6.4)", func() error {
			opts := experiments.Fig9Options{}
			if quick {
				opts.Phase = 300 * time.Millisecond
				opts.Connections = 4
			}
			_, table, err := experiments.Fig9(opts)
			if err != nil {
				return err
			}
			fmt.Print(table)
			return nil
		}},
		{"fig10a", "cold start latency: pre-warmed SQL processes (§6.5.1)", func() error {
			_, table, err := experiments.Fig10a(scale(2000, 400))
			if err != nil {
				return err
			}
			fmt.Print(table)
			return nil
		}},
		{"fig10b", "multi-region cold starts: region-aware system DB (§6.5.2)", func() error {
			_, table := experiments.Fig10b(scale(2000, 400))
			fmt.Print(table)
			return nil
		}},
		{"table1", "noisy neighbors: No Limits / AC / AC+eCPU, plus Fig 12 & 13 (§6.6)", func() error {
			opts := experiments.Table1Options{}
			if quick {
				opts.Duration = time.Second
			}
			res, table, err := experiments.Table1(opts)
			if err != nil {
				return err
			}
			fmt.Print(table)
			for _, cfg := range []experiments.NoisyConfig{
				experiments.NoLimits, experiments.ACOnly, experiments.ACAndECPU,
			} {
				fmt.Println()
				fmt.Print(experiments.Fig12Table(cfg, res.Timelines[cfg]))
				fmt.Println()
				fmt.Print(experiments.Fig13Table(cfg, res.Timelines[cfg]))
			}
			return nil
		}},
		{"tracez", "observability: end-to-end request traces and the debug surfaces", func() error {
			res, table, err := experiments.Tracez(experiments.TracezOptions{Queries: scale(50, 10)})
			if err != nil {
				return err
			}
			fmt.Print(table)
			fmt.Println()
			fmt.Print(res.Tracez)
			fmt.Println()
			fmt.Print(res.Metrics)
			return nil
		}},
		{"fleetobs", "per-tenant observability plane under a 1k-tenant noisy-neighbor storm", func() error {
			res, table, err := experiments.FleetObs(experiments.FleetObsOptions{
				Tenants:    scale(1000, 120),
				CalmTicks:  scale(20, 12),
				StormTicks: scale(8, 6),
			})
			if err != nil {
				return err
			}
			fmt.Print(table)
			fmt.Println()
			fmt.Print(res.Tenantz)
			fmt.Println()
			fmt.Print(res.VictimPage)
			fmt.Println()
			fmt.Print(res.AggressorPage)
			if !res.DeterminismOK {
				return fmt.Errorf("fleetobs: same-seed runs rendered different debug pages")
			}
			return nil
		}},
		{"fig11", "estimated CPU model accuracy on 23 held-out workloads (§6.7)", func() error {
			_, table, err := experiments.Fig11()
			if err != nil {
				return err
			}
			fmt.Print(table)
			return nil
		}},
		{"pushdown", "extension (§8): row-filter push-down on selective full scans", func() error {
			_, table, err := experiments.AblationFilterPushdown(scale(1000, 400), scale(8, 4))
			if err != nil {
				return err
			}
			fmt.Print(table)
			return nil
		}},
		{"kvscaling", "extension (§8): automatic KV node scaling across a load cycle", func() error {
			res, table, err := experiments.ExtensionKVScaling()
			if err != nil {
				return err
			}
			fmt.Print(table)
			if !res.DataOK || res.MaxNodes <= 3 || res.EndNodes != 3 {
				return fmt.Errorf("kv scaling cycle: peak %d nodes, end %d, data ok=%v; want a peak above 3, an end at 3 and data ok",
					res.MaxNodes, res.EndNodes, res.DataOK)
			}
			return nil
		}},
		{"chaos", "deterministic fault injection: seeded failure storm + consistency invariants", func() error {
			res, err := experiments.Chaos(context.Background(), experiments.ChaosOptions{
				Seed: chaosSeed,
				Ops:  scale(5000, 1000),
			})
			if err != nil {
				return err
			}
			fmt.Print(res.Table)
			if len(res.Violations) > 0 {
				for _, v := range res.Violations {
					fmt.Fprintf(os.Stderr, "violation: %s\n", v)
				}
				return fmt.Errorf("chaos run (seed=%d) found %d invariant violations; rerun with -chaos-seed=%d to reproduce",
					res.Seed, len(res.Violations), res.Seed)
			}
			fmt.Printf("all invariants held (rerun with -chaos-seed=%d for the identical schedule)\n", res.Seed)
			return nil
		}},
		{"mergestorm", "chaos profile: split/merge storm against the range directory + partition invariant", func() error {
			res, err := experiments.Chaos(context.Background(), experiments.ChaosOptions{
				Seed:       chaosSeed,
				Ops:        scale(2000, 600),
				MergeStorm: true,
			})
			if err != nil {
				return err
			}
			fmt.Print(res.Table)
			if len(res.Violations) > 0 {
				for _, v := range res.Violations {
					fmt.Fprintf(os.Stderr, "violation: %s\n", v)
				}
				return fmt.Errorf("merge storm (seed=%d) found %d invariant violations; rerun with -chaos-seed=%d to reproduce",
					res.Seed, len(res.Violations), res.Seed)
			}
			if res.Merges == 0 || res.Splits == 0 {
				return fmt.Errorf("merge storm did not churn the directory: splits=%d merges=%d", res.Splits, res.Merges)
			}
			fmt.Printf("all invariants held across %d splits and %d merges (seed=%d)\n", res.Splits, res.Merges, res.Seed)
			return nil
		}},
		{"ablations", "design-choice ablations (fair queueing, trickle grants, model shape, warm pool)", func() error {
			_, t1, err := experiments.AblationFIFOvsFair()
			if err != nil {
				return err
			}
			fmt.Print(t1)
			fmt.Println()
			_, t2 := experiments.AblationTrickleGrants()
			fmt.Print(t2)
			fmt.Println()
			_, t3 := experiments.AblationCostModelShape()
			fmt.Print(t3)
			fmt.Println()
			_, t4 := experiments.AblationWarmPool(20, scale(2000, 500))
			fmt.Print(t4)
			return nil
		}},
	}
}
