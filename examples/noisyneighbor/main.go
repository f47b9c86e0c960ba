// Noisyneighbor: three antagonist tenants hammer the shared KV layer while a
// well-behaved tenant runs a paced workload. Compare its latency with no
// limits, with admission control, and with admission control plus per-tenant
// eCPU limits (§5, §6.6).
package main

import (
	"fmt"
	"log"
	"time"

	"crdbserverless/internal/experiments"
)

func main() {
	fmt.Println("running the three §6.6 configurations (a few seconds each)...")
	res, table, err := experiments.Table1(experiments.Table1Options{
		Duration: 1500 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(table)
	fmt.Println()

	// Narrate the Fig 12 takeaway from the recorded timelines.
	for _, row := range res.Rows {
		cfg := row.Config
		tl := res.Timelines[cfg]
		if len(tl) == 0 {
			continue
		}
		last := tl[len(tl)-1]
		var cores float64
		for _, c := range last.CoresPerNode {
			cores += c
		}
		fmt.Printf("%-18s cluster cores in use at end: %.1f / %d", cfg, cores, row.ClusterVCPUs)
		if cfg == experiments.ACAndECPU {
			fmt.Printf("   <- eCPU limits cap the noisy tenants")
		}
		fmt.Println()
	}
}
