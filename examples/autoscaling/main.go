// Autoscaling: replay a bursty load trace through the autoscaler on a
// simulated clock and print how SQL node allocation tracks usage — the
// behavior of §4.2.3 / Fig 8 — then let the tenant go idle and watch it
// suspend to zero.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"crdbserverless"
	"crdbserverless/internal/experiments"
	"crdbserverless/internal/timeutil"
)

func main() {
	// The Fig 8 trace through the shared experiment harness.
	res, table, err := experiments.Fig8()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(table)
	fmt.Printf("\nallocation tracked load with %.1fx mean headroom "+
		"(the 4x-average rule), under-provisioned %.0f%% of the time\n\n",
		res.MeanHeadroom, res.UnderProvisionedFrac*100)

	// Scale-to-zero: a tenant that goes fully idle is suspended after the
	// autoscaler's quiet period.
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	srv, err := crdbserverless.New(crdbserverless.Options{KVNodesPerRegion: 1, Clock: clock})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	orch := srv.Orchestrator("us-central1")

	ctx := context.Background()
	tenant, err := srv.CreateTenant(ctx, "sleepy", crdbserverless.TenantOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := orch.ScaleTenant(ctx, tenant, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tenant 'sleepy' active with 1 SQL node; going idle...")
	start := clock.Now()
	clock.Advance(390 * time.Second) // 6.5 simulated minutes of silence
	// A tenant with no pods is suspended: the next connection cold-starts it.
	pods := len(orch.PodsForTenant("sleepy"))
	state := "active"
	if pods == 0 {
		state = "suspended"
	}
	fmt.Printf("after %s idle: state=%s, pods=%d (scale to zero, §4.2.3)\n",
		clock.Since(start), state, pods)
}
