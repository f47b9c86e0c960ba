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

	"crdbserverless/internal/autoscaler"
	"crdbserverless/internal/core"
	"crdbserverless/internal/experiments"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/orchestrator"
	"crdbserverless/internal/tenantcost"
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
	// configured quiet period.
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	node := kvserver.NewNode(kvserver.NodeConfig{ID: 1, VCPUs: 8, Clock: clock})
	cluster, err := kvserver.NewCluster(kvserver.ClusterConfig{Clock: clock}, []*kvserver.Node{node})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	reg, err := core.NewRegistry(cluster, tenantcost.NewBucketServer(clock))
	if err != nil {
		log.Fatal(err)
	}
	orch, err := orchestrator.New(orchestrator.Config{
		Cluster: cluster, Registry: reg, Clock: clock,
		Region: "us-central1", WarmPoolSize: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer orch.Close()
	as := autoscaler.New(autoscaler.Config{
		Orchestrator: orch, Registry: reg, Clock: clock,
		SuspendAfter: 5 * time.Minute,
	})

	ctx := context.Background()
	tenant, err := reg.CreateTenant(ctx, "sleepy", core.TenantOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := orch.ScaleTenant(ctx, tenant, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tenant 'sleepy' active with 1 SQL node; going idle...")
	for i := 0; i < 130; i++ { // ~6.5 simulated minutes of silence
		clock.Advance(3 * time.Second)
		if err := as.Tick(ctx); err != nil {
			log.Fatal(err)
		}
	}
	t, _ := reg.GetByName("sleepy")
	fmt.Printf("after %.0f idle minutes: state=%s, pods=%d (scale to zero, §4.2.3)\n",
		6.5, t.State, len(orch.PodsForTenant("sleepy")))
}
