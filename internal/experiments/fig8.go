package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"crdbserverless"
	"crdbserverless/internal/timeutil"
)

// Fig8Point is one sample of the autoscaling trace.
type Fig8Point struct {
	At             time.Duration // offset from trace start
	UsedVCPUs      float64
	AllocatedVCPUs float64
}

// Fig8Result is the autoscaler-tracking trace plus fit statistics.
type Fig8Result struct {
	Series []Fig8Point
	// MeanHeadroom is mean(allocated/used) over samples with load — the
	// paper's expectation is ~4x (one node per average vCPU at 4-vCPU
	// nodes).
	MeanHeadroom float64
	// UnderProvisionedFrac is the fraction of loaded samples where usage
	// exceeded allocation.
	UnderProvisionedFrac float64
}

// Fig8 reproduces §6.3: replay a bursty CPU trace through the deployment's
// autoscaler (its loop runs inside each 3 s advance of a manual clock) and
// record used vs allocated vCPUs. The allocation curve should track the
// load with ~4x average headroom and react to spikes within seconds.
func Fig8() (*Fig8Result, *Table, error) {
	ctx := context.Background()
	clock := timeutil.NewManualClock(time.Unix(0, 0))
	srv, err := crdbserverless.New(crdbserverless.Options{KVNodesPerRegion: 1, Clock: clock})
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	orch := srv.Orchestrator("us-central1")
	tenant, err := srv.CreateTenant(ctx, "trace", crdbserverless.TenantOptions{})
	if err != nil {
		return nil, nil, err
	}
	if _, err := orch.ScaleTenant(ctx, tenant, 1); err != nil {
		return nil, nil, err
	}

	// A production-like trace: quiet, ramp, plateau, spike, decay — over
	// two simulated hours.
	load := func(t time.Duration) float64 {
		minutes := t.Minutes()
		switch {
		case minutes < 10:
			return 0.5
		case minutes < 30:
			return 0.5 + (minutes-10)/20*5 // ramp to 5.5
		case minutes < 60:
			return 5.5 + 1.5*math.Sin(minutes/3)
		case minutes < 65:
			return 14 // spike
		case minutes < 90:
			return 4
		default:
			return 0.8
		}
	}

	res := &Fig8Result{}
	start := clock.Now()
	var headroomSum float64
	var loaded, under int
	traceLen := 2 * time.Hour
	step := 3 * time.Second // the trace's resolution; one autoscaler round per step
	sampleEvery := time.Minute
	nextSample := time.Duration(0)
	for off := time.Duration(0); off < traceLen; off += step {
		vcpus := load(off)
		pods := orch.PodsForTenant("trace")
		per := 0.0
		if len(pods) > 0 {
			per = vcpus / float64(len(pods))
		}
		for _, p := range pods {
			p.Node.SetSyntheticLoad(per)
		}
		clock.Advance(step)
		if off >= nextSample {
			nextSample += sampleEvery
			allocated := float64(len(orch.PodsForTenant("trace"))) * 4
			res.Series = append(res.Series, Fig8Point{
				At:             clock.Now().Sub(start),
				UsedVCPUs:      vcpus,
				AllocatedVCPUs: allocated,
			})
			if vcpus > 1 {
				loaded++
				headroomSum += allocated / vcpus
				if vcpus > allocated {
					under++
				}
			}
		}
	}
	if loaded > 0 {
		res.MeanHeadroom = headroomSum / float64(loaded)
		res.UnderProvisionedFrac = float64(under) / float64(loaded)
	}

	table := &Table{
		Title:   "Fig 8: SQL nodes scale with CPU utilization (4 vCPUs per node)",
		Columns: []string{"t", "used vCPUs", "allocated vCPUs", "nodes"},
	}
	for _, p := range res.Series {
		if int(p.At.Minutes())%5 != 0 {
			continue // print every 5 minutes
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%dm", int(p.At.Minutes())),
			fmt.Sprintf("%.1f", p.UsedVCPUs),
			fmt.Sprintf("%.0f", p.AllocatedVCPUs),
			fmt.Sprintf("%.0f", p.AllocatedVCPUs/4),
		})
	}
	table.Rows = append(table.Rows, []string{"summary",
		fmt.Sprintf("headroom %.1fx", res.MeanHeadroom),
		fmt.Sprintf("under-provisioned %.0f%%", res.UnderProvisionedFrac*100), ""})
	return res, table, nil
}
