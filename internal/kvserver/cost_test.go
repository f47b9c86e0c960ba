package kvserver

import (
	"testing"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/timeutil"
)

// The modelled cost of a batch depends on when batches arrive, not only on
// what they hold: Node.recordBatch keeps an EWMA of the node's batch arrival
// rate on its clock, and BatchCost's per-batch overhead falls as that rate
// grows (Fig 5's amortization). On a real clock the rate is wall-clock
// timing, so the same workload at the same seed is billed a little
// differently run to run, and a lease transfer changes which node's rate a
// range's batches see. The same arrivals on a manual clock are billed the
// same.
func TestBatchCostFollowsArrivalRate(t *testing.T) {
	ba := &kvpb.BatchRequest{Tenant: 2, Requests: []kvpb.Request{{Method: kvpb.Get, Key: keys.Key("k")}}}
	resp := &kvpb.BatchResponse{Responses: []kvpb.Response{{Value: make([]byte, 256), Exists: true}}}
	// cost replays n batches spaced gap apart on a fresh node and returns
	// the modelled cost of the last.
	cost := func(gap time.Duration, n int) time.Duration {
		clock := timeutil.NewManualClock(time.Unix(0, 0))
		node := NewNode(NodeConfig{ID: 1, VCPUs: 1, Clock: clock})
		var rate float64
		for i := 0; i < n; i++ {
			clock.Advance(gap)
			rate = node.recordBatch()
		}
		return node.cost.BatchCost(ba, resp, rate, true)
	}
	slow, fast := cost(100*time.Millisecond, 200), cost(100*time.Microsecond, 30000)
	if fast >= slow {
		t.Fatalf("a batch costs %v at 10 batches/s and %v at 10 000/s: want the faster stream cheaper", slow, fast)
	}
	c := DefaultCostConfig()
	maxSaving := time.Duration(float64(c.ReadBatchOverhead) * c.BatchAmortization)
	if slow-fast > maxSaving {
		t.Fatalf("amortization saved %v, more than the %v the read overhead allows", slow-fast, maxSaving)
	}
	if again := cost(100*time.Microsecond, 30000); again != fast {
		t.Fatalf("the same arrivals cost %v, then %v", fast, again)
	}
	// A 1 % change in the arrival rate moves the bill of a point read.
	if near := cost(101*time.Microsecond, 30000); near == fast {
		t.Fatalf("a 1%% slower stream costs the same %v", near)
	}
}
