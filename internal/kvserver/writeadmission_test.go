package kvserver

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/timeutil"
)

// newWriteNode returns a one-node cluster on a manual clock whose engine
// flushes every 64 KiB, with its fault sites armed through reg, and a
// DistSender for tenant 2.
func newWriteNode(t *testing.T, reg *faultinject.Registry) (*Node, *DistSender, *timeutil.ManualClock) {
	t.Helper()
	mc := timeutil.NewManualClock(time.Unix(10_000, 0))
	c := newTestCluster(t, 1, func(cfg *NodeConfig) {
		cfg.Clock = mc
		cfg.LSM = lsm.Options{MemTableSize: 64 << 10, Faults: reg}
	})
	n, _ := c.Node(1)
	return n, NewDistSender(c, Identity{Tenant: 2}), mc
}

// putValue writes size bytes under key. A write the write queue holds waits
// on the manual clock, which only the test moves, so the deadline turns it
// into an error instead of a hang.
func putValue(ds *DistSender, key string, size int) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := ds.Send(ctx, &kvpb.BatchRequest{Tenant: 2,
		Requests: []kvpb.Request{putReq(tenantKey(2, key), strings.Repeat("v", size))}})
	return err
}

// TestWriteAdmissionLightThenBurst: a node that writes lightly for three
// minutes, with L0 shallow throughout, stays unlimited, and admits a later
// burst at once. A rate that followed demand would have fallen to what the
// light load asked for and held the burst to it.
func TestWriteAdmissionLightThenBurst(t *testing.T) {
	n, ds, mc := newWriteNode(t, nil)
	for step := 0; step < 12; step++ {
		for i := 0; i < 100; i++ { // 0.4 MB a step, charged 0.8 MB, about six flushes
			if err := putValue(ds, fmt.Sprintf("light-%d-%d", step, i), 4000); err != nil {
				t.Fatalf("step %d write %d: %v", step, i, err)
			}
		}
		if l0 := n.Engine().Metrics().L0Files; l0 > 3 {
			t.Fatalf("step %d: L0 holds %d files, want at most 3", step, l0)
		}
		for i := 0; i < 150; i++ { // 15 s of 100 ms upkeep rounds
			mc.Advance(100 * time.Millisecond)
			n.Tick()
		}
	}
	if _, wq := n.AdmissionStats(); !math.IsInf(wq.Rate, 1) {
		t.Fatalf("after three light minutes the write rate is %.0f B/s, want unlimited", wq.Rate)
	}
	// 40 writes of 128 KB, 5 MB, with the clock stopped: a write that queued
	// would wait for a refill that never comes.
	for i := 0; i < 40; i++ {
		if err := putValue(ds, fmt.Sprintf("burst-%d", i), 128<<10); err != nil {
			t.Fatalf("burst write %d: %v", i, err)
		}
	}
	if _, wq := n.AdmissionStats(); wq.Waiting != 0 || !math.IsInf(wq.Rate, 1) {
		t.Fatalf("after the burst: %+v, want unlimited with nothing waiting", wq)
	}
}

// fillL0 writes until the engine's L0 holds more than 8 files, which needs
// compactions to fail.
func fillL0(t *testing.T, n *Node, ds *DistSender) {
	t.Helper()
	for i := 0; n.Engine().Metrics().L0Files <= 8; i++ {
		if i == 50 {
			t.Fatalf("L0 holds %d files after 50 flushes", n.Engine().Metrics().L0Files)
		}
		if err := putValue(ds, fmt.Sprintf("fill-%d", i), 64<<10); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriteAdmissionCompactionFault: with compactions failing, L0 passes its
// threshold and the next interval rates writes at the floor, so writes
// queue. Once compactions succeed again a flush drains L0, and the next
// interval lifts the limit.
func TestWriteAdmissionCompactionFault(t *testing.T) {
	reg := faultinject.New(1, nil)
	reg.Enable("lsm.compact.error", faultinject.Site{Probability: 1})
	n, ds, mc := newWriteNode(t, reg)
	fillL0(t, n, ds)
	mc.Advance(writeRateInterval)
	n.Tick()
	if _, wq := n.AdmissionStats(); wq.Rate != 1<<20 {
		t.Fatalf("with L0 at %d files and nothing drained, the rate is %v B/s, want the 1 MiB/s floor",
			n.Engine().Metrics().L0Files, wq.Rate)
	}

	// A write charged about 800 KB fits the full 1 MiB bucket; the next queues.
	if err := putValue(ds, "throttled-0", 400_000); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- putValue(ds, "throttled-1", 400_000) }()
	for {
		if _, wq := n.AdmissionStats(); wq.Waiting == 1 {
			break
		}
		select {
		case err := <-queued:
			t.Fatalf("the second write was not held: %v", err)
		case <-time.After(time.Millisecond):
		}
	}

	// The refill grants the queued write, whose flush compacts L0.
	reg.DisableAll()
	mc.Advance(time.Second)
	n.Tick()
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	if l0 := n.Engine().Metrics().L0Files; l0 > 8 {
		t.Fatalf("L0 holds %d files after a flush with compactions on", l0)
	}
	mc.Advance(writeRateInterval - time.Second)
	n.Tick()
	if _, wq := n.AdmissionStats(); !math.IsInf(wq.Rate, 1) {
		t.Fatalf("with L0 drained the rate is %v B/s, want unlimited", wq.Rate)
	}
}

// TestNodeTickAllocatesNothing: the upkeep round runs ten times a second on
// every node, so it allocates nothing, whether the write queue is unlimited
// or throttled and whether or not the round re-rates it. One run is a whole
// rate interval of rounds, since AllocsPerRun rounds its average down and
// would hide an allocation made only by the one round in 150 that re-rates.
func TestNodeTickAllocatesNothing(t *testing.T) {
	reg := faultinject.New(1, nil)
	n, ds, mc := newWriteNode(t, reg)
	interval := func() {
		for i := 0; i < 150; i++ {
			mc.Advance(100 * time.Millisecond)
			n.Tick()
		}
	}
	if allocs := testing.AllocsPerRun(4, interval); allocs != 0 {
		t.Errorf("unlimited: %v allocs per 15 s of rounds, want 0", allocs)
	}
	reg.Enable("lsm.compact.error", faultinject.Site{Probability: 1})
	fillL0(t, n, ds)
	if allocs := testing.AllocsPerRun(4, interval); allocs != 0 {
		t.Errorf("throttled: %v allocs per 15 s of rounds, want 0", allocs)
	}
	if _, wq := n.AdmissionStats(); math.IsInf(wq.Rate, 1) {
		t.Fatal("the write queue was never throttled")
	}
}
