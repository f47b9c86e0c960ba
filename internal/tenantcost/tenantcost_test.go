package tenantcost

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/timeutil"
)

func TestECPUTokenConversion(t *testing.T) {
	e := ECPU(2.5)
	if e.Tokens() != 2500 {
		t.Fatalf("Tokens = %f", e.Tokens())
	}
}

func TestFeaturesFromBatch(t *testing.T) {
	req := &kvpb.BatchRequest{Requests: []kvpb.Request{
		{Method: kvpb.Get, Key: keys.Key("a")},
		{Method: kvpb.Scan, Key: keys.Key("a"), EndKey: keys.Key("z")},
		{Method: kvpb.Put, Key: keys.Key("kk"), Value: []byte("vvvv")},
	}}
	resp := &kvpb.BatchResponse{Responses: []kvpb.Response{
		{Value: []byte("123")},
	}}
	f := FeaturesFromBatch(req, resp)
	if f.ReadBatches != 1 || f.ReadRequests != 2 || f.ReadBytes != 3 {
		t.Fatalf("read features = %+v", f)
	}
	if f.WriteBatches != 1 || f.WriteRequests != 1 || f.WriteBytes != 6 {
		t.Fatalf("write features = %+v", f)
	}
}

func TestFeaturesFromBatchReadOnly(t *testing.T) {
	req := &kvpb.BatchRequest{Requests: []kvpb.Request{{Method: kvpb.Get, Key: keys.Key("a")}}}
	f := FeaturesFromBatch(req, nil)
	if f.WriteBatches != 0 || f.ReadBatches != 1 || f.ReadBytes != 0 {
		t.Fatalf("features = %+v", f)
	}
}

func TestBatchFeaturesAdd(t *testing.T) {
	a := BatchFeatures{ReadBatches: 1, WriteBytes: 10}
	a.Add(BatchFeatures{ReadBatches: 2, WriteBytes: 5, ReadRequests: 7})
	if a.ReadBatches != 3 || a.WriteBytes != 15 || a.ReadRequests != 7 {
		t.Fatalf("Add = %+v", a)
	}
}

func TestPiecewiseLinearEval(t *testing.T) {
	p := PiecewiseLinear{Points: []Point{{X: 0, Y: 0}, {X: 10, Y: 100}, {X: 20, Y: 150}}}
	cases := []struct{ x, want float64 }{
		{0, 0}, {5, 50}, {10, 100}, {15, 125}, {20, 150},
		{30, 200},   // extrapolate with last slope (5/unit)
		{-10, -100}, // extrapolate with first slope
	}
	for _, c := range cases {
		if got := p.Eval(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Eval(%f) = %f, want %f", c.x, got, c.want)
		}
	}
}

func TestPiecewiseLinearDegenerate(t *testing.T) {
	if got := (PiecewiseLinear{}).Eval(5); got != 0 {
		t.Fatalf("empty curve = %f", got)
	}
	one := PiecewiseLinear{Points: []Point{{X: 3, Y: 7}}}
	if got := one.Eval(100); got != 7 {
		t.Fatalf("single-knot curve = %f", got)
	}
}

func TestPiecewiseLinearValidate(t *testing.T) {
	bad := PiecewiseLinear{Points: []Point{{X: 1, Y: 0}, {X: 1, Y: 2}}}
	if bad.Validate() == nil {
		t.Fatal("duplicate X should fail validation")
	}
	good := PiecewiseLinear{Points: []Point{{X: 1, Y: 0}, {X: 2, Y: 2}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultModelProperties(t *testing.T) {
	m := DefaultModel()
	// Pricing is deterministic: same features, same estimate (a stated
	// design goal in §6.7).
	f := BatchFeatures{ReadBatches: 10, ReadRequests: 50, ReadBytes: 4096,
		WriteBatches: 5, WriteRequests: 20, WriteBytes: 2048}
	if m.EstimateKV(f) != m.EstimateKV(f) {
		t.Fatal("estimate not deterministic")
	}
	// More work costs more.
	small := BatchFeatures{ReadBatches: 1, ReadRequests: 1, ReadBytes: 64}
	big := BatchFeatures{ReadBatches: 100, ReadRequests: 100, ReadBytes: 6400}
	if m.EstimateKV(big) <= m.EstimateKV(small) {
		t.Fatal("bigger batch should cost more")
	}
	// Writes cost more than reads of equal shape.
	r := BatchFeatures{ReadBatches: 10, ReadRequests: 10, ReadBytes: 1000}
	w := BatchFeatures{WriteBatches: 10, WriteRequests: 10, WriteBytes: 1000}
	if m.EstimateKV(w) <= m.EstimateKV(r) {
		t.Fatal("writes should price above reads")
	}
}

func TestDefaultModelBatchingEfficiency(t *testing.T) {
	// The Fig 5 shape: per-batch marginal cost decreases with volume.
	m := DefaultModel()
	lowRate := m.WriteBatch.Eval(100) / 100
	highRate := m.WriteBatch.Eval(10000) / 10000
	if highRate >= lowRate {
		t.Fatalf("batching efficiency missing: %g >= %g", highRate, lowRate)
	}
}

func TestFitPiecewiseRecoversCurve(t *testing.T) {
	// Ground truth: cost = 50µs per batch up to 1000/s, then 30µs.
	truth := func(x float64) float64 {
		if x <= 1000 {
			return x * 50e-6
		}
		return 1000*50e-6 + (x-1000)*30e-6
	}
	var xs, ys []float64
	for x := 10.0; x <= 5000; x += 10 {
		xs = append(xs, x)
		ys = append(ys, truth(x))
	}
	fit, err := FitPiecewise(xs, ys, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{100, 900, 2000, 4500} {
		got, want := fit.Eval(x), truth(x)
		if math.Abs(got-want)/want > 0.15 {
			t.Fatalf("fit(%f) = %g, truth %g", x, got, want)
		}
	}
}

func TestFitPiecewiseErrors(t *testing.T) {
	if _, err := FitPiecewise(nil, nil, 4); err == nil {
		t.Fatal("empty fit should error")
	}
	if _, err := FitPiecewise([]float64{1}, []float64{1, 2}, 4); err == nil {
		t.Fatal("mismatched fit should error")
	}
	// Single point fits to a constant.
	fit, err := FitPiecewise([]float64{5}, []float64{9}, 4)
	if err != nil || fit.Eval(100) != 9 {
		t.Fatalf("single-point fit: %v %f", err, fit.Eval(100))
	}
}

func TestEstimateNonNegativeProperty(t *testing.T) {
	m := DefaultModel()
	f := func(rb, rr, rby, wb, wr, wby uint16) bool {
		feat := BatchFeatures{
			ReadBatches: int64(rb), ReadRequests: int64(rr), ReadBytes: int64(rby),
			WriteBatches: int64(wb), WriteRequests: int64(wr), WriteBytes: int64(wby),
		}
		return m.EstimateKV(feat) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketServerLumpGrants(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	s := NewBucketServer(mc)
	s.SetQuota(2, 1) // 1 vCPU = 1000 tokens/s, burst 10000
	mc.Advance(10 * time.Second)
	if got := s.Available(2); got != 10000 {
		t.Fatalf("available = %f, want full burst 10000", got)
	}
	resp := s.Request(2, 1, 100, 5000)
	if resp.Granted != 5000 || resp.TrickleRate != 0 {
		t.Fatalf("grant = %+v", resp)
	}
	if got := s.Available(2); got != 5000 {
		t.Fatalf("available after grant = %f", got)
	}
}

func TestBucketServerUnlimitedWithoutQuota(t *testing.T) {
	s := NewBucketServer(timeutil.NewManualClock(time.Unix(0, 0)))
	resp := s.Request(7, 1, 1e9, 1e9)
	if resp.Granted != 1e9 || resp.TrickleRate != 0 {
		t.Fatalf("unlimited tenant grant = %+v", resp)
	}
	if q := s.Quota(7); q != 0 {
		t.Fatalf("quota = %f", q)
	}
	if q := s.Quota(99); q != 0 {
		t.Fatalf("unknown tenant quota = %f", q)
	}
}

// TestBucketServerKeepsNoBucketWithoutQuota: tenants without a quota are
// granted what they ask and report nothing available, and the server keeps
// no state for them.
func TestBucketServerKeepsNoBucketWithoutQuota(t *testing.T) {
	s := NewBucketServer(timeutil.NewManualClock(time.Unix(0, 0)))
	for tenant := keys.TenantID(2); tenant < 102; tenant++ {
		if resp := s.Request(tenant, 1, 500, 5000); resp.Granted != 5000 || resp.TrickleRate != 0 {
			t.Fatalf("tenant %d without a quota: grant %+v", tenant, resp)
		}
		if got := s.Available(tenant); got != 0 {
			t.Fatalf("tenant %d without a quota: available %f", tenant, got)
		}
	}
	if n := len(s.tenants); n != 0 {
		t.Fatalf("server holds %d buckets for tenants without a quota", n)
	}
}

func TestBucketServerTrickleWhenEmpty(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	s := NewBucketServer(mc)
	s.SetQuota(2, 10) // 10,000 tokens/s
	mc.Advance(10 * time.Second)
	// Drain the burst.
	s.Request(2, 1, 10000, 100000)
	resp := s.Request(2, 1, 10000, 50000)
	if resp.TrickleRate <= 0 {
		t.Fatalf("expected trickle grant, got %+v", resp)
	}
	// Single node: trickle should be the full refill rate.
	if math.Abs(resp.TrickleRate-10000) > 1 {
		t.Fatalf("trickle rate = %f, want 10000", resp.TrickleRate)
	}
}

func TestBucketServerTrickleSharesConvergeToRefill(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	s := NewBucketServer(mc)
	s.SetQuota(2, 10)       // refill 10,000 tokens/s
	s.Request(2, 1, 0, 1e9) // drain

	// Three nodes with demand 3000, 6000, 9000 tokens/s repeatedly request.
	demands := map[int32]float64{1: 3000, 2: 6000, 3: 9000}
	var last map[int32]float64
	for round := 0; round < 20; round++ {
		last = map[int32]float64{}
		for node, d := range demands {
			resp := s.Request(2, node, d, d)
			last[node] = resp.TrickleRate
		}
		mc.Advance(10 * time.Millisecond)
	}
	var sum float64
	for _, r := range last {
		sum += r
	}
	if math.Abs(sum-10000)/10000 > 0.05 {
		t.Fatalf("sum of trickle rates = %f, want ~10000", sum)
	}
	// Shares proportional to demand: node 3 gets 3x node 1.
	if ratio := last[3] / last[1]; math.Abs(ratio-3) > 0.5 {
		t.Fatalf("trickle share ratio = %f, want ~3", ratio)
	}
}

func TestNodeBucketBurstsFromLocalBuffer(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	s := NewBucketServer(mc)
	s.SetQuota(2, 100) // effectively unconstrained
	mc.Advance(10 * time.Second)
	nb := NewNodeBucket(s, mc, 2, 1, nil)
	// First consume fetches a lump; subsequent small consumes hit the
	// local buffer with zero delay.
	if d := nb.Consume(10); d != 0 {
		t.Fatalf("first consume delayed %v", d)
	}
	delayed := 0
	for i := 0; i < 10; i++ {
		mc.Advance(10 * time.Millisecond)
		if d := nb.Consume(1); d != 0 {
			delayed++
		}
	}
	if delayed != 0 {
		t.Fatalf("%d consumes delayed despite ample quota", delayed)
	}
	if nb.Consumed() != 20 {
		t.Fatalf("consumed = %f", nb.Consumed())
	}
}

func TestNodeBucketSmoothThrottleUnderTrickle(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	s := NewBucketServer(mc)
	s.SetQuota(2, 1) // 1000 tokens/s
	nb := NewNodeBucket(s, mc, 2, 1, nil)
	// Consume far beyond the refill, sleeping each returned delay as a real
	// caller would: consumption must be smeared at ~the trickle rate rather
	// than stop/start.
	var totalDelay, maxDelay time.Duration
	for i := 0; i < 50; i++ {
		d := nb.Consume(1000) // each = 1 second of eCPU
		totalDelay += d
		if d > maxDelay {
			maxDelay = d
		}
		mc.Advance(d + 10*time.Millisecond)
	}
	if totalDelay <= 0 {
		t.Fatal("over-quota consumption produced no throttling")
	}
	// 50,000 tokens at 1000 tokens/s needs ~50s of smearing; allow slack
	// for the initial burst credit.
	if totalDelay < 20*time.Second || totalDelay > 80*time.Second {
		t.Fatalf("total delay %v not in the smooth-throttle range", totalDelay)
	}
	// Smoothness: no single operation waits wildly longer than its own
	// cost at the trickle rate.
	if maxDelay > 5*time.Second {
		t.Fatalf("max per-op delay %v is stop/start, not smooth", maxDelay)
	}
}

func TestNodeBucketZeroConsume(t *testing.T) {
	s := NewBucketServer(timeutil.NewManualClock(time.Unix(0, 0)))
	nb := NewNodeBucket(s, timeutil.NewManualClock(time.Unix(0, 0)), 2, 1, nil)
	if d := nb.Consume(0); d != 0 {
		t.Fatalf("Consume(0) = %v", d)
	}
	if d := nb.Consume(-5); d != 0 {
		t.Fatalf("Consume(-5) = %v", d)
	}
}

func TestQuotaTimestampIndependence(t *testing.T) {
	// Regression guard: an hlc timestamp type is unrelated, but the bucket
	// must not interact with wall-clock regressions; a stale SetQuota after
	// refill must clamp tokens to the new burst.
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	s := NewBucketServer(mc)
	s.SetQuota(2, 100)
	mc.Advance(time.Hour)
	if got := s.Available(2); got != 100*1000*10 {
		t.Fatalf("burst = %f", got)
	}
	s.SetQuota(2, 1)
	if got := s.Available(2); got > 1*1000*10 {
		t.Fatalf("tokens not clamped after quota reduction: %f", got)
	}
	_ = hlc.Timestamp{}
}

// TestThrottleChargesSharedTotalOnce has callers share one bucket and one
// running total, as a tenant's sessions do: each charges the total it last
// saw, possibly stale, and the bucket consumes exactly the total.
func TestThrottleChargesSharedTotalOnce(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	s := NewBucketServer(mc)
	s.SetQuota(2, 100) // effectively unconstrained
	mc.Advance(10 * time.Second)
	nb := NewNodeBucket(s, mc, 2, 1, nil)
	var total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				nb.Throttle(context.Background(), float64(total.Add(3)))
			}
		}()
	}
	wg.Wait()
	nb.Throttle(context.Background(), float64(total.Load()))
	if got := nb.Consumed(); got != 1200 {
		t.Fatalf("consumed %.0f tokens for a total of 1200", got)
	}
}

// TestThrottleWaitEndsWithCtx checks that an over-quota caller waits on the
// clock only until its context ends.
func TestThrottleWaitEndsWithCtx(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	s := NewBucketServer(mc)
	s.SetQuota(2, 1) // 1000 tokens/s, and the bucket starts empty
	nb := NewNodeBucket(s, mc, 2, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		nb.Throttle(ctx, 5000) // seconds of delay on a clock nobody advances
		close(done)
	}()
	for mc.NumWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("throttle wait outlived its context")
	}
}

// consumeFlatOut runs consumers on the given number of SQL nodes of one
// tenant with a 1-vCPU quota for d of manual-clock time. It returns the
// tokens they consumed, and the bucket's balance after a further idle
// second. Each operation charges 10 tokens, takes 1 ms and then waits out
// the returned delay, so every node alone demands 10 vCPUs.
func consumeFlatOut(nodes int, d time.Duration) (consumed, idleBalance float64) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	s := NewBucketServer(mc)
	s.SetQuota(2, 1)
	buckets := make([]*NodeBucket, nodes)
	next := make([]time.Time, nodes)
	for i := range buckets {
		buckets[i] = NewNodeBucket(s, mc, 2, int32(i+1), nil)
		next[i] = mc.Now()
	}
	end := mc.Now().Add(d)
	for {
		i := 0
		for j := range next {
			if next[j].Before(next[i]) {
				i = j
			}
		}
		if !next[i].Before(end) {
			break
		}
		mc.AdvanceTo(next[i])
		delay := buckets[i].Consume(10)
		consumed += 10
		next[i] = next[i].Add(time.Millisecond + delay)
	}
	mc.AdvanceTo(end.Add(2 * time.Second))
	return consumed, s.Available(2)
}

// TestMeteringConservedUnderTrickle: consumers that stay over quota for 10 s
// consume the quota's 10 000 tokens, whether one node or two share the
// bucket. Trickle grants count against the bucket, so its refill is not
// handed out a second time as a lump. A node that asks again inside its
// trickle window is charged only for the extension, so two idle seconds
// later the bucket has repaid the trickle windows still owed and holds
// tokens again.
func TestMeteringConservedUnderTrickle(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		got, idle := consumeFlatOut(nodes, 10*time.Second)
		if math.Abs(got-10000)/10000 > 0.01 {
			t.Errorf("%d node(s) consumed %.0f tokens in 10 s on a 1-vCPU quota, want 10000 ±1%%", nodes, got)
		}
		if idle <= 0 {
			t.Errorf("%d node(s): bucket still empty 2 s after its consumers stopped; trickle windows were charged more than once", nodes)
		}
	}
}
