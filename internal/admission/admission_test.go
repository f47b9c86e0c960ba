package admission

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/timeutil"
)

func info(tenant keys.TenantID) WorkInfo {
	return WorkInfo{Tenant: tenant, Priority: kvpb.PriorityNormal}
}

func TestCPUQueueImmediateAdmit(t *testing.T) {
	q := NewCPUQueue(CPUQueueOptions{InitialSlots: 2})
	release, err := q.Admit(context.Background(), info(2))
	if err != nil {
		t.Fatal(err)
	}
	s := q.Stats()
	if s.Used != 1 || s.Admitted != 1 {
		t.Fatalf("stats = %+v", s)
	}
	release(10 * time.Millisecond)
	if s := q.Stats(); s.Used != 0 {
		t.Fatalf("slot not released: %+v", s)
	}
	if u := q.TenantUsage(2); u <= 0 {
		t.Fatalf("usage not recorded: %f", u)
	}
}

func TestCPUQueueReleaseIdempotent(t *testing.T) {
	q := NewCPUQueue(CPUQueueOptions{InitialSlots: 1})
	release, _ := q.Admit(context.Background(), info(2))
	release(time.Millisecond)
	release(time.Millisecond) // second call must be a no-op
	if s := q.Stats(); s.Used != 0 {
		t.Fatalf("double release corrupted used count: %+v", s)
	}
}

func TestCPUQueueBlocksAtCapacity(t *testing.T) {
	q := NewCPUQueue(CPUQueueOptions{InitialSlots: 1})
	r1, _ := q.Admit(context.Background(), info(2))
	admitted := make(chan struct{})
	go func() {
		r2, err := q.Admit(context.Background(), info(3))
		if err == nil {
			r2(0)
		}
		close(admitted)
	}()
	// The second admit must wait for the first release.
	select {
	case <-admitted:
		t.Fatal("second admit should have queued")
	case <-time.After(50 * time.Millisecond):
	}
	r1(time.Millisecond)
	select {
	case <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("queued work never granted")
	}
}

func TestCPUQueueContextCancel(t *testing.T) {
	q := NewCPUQueue(CPUQueueOptions{InitialSlots: 1})
	r1, _ := q.Admit(context.Background(), info(2))
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := q.Admit(ctx, info(3))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("canceled admit = %v", err)
	}
	// The canceled waiter must not absorb the next grant.
	r1(time.Millisecond)
	release, err := q.Admit(context.Background(), info(4))
	if err != nil {
		t.Fatal(err)
	}
	release(0)
}

func TestCPUQueueFairnessFavorsLightTenant(t *testing.T) {
	// A heavy tenant (1000) and a light tenant (2): when both queue, grants
	// go to the tenant with less recent consumption.
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	q := NewCPUQueue(CPUQueueOptions{InitialSlots: 1, Clock: mc})
	q.mu.fq.halfLife = time.Hour
	hold, _ := q.Admit(context.Background(), info(1000))

	// Charge the heavy tenant with prior consumption.
	q.mu.Lock()
	q.mu.fq.recordUsage(1000, 100, mc.Now())
	q.mu.Unlock()

	order := make(chan keys.TenantID, 2)
	var wg sync.WaitGroup
	for _, tid := range []keys.TenantID{1000, 2} {
		wg.Add(1)
		go func(tid keys.TenantID) {
			defer wg.Done()
			release, err := q.Admit(context.Background(), info(tid))
			if err != nil {
				t.Error(err)
				return
			}
			order <- tid
			release(time.Millisecond)
		}(tid)
		// Ensure deterministic enqueue order: heavy enqueues first.
		time.Sleep(20 * time.Millisecond)
	}
	hold(50 * time.Millisecond)
	wg.Wait()
	close(order)
	first := <-order
	if first != 2 {
		t.Fatalf("light tenant should be granted first, got tenant %d", first)
	}
}

func TestCPUQueuePriorityWithinTenant(t *testing.T) {
	q := NewCPUQueue(CPUQueueOptions{InitialSlots: 1})
	hold, _ := q.Admit(context.Background(), info(5))
	order := make(chan string, 2)
	var wg sync.WaitGroup
	start := func(label string, pri kvpb.Priority, createTime time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := q.Admit(context.Background(),
				WorkInfo{Tenant: 5, Priority: pri, CreateTime: createTime})
			if err != nil {
				t.Error(err)
				return
			}
			order <- label
			release(0)
		}()
		time.Sleep(20 * time.Millisecond)
	}
	base := time.Unix(100, 0)
	start("low-old", kvpb.PriorityLow, base)
	start("high-new", kvpb.PriorityHigh, base.Add(time.Hour))
	hold(0)
	wg.Wait()
	close(order)
	if first := <-order; first != "high-new" {
		t.Fatalf("high priority should preempt: first = %s", first)
	}
}

func TestCPUQueueAIMD(t *testing.T) {
	q := NewCPUQueue(CPUQueueOptions{InitialSlots: 4, MaxSlots: 8})
	// Runnable queue deep: slots shrink.
	for i := 0; i < 10; i++ {
		q.AdjustSlots(100, 4)
	}
	if s := q.Stats().Slots; s != 1 {
		t.Fatalf("slots after overload = %d, want min 1", s)
	}
	// All slots busy, runnable short: slots grow (work-conserving).
	release, _ := q.Admit(context.Background(), info(2))
	for i := 0; i < 20; i++ {
		q.AdjustSlots(0, 4)
	}
	if s := q.Stats().Slots; s <= 1 {
		t.Fatalf("slots did not grow: %d", s)
	}
	release(0)
	// Idle (used < slots): no growth.
	before := q.Stats().Slots
	q.AdjustSlots(0, 4)
	if got := q.Stats().Slots; got != before {
		t.Fatalf("idle growth: %d -> %d", before, got)
	}
}

func TestCPUQueueGrantOnSlotGrowth(t *testing.T) {
	q := NewCPUQueue(CPUQueueOptions{InitialSlots: 1, MaxSlots: 4})
	r1, _ := q.Admit(context.Background(), info(2))
	defer r1(0)
	granted := make(chan struct{})
	go func() {
		r2, err := q.Admit(context.Background(), info(2))
		if err == nil {
			defer r2(0)
		}
		close(granted)
	}()
	time.Sleep(20 * time.Millisecond)
	q.AdjustSlots(0, 4) // used >= slots -> grow and grant
	select {
	case <-granted:
	case <-time.After(2 * time.Second):
		t.Fatal("slot growth did not grant waiter")
	}
}

// newWriteQueueAt returns a write queue on clock whose bucket refills at rate
// bytes/sec and holds one second of it, as after a capacity estimate.
func newWriteQueueAt(clock timeutil.Clock, rate float64) *WriteQueue {
	q := NewWriteQueue(WriteQueueOptions{Clock: clock})
	q.SetRate(rate)
	return q
}

func TestWriteQueueImmediateAndBlocked(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	q := newWriteQueueAt(mc, 1000)
	// Bucket starts full: 600 bytes admit immediately.
	if err := q.Admit(context.Background(), info(2), 600); err != nil {
		t.Fatal(err)
	}
	// 600 more exceed remaining 400: must wait for refill.
	done := make(chan error, 1)
	go func() { done <- q.Admit(context.Background(), info(2), 600) }()
	select {
	case <-done:
		t.Fatal("admit should have blocked")
	case <-time.After(50 * time.Millisecond):
	}
	mc.Advance(time.Second) // refills 1000 (capped at burst)
	q.Tick()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("refill did not grant")
	}
}

func TestWriteQueueZeroBytesNoop(t *testing.T) {
	q := NewWriteQueue(WriteQueueOptions{})
	if err := q.Admit(context.Background(), info(2), 0); err != nil {
		t.Fatal(err)
	}
	if err := q.Admit(context.Background(), info(2), -5); err != nil {
		t.Fatal(err)
	}
	if s := q.Stats(); s.Admitted != 0 {
		t.Fatalf("no-op admits counted: %+v", s)
	}
}

func TestWriteQueueContextCancel(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	q := newWriteQueueAt(mc, 10)
	q.Admit(context.Background(), info(2), 10) // drain bucket
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- q.Admit(ctx, info(3), 10) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("canceled write admit = %v", err)
	}
}

func TestWriteQueueFairness(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	q := newWriteQueueAt(mc, 100)
	q.mu.fq.halfLife = time.Hour
	q.Admit(context.Background(), info(1000), 100) // heavy tenant drains bucket & records usage

	order := make(chan keys.TenantID, 2)
	var wg sync.WaitGroup
	for _, tid := range []keys.TenantID{1000, 2} {
		wg.Add(1)
		go func(tid keys.TenantID) {
			defer wg.Done()
			if err := q.Admit(context.Background(), info(tid), 50); err != nil {
				t.Error(err)
				return
			}
			order <- tid
		}(tid)
		time.Sleep(20 * time.Millisecond)
	}
	mc.Advance(500 * time.Millisecond) // refill 50 bytes: one grant possible
	q.Tick()
	first := <-order
	if first != 2 {
		t.Fatalf("light tenant should get tokens first, got %d", first)
	}
	mc.Advance(time.Second)
	q.Tick()
	wg.Wait()
}

func TestWriteQueueSetRate(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	q := newWriteQueueAt(mc, 10)
	q.Admit(context.Background(), info(2), 10)
	done := make(chan error, 1)
	go func() { done <- q.Admit(context.Background(), info(2), 500) }()
	time.Sleep(20 * time.Millisecond)
	q.SetRate(1 << 20) // capacity estimate jumped; burst now covers the wait
	mc.Advance(time.Second)
	q.Tick()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("rate increase did not grant")
	}
	if got := q.Stats().Rate; got != 1<<20 {
		t.Fatalf("rate = %f", got)
	}
}

func TestFairQueueDecay(t *testing.T) {
	now := time.Unix(0, 0)
	fq := newFairQueue(time.Second, now)
	fq.recordUsage(5, 100, now)
	if u := fq.usage(5); u != 100 {
		t.Fatalf("usage = %f", u)
	}
	// After one half-life, usage should be halved (recorded via decay).
	fq.decay(now.Add(time.Second))
	if u := fq.usage(5); math.Abs(u-50) > 1 {
		t.Fatalf("decayed usage = %f, want ~50", u)
	}
	// Unknown tenant reads as zero.
	if u := fq.usage(99); u != 0 {
		t.Fatalf("unknown tenant usage = %f", u)
	}
}

func TestFairQueuePopOrderAcrossTenants(t *testing.T) {
	now := time.Unix(0, 0)
	fq := newFairQueue(time.Hour, now)
	mk := func(tid keys.TenantID) *waiter {
		return &waiter{info: WorkInfo{Tenant: tid}, grantCh: make(chan struct{})}
	}
	fq.recordUsage(1, 300, now)
	fq.recordUsage(2, 100, now)
	fq.recordUsage(3, 200, now)
	fq.enqueue(mk(1))
	fq.enqueue(mk(2))
	fq.enqueue(mk(3))
	var got []keys.TenantID
	for w := fq.popNext(); w != nil; w = fq.popNext() {
		got = append(got, w.info.Tenant)
	}
	want := []keys.TenantID{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func TestFairQueueCanceledWaitersSkipped(t *testing.T) {
	now := time.Unix(0, 0)
	fq := newFairQueue(time.Hour, now)
	w1 := &waiter{info: WorkInfo{Tenant: 1}, grantCh: make(chan struct{})}
	w2 := &waiter{info: WorkInfo{Tenant: 1, CreateTime: now.Add(time.Second)}, grantCh: make(chan struct{})}
	fq.enqueue(w1)
	fq.enqueue(w2)
	w1.canceled = true
	if got := fq.peekNext(); got != w2 {
		t.Fatalf("peek skipped wrong waiter: %+v", got)
	}
	if got := fq.popNext(); got != w2 {
		t.Fatal("pop returned canceled waiter")
	}
	if fq.popNext() != nil {
		t.Fatal("queue should be empty")
	}
}

func TestLinearModelFitAndPredict(t *testing.T) {
	// y = 2x + 10 exactly.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{12, 14, 16, 18, 20}
	m := FitLinearModel(xs, ys)
	if math.Abs(m.A-2) > 1e-9 || math.Abs(m.B-10) > 1e-9 {
		t.Fatalf("fit = %+v", m)
	}
	if got := m.Predict(10); math.Abs(got-30) > 1e-9 {
		t.Fatalf("predict = %f", got)
	}
	if got := (LinearModel{A: 1, B: -100}).Predict(5); got != 0 {
		t.Fatalf("negative prediction not clamped: %f", got)
	}
}

func TestLinearModelDegenerate(t *testing.T) {
	if m := FitLinearModel(nil, nil); m.A != 1 {
		t.Fatalf("empty fit = %+v", m)
	}
	if m := FitLinearModel([]float64{1}, []float64{2, 3}); m.A != 1 {
		t.Fatalf("mismatched fit = %+v", m)
	}
	// All same x: fall back to pass-through with mean offset.
	m := FitLinearModel([]float64{5, 5}, []float64{7, 9})
	if m.A != 1 || math.Abs(m.B-3) > 1e-9 {
		t.Fatalf("same-x fit = %+v", m)
	}
}

func TestCapacityEstimatorTracksThroughput(t *testing.T) {
	var ce CapacityEstimator
	now := time.Unix(0, 0)
	m := lsm.Metrics{}
	first := ce.Update(m, now)
	if first <= 0 {
		t.Fatal("initial estimate must be positive")
	}
	// 30 MiB flushed + 30 MiB compacted over 15s => 4 MiB/s observed.
	m.FlushedBytes = 30 << 20
	m.CompactedBytes = 30 << 20
	got := ce.Update(m, now.Add(15*time.Second))
	// EWMA moves halfway from the optimistic prior toward 4 MiB/s; after
	// several intervals it converges.
	for i := 2; i <= 8; i++ {
		m.FlushedBytes += 30 << 20
		m.CompactedBytes += 30 << 20
		got = ce.Update(m, now.Add(time.Duration(i)*15*time.Second))
	}
	want := 4.0 * (1 << 20)
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("capacity = %f, want ~%f", got, want)
	}
}

func TestCapacityEstimatorL0Backlog(t *testing.T) {
	ce := CapacityEstimator{L0Threshold: 4}
	now := time.Unix(0, 0)
	base := lsm.Metrics{}
	ce.Update(base, now)
	base.FlushedBytes = 60 << 20
	healthy := ce.Update(base, now.Add(15*time.Second))
	backlogged := base
	backlogged.L0Files = 16
	reduced := ce.Update(backlogged, now.Add(16*time.Second))
	if reduced >= healthy {
		t.Fatalf("L0 backlog should reduce capacity: %f >= %f", reduced, healthy)
	}
	if math.Abs(reduced-healthy/4) > healthy*0.05 {
		t.Fatalf("reduction factor wrong: healthy=%f reduced=%f", healthy, reduced)
	}
}

func TestCapacityEstimatorFloor(t *testing.T) {
	ce := CapacityEstimator{Floor: 100}
	now := time.Unix(0, 0)
	ce.Update(lsm.Metrics{}, now)
	// No throughput ever observed: smoothed stays at optimistic prior, but
	// a massive backlog cannot push below the floor.
	m := lsm.Metrics{L0Files: 1 << 20}
	if got := ce.Update(m, now.Add(time.Hour)); got < 100 {
		t.Fatalf("capacity %f below floor", got)
	}
}

func TestCPUQueueConcurrentStress(t *testing.T) {
	q := NewCPUQueue(CPUQueueOptions{InitialSlots: 4})
	var inFlight, maxSeen int64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				release, err := q.Admit(context.Background(), info(keys.TenantID(g%4+2)))
				if err != nil {
					t.Error(err)
					return
				}
				cur := atomic.AddInt64(&inFlight, 1)
				for {
					old := atomic.LoadInt64(&maxSeen)
					if cur <= old || atomic.CompareAndSwapInt64(&maxSeen, old, cur) {
						break
					}
				}
				atomic.AddInt64(&inFlight, -1)
				release(time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if maxSeen > 4 {
		t.Fatalf("concurrency %d exceeded slot limit 4", maxSeen)
	}
	if s := q.Stats(); s.Used != 0 || s.Waiting != 0 {
		t.Fatalf("leaked state: %+v", s)
	}
}
