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
	"crdbserverless/internal/metric"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
)

func info(tenant keys.TenantID) WorkInfo {
	return WorkInfo{Tenant: tenant, Priority: kvpb.PriorityNormal}
}

func TestCPUQueueImmediateAdmit(t *testing.T) {
	q := NewCPUQueue(CPUQueueOptions{InitialSlots: 2})
	slot, err := q.Admit(context.Background(), info(2))
	if err != nil {
		t.Fatal(err)
	}
	s := q.Stats()
	if s.Used != 1 || s.Admitted != 1 {
		t.Fatalf("stats = %+v", s)
	}
	slot.Release(10 * time.Millisecond)
	if s := q.Stats(); s.Used != 0 {
		t.Fatalf("slot not released: %+v", s)
	}
	q.mu.Lock()
	u := q.mu.fq.usage(2)
	q.mu.Unlock()
	if u <= 0 {
		t.Fatalf("usage not recorded: %f", u)
	}
}

func TestCPUQueueReleaseIdempotent(t *testing.T) {
	q := NewCPUQueue(CPUQueueOptions{InitialSlots: 1})
	slot, _ := q.Admit(context.Background(), info(2))
	slot.Release(time.Millisecond)
	slot.Release(time.Millisecond) // second call must be a no-op
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
			r2.Release(0)
		}
		close(admitted)
	}()
	// The second admit must wait for the first release.
	select {
	case <-admitted:
		t.Fatal("second admit should have queued")
	case <-time.After(50 * time.Millisecond):
	}
	r1.Release(time.Millisecond)
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
	r1.Release(time.Millisecond)
	slot, err := q.Admit(context.Background(), info(4))
	if err != nil {
		t.Fatal(err)
	}
	slot.Release(0)
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
			slot, err := q.Admit(context.Background(), info(tid))
			if err != nil {
				t.Error(err)
				return
			}
			order <- tid
			slot.Release(time.Millisecond)
		}(tid)
		// Ensure deterministic enqueue order: heavy enqueues first.
		time.Sleep(20 * time.Millisecond)
	}
	hold.Release(50 * time.Millisecond)
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
			slot, err := q.Admit(context.Background(),
				WorkInfo{Tenant: 5, Priority: pri, CreateTime: createTime})
			if err != nil {
				t.Error(err)
				return
			}
			order <- label
			slot.Release(0)
		}()
		time.Sleep(20 * time.Millisecond)
	}
	base := time.Unix(100, 0)
	start("low-old", kvpb.PriorityLow, base)
	start("high-new", kvpb.PriorityHigh, base.Add(time.Hour))
	hold.Release(0)
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
	slot, _ := q.Admit(context.Background(), info(2))
	for i := 0; i < 20; i++ {
		q.AdjustSlots(0, 4)
	}
	if s := q.Stats().Slots; s <= 1 {
		t.Fatalf("slots did not grow: %d", s)
	}
	slot.Release(0)
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
	defer r1.Release(0)
	granted := make(chan struct{})
	go func() {
		r2, err := q.Admit(context.Background(), info(2))
		if err == nil {
			defer r2.Release(0)
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
// bytes/sec and holds one second of it, as after a node rates L0's drain.
func newWriteQueueAt(clock timeutil.Clock, rate float64) *WriteQueue {
	q := NewWriteQueue(WriteQueueOptions{Clock: clock})
	q.SetRate(rate)
	return q
}

func TestWriteQueueImmediateAndBlocked(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	q := newWriteQueueAt(mc, 1000)
	// Bucket starts full: 600 bytes admit immediately.
	if _, err := q.Admit(context.Background(), info(2), 600); err != nil {
		t.Fatal(err)
	}
	// 600 more exceed remaining 400: must wait for refill.
	done := make(chan error, 1)
	go func() { _, err := q.Admit(context.Background(), info(2), 600); done <- err }()
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
	if _, err := q.Admit(context.Background(), info(2), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Admit(context.Background(), info(2), -5); err != nil {
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
	go func() { _, err := q.Admit(ctx, info(3), 10); errCh <- err }()
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
			if _, err := q.Admit(context.Background(), info(tid), 50); err != nil {
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
	go func() { _, err := q.Admit(context.Background(), info(2), 500); done <- err }()
	time.Sleep(20 * time.Millisecond)
	q.SetRate(1 << 20) // L0 drained faster; burst now covers the wait
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
	// An unlimited rate grants a waiter at once and forgives the debt of a
	// write larger than the bucket.
	mc.Advance(time.Second)
	if wait, err := q.Admit(context.Background(), info(2), 4<<20); err != nil || wait != 0 {
		t.Fatalf("4 MiB write into a full bucket: wait %v, err %v", wait, err)
	}
	go func() { _, err := q.Admit(context.Background(), info(2), 500); done <- err }()
	for q.Stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	q.SetRate(math.Inf(1))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := q.Admit(context.Background(), info(2), 1<<40); err != nil || q.Stats().Waiting != 0 {
		t.Fatalf("unlimited queue: err %v, %+v", err, q.Stats())
	}
}

// TestWriteQueueOversizedWrite admits a write larger than the bucket once
// the bucket is full, and holds later writes until refill repays the debt.
// Without the debt the large write never fits and blocks every write queued
// behind it.
func TestWriteQueueOversizedWrite(t *testing.T) {
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	q := newWriteQueueAt(mc, 1<<20)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if wait, err := q.Admit(ctx, info(2), 4<<20); err != nil || wait != 0 {
		t.Fatalf("4 MiB write into a full 1 MiB bucket: wait %v, err %v; want admitted at once", wait, err)
	}
	done := make(chan error, 1)
	go func() { _, err := q.Admit(context.Background(), info(3), 100); done <- err }()
	for q.Stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	mc.Advance(3 * time.Second) // repays the 3 MiB debt, no more
	q.Tick()
	if s := q.Stats(); s.Waiting != 1 || s.Tokens != 0 {
		t.Fatalf("after repaying the debt: %+v, want 1 waiting and 0 tokens", s)
	}
	mc.Advance(time.Second)
	q.Tick()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write queued behind the debt never granted")
	}
}

// TestAwaitGrantGrantWinsCancel: when a grant and a cancellation are both
// ready, the operation is admitted, since the grant already consumed the
// queue's slot or tokens on its behalf.
func TestAwaitGrantGrantWinsCancel(t *testing.T) {
	var mu sync.Mutex
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		w := &waiter{info: info(2), grantCh: make(chan struct{})}
		close(w.grantCh)
		if _, err := awaitGrant(ctx, timeutil.NewRealClock(), &mu, w, "cpu"); err != nil {
			t.Fatalf("granted waiter returned %v", err)
		}
	}
}

// TestAdmitUncontendedAllocs pins the cost every KV batch pays: admission
// that succeeds at once allocates nothing.
func TestAdmitUncontendedAllocs(t *testing.T) {
	obs := tenantobs.New(tenantobs.Config{Registry: metric.NewRegistry(), Clock: timeutil.NewRealClock()})
	cq := NewCPUQueue(CPUQueueOptions{InitialSlots: 1, Obs: obs})
	wq := NewWriteQueue(WriteQueueOptions{})
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		slot, err := cq.Admit(ctx, info(2))
		if err != nil {
			t.Fatal(err)
		}
		slot.Release(time.Microsecond)
	}); n != 0 {
		t.Errorf("CPUQueue.Admit + Slot.Release: %v allocs, want 0", n)
	}
	writeAllocs := func() float64 {
		return testing.AllocsPerRun(1000, func() {
			if _, err := wq.Admit(ctx, info(2), 100); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n := writeAllocs(); n != 0 {
		t.Errorf("WriteQueue.Admit, unlimited: %v allocs, want 0", n)
	}
	wq.SetRate(1 << 30) // a bucket that 1001 writes of 100 bytes do not empty
	if n := writeAllocs(); n != 0 {
		t.Errorf("WriteQueue.Admit at a finite rate: %v allocs, want 0", n)
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

// l0Metrics returns engine metrics with l0Files files and l0Bytes bytes in L0
// after flushed bytes have been flushed into it.
func l0Metrics(l0Files int, flushed, l0Bytes int64) lsm.Metrics {
	m := lsm.Metrics{L0Files: l0Files, FlushedBytes: flushed}
	m.LevelBytes[0] = l0Bytes
	return m
}

// TestWriteRate: the queue is unlimited while L0 holds at most l0Threshold
// files.
func TestWriteRate(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		name      string
		prev, cur lsm.Metrics
	}{
		{"empty L0", l0Metrics(0, 0, 0), l0Metrics(0, 0, 0)},
		{"L0 at threshold, nothing drained", l0Metrics(2, 0, 2*mib), l0Metrics(l0Threshold, 6*mib, 8*mib)},
	} {
		if got := WriteRate(c.prev, c.cur, 15*time.Second); !math.IsInf(got, 1) {
			t.Errorf("%s: WriteRate = %v, want unlimited", c.name, got)
		}
	}
}

// TestCapacityEstimatorL0Backlog: with more than l0Threshold files in L0 the
// engine's write capacity is the bytes that left L0 per second.
func TestCapacityEstimatorL0Backlog(t *testing.T) {
	const mib = 1 << 20
	// 150 MiB flushed into L0 and L0 grew by 30 MiB: 120 MiB drained in 15s.
	prev, cur := l0Metrics(4, 10*mib, 40*mib), l0Metrics(l0Threshold+1, 160*mib, 70*mib)
	if got := WriteRate(prev, cur, 15*time.Second); got != 8*mib {
		t.Fatalf("WriteRate = %v, want %v", got, 8*mib)
	}
}

// TestCapacityEstimatorFloor: a backlogged L0 that drains little or nothing
// never rates the engine below capacityFloor.
func TestCapacityEstimatorFloor(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		name      string
		prev, cur lsm.Metrics
	}{
		{"nothing drained", l0Metrics(4, 10*mib, 40*mib), l0Metrics(4*l0Threshold, 40*mib, 70*mib)},
		{"drained under the floor", l0Metrics(4, 0, 0), l0Metrics(l0Threshold+1, mib, 0)},
	} {
		if got := WriteRate(c.prev, c.cur, 15*time.Second); got != capacityFloor {
			t.Errorf("%s: WriteRate = %v, want %v", c.name, got, capacityFloor)
		}
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
				slot, err := q.Admit(context.Background(), info(keys.TenantID(g%4+2)))
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
				slot.Release(time.Microsecond)
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
