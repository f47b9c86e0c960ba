// Package admission implements CockroachDB-style admission control (§5.1 of
// the paper): per-node queues that keep a KV node stable under overload while
// sharing bottleneck resources fairly across tenants.
//
// Two resources are controlled. CPU admission uses a dynamic number of
// concurrency "slots" tuned by an additive increase/decrease loop driven by
// runnable-queue sampling (§5.1.3). Write admission uses a token bucket that
// is unlimited while the LSM's level 0 is shallow and, once L0 backs up,
// refills at the rate L0 drained (WriteRate).
//
// Both queues share the same fairness structure: a heap of tenants ordered by
// recent resource consumption (least-consuming first), each holding a heap of
// waiting operations ordered by priority and then create time (§5.1.2).
package admission

import (
	"container/heap"
	"context"
	"math"
	"sync"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
)

// WorkInfo describes one operation seeking admission.
type WorkInfo struct {
	Tenant   keys.TenantID
	Priority kvpb.Priority
	// CreateTime orders work within (tenant, priority); transactions pass
	// their start time so older transactions are served first.
	CreateTime time.Time
}

// waiter is one queued operation.
type waiter struct {
	info     WorkInfo
	amount   float64 // resource amount needed at grant time (write bytes); 0 for CPU
	grantCh  chan struct{}
	canceled bool
}

// awaitGrant blocks until w, enqueued under the queue's lock mu, is granted
// or ctx is done, and returns the time it waited. A grant that races the
// cancellation wins, so the slot or tokens it took are not lost.
func awaitGrant(ctx context.Context, clock timeutil.Clock, mu *sync.Mutex, w *waiter, resource string) (time.Duration, error) {
	enqueued := clock.Now()
	trace.SpanFromContext(ctx).Eventf("admission: %s queued tenant=%d", resource, w.info.Tenant)
	select {
	case <-w.grantCh:
	case <-ctx.Done():
		mu.Lock()
		defer mu.Unlock()
		select {
		case <-w.grantCh:
		default:
			w.canceled = true
			return 0, ctx.Err()
		}
	}
	return clock.Since(enqueued), nil
}

// waiterHeap orders waiters by priority (higher first) then create time
// (older first).
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].info.Priority != h[j].info.Priority {
		return h[i].info.Priority > h[j].info.Priority
	}
	return h[i].info.CreateTime.Before(h[j].info.CreateTime)
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
}
func (h *waiterHeap) Push(x interface{}) {
	*h = append(*h, x.(*waiter))
}
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// tenantQueue tracks one tenant's recent consumption and queued work.
type tenantQueue struct {
	id      keys.TenantID
	used    float64 // decayed recent consumption (cpu-seconds or bytes)
	waiters waiterHeap
	heapIdx int // position in the tenant heap, -1 if not enqueued
	// obs is the tenant's observability handle, resolved by the CPU queue
	// on the tenant's first admission (nil without a plane).
	obs *tenantobs.Tenant
}

// tenantHeap orders tenants so the least-consuming tenant with waiting work
// is on top — it receives the next grant (§5.1.2).
type tenantHeap []*tenantQueue

func (h tenantHeap) Len() int           { return len(h) }
func (h tenantHeap) Less(i, j int) bool { return h[i].used < h[j].used }
func (h tenantHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *tenantHeap) Push(x interface{}) {
	t := x.(*tenantQueue)
	t.heapIdx = len(*h)
	*h = append(*h, t)
}
func (h *tenantHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.heapIdx = -1
	*h = old[:n-1]
	return t
}

// fairQueue is the shared heap-of-heaps. It is not internally synchronized;
// the owning queue provides locking.
type fairQueue struct {
	tenants   map[keys.TenantID]*tenantQueue
	active    tenantHeap
	halfLife  time.Duration
	lastDecay time.Time
	waiting   int
}

// usageHalfLife is how quickly a tenant's recent consumption ages out of the
// fairness metric, in both queues.
const usageHalfLife = time.Second

func newFairQueue(halfLife time.Duration, now time.Time) *fairQueue {
	return &fairQueue{
		tenants:   make(map[keys.TenantID]*tenantQueue),
		halfLife:  halfLife,
		lastDecay: now,
	}
}

func (f *fairQueue) tenant(id keys.TenantID) *tenantQueue {
	t, ok := f.tenants[id]
	if !ok {
		t = &tenantQueue{id: id, heapIdx: -1}
		f.tenants[id] = t
	}
	return t
}

// enqueue adds a waiter for its tenant.
func (f *fairQueue) enqueue(w *waiter) {
	t := f.tenant(w.info.Tenant)
	heap.Push(&t.waiters, w)
	if t.heapIdx == -1 {
		heap.Push(&f.active, t)
	}
	f.waiting++
}

// popNext removes and returns the next waiter: the highest-priority oldest
// operation of the least-consuming tenant. Returns nil if nothing waits.
func (f *fairQueue) popNext() *waiter {
	for f.active.Len() > 0 {
		t := f.active[0]
		for t.waiters.Len() > 0 {
			w := heap.Pop(&t.waiters).(*waiter)
			f.waiting--
			if !w.canceled {
				if t.waiters.Len() == 0 {
					heap.Pop(&f.active)
				}
				return w
			}
		}
		heap.Pop(&f.active)
	}
	return nil
}

// peekNext returns the next waiter without removing it, or nil.
func (f *fairQueue) peekNext() *waiter {
	for f.active.Len() > 0 {
		t := f.active[0]
		// Drop canceled waiters lazily.
		for t.waiters.Len() > 0 && t.waiters[0].canceled {
			heap.Pop(&t.waiters)
			f.waiting--
		}
		if t.waiters.Len() > 0 {
			return t.waiters[0]
		}
		heap.Pop(&f.active)
	}
	return nil
}

// recordUsage charges amount of the resource to tenant, after applying decay
// so "recent interval" consumption governs fairness.
func (f *fairQueue) recordUsage(id keys.TenantID, amount float64, now time.Time) {
	f.decay(now)
	t := f.tenant(id)
	t.used += amount
	if t.heapIdx >= 0 {
		heap.Fix(&f.active, t.heapIdx)
	}
}

// decay exponentially ages all tenants' usage with the configured half-life.
// A uniform multiplicative decay preserves heap order, so the heap needs no
// re-fix.
func (f *fairQueue) decay(now time.Time) {
	dt := now.Sub(f.lastDecay)
	if dt < f.halfLife/20 {
		return
	}
	factor := math.Pow(0.5, float64(dt)/float64(f.halfLife))
	for _, t := range f.tenants {
		t.used *= factor
	}
	f.lastDecay = now
}

// usage returns the tenant's current decayed usage.
func (f *fairQueue) usage(id keys.TenantID) float64 {
	if t, ok := f.tenants[id]; ok {
		return t.used
	}
	return 0
}
