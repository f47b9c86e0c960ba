package admission

import (
	"context"
	"sync"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
)

// CPUQueue admits operations onto a bounded number of CPU "slots". The slot
// count is the dynamically estimated concurrency that keeps CPU utilization
// high while bounding runnable-queue buildup (§5.1.3); AdjustSlots implements
// the additive increase/decrease feedback loop the paper drives with 1000Hz
// runnable-queue sampling.
type CPUQueue struct {
	clock timeutil.Clock
	obs   *tenantobs.Plane

	mu struct {
		sync.Mutex
		fq       *fairQueue
		slots    int
		used     int
		admitted int64
	}
	maxSlots int
}

// minSlots is the floor of the AIMD loop.
const minSlots = 1

// CPUQueueOptions configures a CPUQueue.
type CPUQueueOptions struct {
	// InitialSlots is the starting concurrency. Defaults to 4.
	InitialSlots int
	// MaxSlots caps the AIMD loop. Defaults to 512.
	MaxSlots int
	// Clock defaults to the real clock.
	Clock timeutil.Clock
	// Obs, when non-nil, records each request's admission wait against its
	// tenant (admission.tenant_wait).
	Obs *tenantobs.Plane
}

// NewCPUQueue returns a CPUQueue.
func NewCPUQueue(opts CPUQueueOptions) *CPUQueue {
	if opts.InitialSlots <= 0 {
		opts.InitialSlots = 4
	}
	if opts.MaxSlots <= 0 {
		opts.MaxSlots = 512
	}
	if opts.Clock == nil {
		opts.Clock = timeutil.NewRealClock()
	}
	q := &CPUQueue{clock: opts.Clock, obs: opts.Obs, maxSlots: opts.MaxSlots}
	q.mu.fq = newFairQueue(usageHalfLife, opts.Clock.Now())
	q.mu.slots = opts.InitialSlots
	return q
}

// Slot is an admitted operation's hold on a CPU slot; the zero Slot holds
// nothing. Wait is the time the operation queued, 0 if admitted at once.
type Slot struct {
	q      *CPUQueue
	tenant keys.TenantID
	Wait   time.Duration
}

// Release frees the slot when the operation finishes its bounded chunk of
// work, passing the CPU time actually consumed; consumption feeds
// inter-tenant fairness (§5.1.4). A second call does nothing.
func (s *Slot) Release(cpu time.Duration) {
	q := s.q
	if q == nil {
		return
	}
	s.q = nil
	q.mu.Lock()
	defer q.mu.Unlock()
	q.mu.fq.recordUsage(s.tenant, cpu.Seconds(), q.clock.Now())
	q.mu.used--
	q.grantLocked()
}

// Admit blocks until the operation is granted a CPU slot (or ctx is done).
func (q *CPUQueue) Admit(ctx context.Context, info WorkInfo) (Slot, error) {
	var wait time.Duration
	q.mu.Lock()
	obs := q.tenantObsLocked(info.Tenant)
	if q.mu.used < q.mu.slots && q.mu.fq.peekNext() == nil {
		q.mu.used++
		q.mu.admitted++
		q.mu.Unlock()
	} else {
		w := &waiter{info: info, grantCh: make(chan struct{})}
		q.mu.fq.enqueue(w)
		q.mu.Unlock()
		var err error
		if wait, err = awaitGrant(ctx, q.clock, &q.mu.Mutex, w, "cpu"); err != nil {
			return Slot{}, err
		}
	}
	obs.AdmissionWait(wait)
	return Slot{q: q, tenant: info.Tenant, Wait: wait}, nil
}

// tenantObsLocked returns the tenant's observability handle, resolving it
// from the plane on the tenant's first admission. The caller holds q.mu.
func (q *CPUQueue) tenantObsLocked(id keys.TenantID) *tenantobs.Tenant {
	if q.obs == nil {
		return nil
	}
	t := q.mu.fq.tenant(id)
	if t.obs == nil {
		t.obs = q.obs.Tenant(id)
	}
	return t.obs
}

// grantLocked hands free slots to waiting work, least-consuming tenant first.
func (q *CPUQueue) grantLocked() {
	for q.mu.used < q.mu.slots {
		w := q.mu.fq.popNext()
		if w == nil {
			return
		}
		q.mu.used++
		q.mu.admitted++
		close(w.grantCh)
	}
}

// AdjustSlots runs one step of the additive increase/decrease loop given the
// current number of runnable goroutines and processors: when the runnable
// queue builds beyond one runnable per processor the slot count shrinks;
// when the queue is short and all slots are busy it grows (work-conserving).
func (q *CPUQueue) AdjustSlots(runnable, procs int) {
	if procs <= 0 {
		procs = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case runnable > procs:
		if q.mu.slots > minSlots {
			q.mu.slots--
		}
	case q.mu.used >= q.mu.slots:
		if q.mu.slots < q.maxSlots {
			q.mu.slots++
			q.grantLocked()
		}
	}
}

// CPUQueueStats is a point-in-time snapshot.
type CPUQueueStats struct {
	Slots    int
	Used     int
	Waiting  int
	Admitted int64
}

// Stats returns a snapshot of queue state.
func (q *CPUQueue) Stats() CPUQueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return CPUQueueStats{
		Slots:    q.mu.slots,
		Used:     q.mu.used,
		Waiting:  q.mu.fq.waiting,
		Admitted: q.mu.admitted,
	}
}
