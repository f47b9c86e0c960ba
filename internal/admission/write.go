package admission

import (
	"context"
	"sync"
	"time"

	"crdbserverless/internal/lsm"
	"crdbserverless/internal/timeutil"
)

// WriteQueue admits write work against a token bucket denominated in bytes.
// The refill rate is the estimated sustainable write capacity of the storage
// engine (see CapacityEstimator), so a write burst that outruns flush and
// compaction bandwidth queues here instead of growing an L0 backlog
// (§5.1.3). Fairness across tenants follows the same least-consuming-first
// rule as the CPU queue.
type WriteQueue struct {
	clock timeutil.Clock

	mu struct {
		sync.Mutex
		fq         *fairQueue
		tokens     float64 // available bytes; negative while a large write's debt is repaid
		rate       float64 // refill bytes/sec
		burst      float64
		lastRefill time.Time
		admitted   int64
	}
}

// WriteQueueOptions configures a WriteQueue.
type WriteQueueOptions struct {
	// Clock defaults to the real clock.
	Clock timeutil.Clock
}

// initialWriteRate is the refill rate in bytes/sec until the first capacity
// estimate arrives (SetRate); the bucket holds one second of it.
const initialWriteRate = 64 << 20

// NewWriteQueue returns a WriteQueue.
func NewWriteQueue(opts WriteQueueOptions) *WriteQueue {
	if opts.Clock == nil {
		opts.Clock = timeutil.NewRealClock()
	}
	q := &WriteQueue{clock: opts.Clock}
	q.mu.fq = newFairQueue(usageHalfLife, opts.Clock.Now())
	q.mu.rate = initialWriteRate
	q.mu.burst = initialWriteRate
	q.mu.tokens = initialWriteRate
	q.mu.lastRefill = opts.Clock.Now()
	return q
}

// Admit blocks until bytes of write capacity are available (or ctx is done)
// and returns the time it queued. bytes should be the *estimated actual*
// write bytes, i.e. the linear model's prediction including the raft log and
// state-machine writes (§5.1.4). A write larger than the bucket needs only a
// full bucket and leaves the tokens in debt, which refill repays.
func (q *WriteQueue) Admit(ctx context.Context, info WorkInfo, bytes int64) (time.Duration, error) {
	if bytes <= 0 {
		return 0, nil
	}
	q.mu.Lock()
	q.refillLocked()
	if q.mu.fq.peekNext() == nil && q.mu.tokens >= min(float64(bytes), q.mu.burst) {
		q.mu.tokens -= float64(bytes)
		q.mu.admitted++
		q.mu.fq.recordUsage(info.Tenant, float64(bytes), q.clock.Now())
		q.mu.Unlock()
		return 0, nil
	}
	w := &waiter{info: info, amount: float64(bytes), grantCh: make(chan struct{})}
	q.mu.fq.enqueue(w)
	q.mu.Unlock()
	return awaitGrant(ctx, q.clock, &q.mu.Mutex, w, "write")
}

// Tick refills the bucket and grants waiting work. Call periodically (the KV
// node drives this from its heartbeat loop) or rely on refill at Admit time.
func (q *WriteQueue) Tick() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.refillLocked()
	q.grantLocked()
}

// SetRate updates the refill rate from a fresh capacity estimate.
func (q *WriteQueue) SetRate(bytesPerSec float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.refillLocked()
	if bytesPerSec < 1 {
		bytesPerSec = 1
	}
	q.mu.rate = bytesPerSec
	q.mu.burst = bytesPerSec // one second of capacity
	if q.mu.tokens > q.mu.burst {
		q.mu.tokens = q.mu.burst
	}
	q.grantLocked()
}

func (q *WriteQueue) refillLocked() {
	now := q.clock.Now()
	dt := now.Sub(q.mu.lastRefill).Seconds()
	if dt <= 0 {
		return
	}
	q.mu.tokens += q.mu.rate * dt
	if q.mu.tokens > q.mu.burst {
		q.mu.tokens = q.mu.burst
	}
	q.mu.lastRefill = now
}

func (q *WriteQueue) grantLocked() {
	for {
		w := q.mu.fq.peekNext()
		if w == nil || q.mu.tokens < min(w.amount, q.mu.burst) {
			return
		}
		w = q.mu.fq.popNext()
		q.mu.tokens -= w.amount
		q.mu.admitted++
		q.mu.fq.recordUsage(w.info.Tenant, w.amount, q.clock.Now())
		close(w.grantCh)
	}
}

// WriteQueueStats is a point-in-time snapshot.
type WriteQueueStats struct {
	Tokens   float64
	Rate     float64
	Waiting  int
	Admitted int64
}

// Stats returns a snapshot of queue state.
func (q *WriteQueue) Stats() WriteQueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return WriteQueueStats{
		Tokens:   q.mu.tokens,
		Rate:     q.mu.rate,
		Waiting:  q.mu.fq.waiting,
		Admitted: q.mu.admitted,
	}
}

// LinearModel estimates actual resource use as a*x + b. The paper fits such
// models from Pebble instrumentation to translate a request's logical write
// bytes x into physical write bytes (raft log + state machine application).
type LinearModel struct {
	A float64
	B float64
}

// Predict returns the modeled resource use for input x, never negative.
func (m LinearModel) Predict(x float64) float64 {
	y := m.A*x + m.B
	if y < 0 {
		return 0
	}
	return y
}

// FitLinearModel least-squares fits y = a*x + b to the samples. With fewer
// than two distinct x values it falls back to a pass-through model (a=1)
// with b matching the mean residual.
func FitLinearModel(xs, ys []float64) LinearModel {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return LinearModel{A: 1}
	}
	var sumX, sumY, sumXX, sumXY float64
	for i := 0; i < n; i++ {
		sumX += xs[i]
		sumY += ys[i]
		sumXX += xs[i] * xs[i]
		sumXY += xs[i] * ys[i]
	}
	den := float64(n)*sumXX - sumX*sumX
	if den == 0 {
		return LinearModel{A: 1, B: (sumY - sumX) / float64(n)}
	}
	a := (float64(n)*sumXY - sumX*sumY) / den
	b := (sumY - a*sumX) / float64(n)
	return LinearModel{A: a, B: b}
}

// The capacity estimator's constants: the minimum time between re-estimates
// (15s in the paper), the L0 file count above which capacity is reduced, and
// the minimum capacity returned, in bytes/sec.
const (
	capacityInterval = 15 * time.Second
	l0Threshold      = 8
	capacityFloor    = 1 << 20
)

// CapacityEstimator turns LSM instrumentation into a write-capacity estimate
// in bytes/sec, re-evaluated every capacityInterval. The estimate is the
// observed flush+compaction throughput, scaled down when L0 accumulates
// files so compactions can drain the backlog.
type CapacityEstimator struct {
	initialized bool
	lastMetrics lsm.Metrics
	lastAt      time.Time
	smoothed    float64
}

// Update folds in a metrics snapshot taken at now and returns the current
// capacity estimate in bytes/sec. Snapshots arriving before Interval has
// elapsed return the previous estimate.
func (ce *CapacityEstimator) Update(m lsm.Metrics, now time.Time) float64 {
	if !ce.initialized {
		ce.initialized = true
		ce.lastMetrics = m
		ce.lastAt = now
		ce.smoothed = capacityFloor * 64 // optimistic until measured
		return ce.estimate(m)
	}
	dt := now.Sub(ce.lastAt).Seconds()
	if dt < capacityInterval.Seconds() {
		return ce.estimate(m)
	}
	deltaBytes := float64((m.FlushedBytes - ce.lastMetrics.FlushedBytes) +
		(m.CompactedBytes - ce.lastMetrics.CompactedBytes))
	observed := deltaBytes / dt
	if observed > 0 {
		// EWMA smoothing keeps the estimate stable across bursty intervals.
		ce.smoothed = 0.5*ce.smoothed + 0.5*observed
	}
	ce.lastMetrics = m
	ce.lastAt = now
	return ce.estimate(m)
}

// estimate applies the L0-backlog reduction to the smoothed throughput.
func (ce *CapacityEstimator) estimate(m lsm.Metrics) float64 {
	cap := ce.smoothed
	if m.L0Files > l0Threshold {
		cap *= float64(l0Threshold) / float64(m.L0Files)
	}
	if cap < capacityFloor {
		cap = capacityFloor
	}
	return cap
}
