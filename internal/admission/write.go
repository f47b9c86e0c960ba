package admission

import (
	"context"
	"sync"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
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
		tokens     float64 // available bytes
		rate       float64 // refill bytes/sec
		burst      float64
		lastRefill time.Time
		admitted   int64
		queued     int64
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

// Admit blocks until bytes of write capacity are available (or ctx is done).
// bytes should be the *estimated actual* write bytes, i.e. the linear model's
// prediction including the raft log and state-machine writes (§5.1.4).
func (q *WriteQueue) Admit(ctx context.Context, info WorkInfo, bytes int64) error {
	if bytes <= 0 {
		return nil
	}
	q.mu.Lock()
	q.refillLocked()
	if q.mu.fq.peekNext() == nil && q.mu.tokens >= float64(bytes) {
		q.mu.tokens -= float64(bytes)
		q.mu.admitted++
		q.mu.fq.recordUsage(info.Tenant, float64(bytes), q.clock.Now())
		q.mu.Unlock()
		return nil
	}
	w := &waiter{info: info, amount: float64(bytes), grantCh: make(chan struct{})}
	q.mu.fq.enqueue(w)
	q.mu.queued++
	q.mu.Unlock()

	sp := trace.SpanFromContext(ctx)
	enqueued := q.clock.Now()
	sp.Eventf("admission: write queued tenant=%d bytes=%d", info.Tenant, bytes)

	select {
	case <-w.grantCh:
		sp.SetAttr("admission.write_wait", q.clock.Since(enqueued))
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		select {
		case <-w.grantCh:
			q.mu.Unlock()
			return ctx.Err()
		default:
		}
		w.canceled = true
		q.mu.Unlock()
		return ctx.Err()
	}
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
		if w == nil || q.mu.tokens < w.amount {
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
	Queued   int64
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
		Queued:   q.mu.queued,
	}
}

// TenantUsage returns the tenant's decayed recent write bytes.
func (q *WriteQueue) TenantUsage(id keys.TenantID) float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.mu.fq.usage(id)
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

// CapacityEstimator turns LSM instrumentation into a write-capacity estimate
// in bytes/sec, re-evaluated at a fixed interval (15s in the paper). The
// estimate is the observed flush+compaction throughput, scaled down when L0
// accumulates files so compactions can drain the backlog.
type CapacityEstimator struct {
	// Interval is the minimum time between re-estimates. Defaults to 15s.
	Interval time.Duration
	// L0Threshold is the L0 file count above which capacity is reduced.
	// Defaults to 8.
	L0Threshold int
	// Floor is the minimum capacity returned. Defaults to 1 MiB/s.
	Floor float64

	initialized bool
	lastMetrics lsm.Metrics
	lastAt      time.Time
	smoothed    float64
}

func (ce *CapacityEstimator) defaults() {
	if ce.Interval == 0 {
		ce.Interval = 15 * time.Second
	}
	if ce.L0Threshold == 0 {
		ce.L0Threshold = 8
	}
	if ce.Floor == 0 {
		ce.Floor = 1 << 20
	}
}

// Update folds in a metrics snapshot taken at now and returns the current
// capacity estimate in bytes/sec. Snapshots arriving before Interval has
// elapsed return the previous estimate.
func (ce *CapacityEstimator) Update(m lsm.Metrics, now time.Time) float64 {
	ce.defaults()
	if !ce.initialized {
		ce.initialized = true
		ce.lastMetrics = m
		ce.lastAt = now
		ce.smoothed = ce.Floor * 64 // optimistic until measured
		return ce.estimate(m)
	}
	dt := now.Sub(ce.lastAt).Seconds()
	if dt < ce.Interval.Seconds() {
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
	if m.L0Files > ce.L0Threshold {
		cap *= float64(ce.L0Threshold) / float64(m.L0Files)
	}
	if cap < ce.Floor {
		cap = ce.Floor
	}
	return cap
}
