package admission

import (
	"context"
	"math"
	"sync"
	"time"

	"crdbserverless/internal/lsm"
	"crdbserverless/internal/timeutil"
)

// WriteQueue admits write work against a token bucket denominated in bytes.
// The refill rate is what the storage engine can absorb (WriteRate):
// unlimited while L0 is shallow, L0's drain rate once it backs up, so a write
// burst that outruns compaction queues here instead of growing an L0 backlog
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

// NewWriteQueue returns an unlimited WriteQueue: an engine starts with an
// empty L0.
func NewWriteQueue(opts WriteQueueOptions) *WriteQueue {
	if opts.Clock == nil {
		opts.Clock = timeutil.NewRealClock()
	}
	q := &WriteQueue{clock: opts.Clock}
	q.mu.fq = newFairQueue(usageHalfLife, opts.Clock.Now())
	q.mu.rate = math.Inf(1)
	q.mu.burst = math.Inf(1)
	q.mu.tokens = math.Inf(1)
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

// Tick refills the bucket and grants waiting work. The KV node calls it from
// its upkeep round (Node.Tick); Admit also refills.
func (q *WriteQueue) Tick() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.refillLocked()
	q.grantLocked()
}

// SetRate sets the refill rate in bytes/sec; the bucket holds one second of
// it. An infinite rate (WriteRate's unlimited) fills the bucket, forgiving
// any debt, and grants every waiter.
func (q *WriteQueue) SetRate(bytesPerSec float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.refillLocked()
	if bytesPerSec < 1 {
		bytesPerSec = 1
	}
	q.mu.rate = bytesPerSec
	q.mu.burst = bytesPerSec
	if q.mu.tokens > q.mu.burst || math.IsInf(bytesPerSec, 1) {
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

// l0Threshold is the L0 file count above which writes are rated, and
// capacityFloor the least rate WriteRate returns, in bytes/sec.
const (
	l0Threshold   = 8
	capacityFloor = 1 << 20
)

// WriteRate returns the write queue's refill rate in bytes/sec from two
// engine snapshots taken dt apart (§5.1.3). While L0 holds at most
// l0Threshold files the engine keeps up and the rate is unlimited (+Inf).
// Above it, the rate is the bytes that left L0 over the interval — flushed
// into L0 less L0's growth — so admitted writes add to L0 no faster than
// compactions take from it. The rate never falls below capacityFloor: a
// compaction runs only after a flush, so a zero rate would admit no write,
// flush nothing, and wedge a node whose compactions failed.
func WriteRate(prev, cur lsm.Metrics, dt time.Duration) float64 {
	if cur.L0Files <= l0Threshold {
		return math.Inf(1)
	}
	drained := (cur.FlushedBytes - prev.FlushedBytes) - (cur.LevelBytes[0] - prev.LevelBytes[0])
	if rate := float64(drained) / dt.Seconds(); rate > capacityFloor {
		return rate
	}
	return capacityFloor
}
