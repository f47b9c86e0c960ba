package tenantcost

import (
	"context"
	"sync"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
)

// The distributed token bucket of §5.2.2. The authoritative bucket state
// lives on the BucketServer (in production, rows of a system-database table);
// each SQL node runs a NodeBucket that consumes from a local buffer and
// periodically requests more tokens. When the shared bucket empties, the
// server switches to "trickle grants": instead of lump sums it hands each
// node a tokens/second rate, sized so the sum of recent trickles converges on
// the bucket's refill rate. Nodes then run queries at a smooth reduced rate
// rather than stop/start. A trickle grant's tokens are debt that refill repays.

// TokensPerVCPUSecond is the refill rate per vCPU of quota: 1000 tokens/sec,
// each token one millisecond of estimated CPU.
const TokensPerVCPUSecond = 1000.0

// GrantResponse is the server's answer to a token request.
type GrantResponse struct {
	// Granted is a lump of tokens deducted from the shared bucket.
	Granted float64
	// TrickleRate, when nonzero, tells the node to consume at most this
	// many tokens/second until TrickleDeadline.
	TrickleRate     float64
	TrickleDeadline time.Time
}

// serverBucket is one tenant's authoritative state.
type serverBucket struct {
	tokens     float64
	rate       float64 // refill tokens/sec (quota vCPUs * 1000)
	burst      float64
	lastUpdate time.Time
	debt       float64 // trickle tokens granted and not yet repaid by refill
	// nodeRates is an EWMA of each node's recent request rate, used to
	// split trickle capacity proportionally.
	nodeRates    map[int32]float64
	trickleUntil map[int32]time.Time // end of each node's charged trickle window
}

// trickleInterval is how long each trickle grant lasts.
const trickleInterval = time.Second

// BucketServer is the token-bucket authority for all tenants of a cluster.
// Only SetQuota makes a tenant's bucket; a tenant without one is unlimited.
type BucketServer struct {
	clock timeutil.Clock

	mu      sync.Mutex
	tenants map[keys.TenantID]*serverBucket
}

// NewBucketServer returns a server using the given clock.
func NewBucketServer(clock timeutil.Clock) *BucketServer {
	if clock == nil {
		clock = timeutil.NewRealClock()
	}
	return &BucketServer{
		clock:   clock,
		tenants: make(map[keys.TenantID]*serverBucket),
	}
}

// SetQuota configures a tenant's CPU quota in vCPUs. The bucket refills at
// 1000 tokens/sec per vCPU and holds up to 10 seconds of burst.
func (s *BucketServer) SetQuota(tenant keys.TenantID, vcpus float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.tenants[tenant]
	if !ok {
		b = &serverBucket{
			lastUpdate:   s.clock.Now(),
			nodeRates:    make(map[int32]float64),
			trickleUntil: make(map[int32]time.Time),
		}
		s.tenants[tenant] = b
	}
	b.rate = vcpus * TokensPerVCPUSecond
	b.burst = b.rate * 10
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Quota returns the tenant's quota in vCPUs (0 = unlimited/unset).
//
//lint:allow deadsurface test seam: TestTenantQuotaConfigured checks that CreateTenant's quota reaches the bucket server
func (s *BucketServer) Quota(tenant keys.TenantID) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.tenants[tenant]; ok {
		return b.rate / TokensPerVCPUSecond
	}
	return 0
}

func (b *serverBucket) refill(now time.Time) {
	dt := now.Sub(b.lastUpdate).Seconds()
	if dt <= 0 {
		return
	}
	repay := min(b.rate*dt, b.debt)
	b.debt -= repay
	b.tokens += b.rate*dt - repay
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.lastUpdate = now
}

// Request asks for tokens on behalf of (tenant, node). rate is the node's
// recent consumption in tokens/second (its CPU usage over the last 10s);
// want is the lump the node would like. With tokens available the full lump
// is granted; with the bucket empty the server issues a trickle grant sized
// to the node's share of the tenant's total demand (§5.2.2's statistical
// guarantee: the sum of trickle rates converges on the refill rate).
func (s *BucketServer) Request(tenant keys.TenantID, node int32, rate, want float64) GrantResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	b, ok := s.tenants[tenant]
	if !ok || b.rate == 0 {
		// No quota configured: unlimited.
		return GrantResponse{Granted: want}
	}
	b.refill(now)

	// Update the node's demand EWMA.
	if prev, ok := b.nodeRates[node]; ok {
		b.nodeRates[node] = 0.5*prev + 0.5*rate
	} else {
		b.nodeRates[node] = rate
	}

	if b.tokens >= want {
		b.tokens -= want
		return GrantResponse{Granted: want}
	}

	// Bucket empty (or nearly): trickle. Node's share of the refill rate is
	// proportional to its recent demand among the recently-seen nodes.
	var totalDemand float64
	for _, r := range b.nodeRates {
		totalDemand += r
	}
	share := 1.0 / float64(len(b.nodeRates))
	if totalDemand > 0 {
		share = b.nodeRates[node] / totalDemand
	}
	grant := b.tokens // hand over whatever remains as a partial lump
	b.tokens = 0
	trickle, deadline := b.rate*share, now.Add(trickleInterval)
	// Charge only the part of the window not charged to this node before.
	from := now
	if prev := b.trickleUntil[node]; prev.After(from) {
		from = prev
	}
	b.debt += trickle * deadline.Sub(from).Seconds()
	b.trickleUntil[node] = deadline
	return GrantResponse{
		Granted:         grant,
		TrickleRate:     trickle,
		TrickleDeadline: deadline,
	}
}

// Available returns the tenant's current shared-bucket token balance.
func (s *BucketServer) Available(tenant keys.TenantID) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.tenants[tenant]
	if !ok {
		return 0
	}
	b.refill(s.clock.Now())
	return b.tokens
}

// NodeBucket is the per-SQL-node client of the distributed bucket. It
// maintains a local buffer of tokens to absorb bursts without a server round
// trip, and converts trickle grants into smooth per-operation delays.
type NodeBucket struct {
	server *BucketServer
	clock  timeutil.Clock
	tenant keys.TenantID
	node   int32
	// obs records every consumption as the tenant's request units
	// (tenantcost.tenant_ru), outside the bucket's and the server's locks.
	obs *tenantobs.Tenant

	mu struct {
		sync.Mutex
		local           float64 // locally buffered tokens
		trickleRate     float64
		trickleDeadline time.Time
		trickleAccrued  time.Time // accrual watermark for trickle tokens
		// payThrough is the virtual time through which returned delays have
		// already scheduled consumption against future trickle accrual.
		payThrough time.Time
		// consumption EWMA over ~10s, reported to the server as demand.
		rate       float64
		lastUpdate time.Time
		consumed   float64 // cumulative tokens consumed (for attribution)
		// charged is the largest cumulative total Throttle has charged.
		charged float64
	}
}

// requestWindow sizes the lump a NodeBucket requests when its buffer runs
// dry: the node's demand over this window (§5.2.2).
const requestWindow = 10 * time.Second

// NewNodeBucket returns a client for (tenant, node) against server. obs is
// the tenant's handle on the observability plane, nil when there is none.
func NewNodeBucket(server *BucketServer, clock timeutil.Clock, tenant keys.TenantID, node int32, obs *tenantobs.Tenant) *NodeBucket {
	if clock == nil {
		clock = timeutil.NewRealClock()
	}
	nb := &NodeBucket{server: server, clock: clock, tenant: tenant, node: node, obs: obs}
	nb.mu.lastUpdate = clock.Now()
	nb.mu.trickleAccrued = clock.Now()
	return nb
}

// Consume charges tokens of estimated CPU and returns the delay the caller
// must impose before (or while) running the work. A zero delay means the
// local buffer covered the charge. Under trickle grants the delay spreads
// consumption so the node runs at the granted rate instead of stop/start.
func (nb *NodeBucket) Consume(tokens float64) time.Duration {
	if tokens <= 0 {
		return 0
	}
	// Registered before the Unlock defer below, so it runs after the lock
	// is released: the observability plane is called with no tenantcost
	// locks held.
	defer nb.obs.AddRU(tokens)
	nb.mu.Lock()
	defer nb.mu.Unlock()
	now := nb.clock.Now()
	nb.updateRateLocked(now, tokens)
	nb.mu.consumed += tokens
	nb.accrueTrickleLocked(now)

	if nb.mu.local >= tokens {
		nb.mu.local -= tokens
		return 0
	}

	// Buffer dry: ask the server for the next window of demand.
	want := nb.mu.rate * requestWindow.Seconds()
	if min := tokens * 4; want < min {
		want = min
	}
	resp := nb.server.Request(nb.tenant, nb.node, nb.mu.rate, want)
	nb.mu.local += resp.Granted
	if resp.TrickleRate > 0 {
		nb.mu.trickleRate = resp.TrickleRate
		nb.mu.trickleDeadline = resp.TrickleDeadline
		nb.mu.trickleAccrued = now
	}

	if nb.mu.local >= tokens {
		nb.mu.local -= tokens
		return 0
	}

	// Still short: we are in trickle mode. The deficit arrives at the
	// trickle rate; schedule it on the virtual timeline so each caller's
	// delay smears its own consumption without double-charging debts.
	deficit := tokens - nb.mu.local
	nb.mu.local = 0
	rate := nb.mu.trickleRate
	if rate <= 0 {
		// No trickle grant (e.g. zero demand share): be conservative and
		// retry-after one second.
		return time.Second
	}
	start := now
	if nb.mu.payThrough.After(start) {
		start = nb.mu.payThrough
	}
	finish := start.Add(time.Duration(deficit / rate * float64(time.Second)))
	nb.mu.payThrough = finish
	// Future trickle accrual up to finish is spoken for.
	if finish.After(nb.mu.trickleAccrued) {
		nb.mu.trickleAccrued = finish
	}
	return finish.Sub(now)
}

// Throttle charges the bucket for consumption up to total, the caller's
// cumulative estimated CPU in tokens, and waits out the resulting delay
// (§5.2.2's smooth throttling). Callers sharing the bucket may pass the same
// running total: only the part no earlier call charged is consumed. The wait
// ends early when ctx does.
func (nb *NodeBucket) Throttle(ctx context.Context, total float64) {
	nb.mu.Lock()
	delta := total - nb.mu.charged
	if delta > 0 {
		nb.mu.charged = total
	}
	nb.mu.Unlock()
	delay := nb.Consume(delta)
	if delay <= 0 {
		return
	}
	select {
	case <-nb.clock.After(delay):
	case <-ctx.Done():
	}
}

// accrueTrickleLocked adds trickle-rate tokens accrued since the last call.
func (nb *NodeBucket) accrueTrickleLocked(now time.Time) {
	if nb.mu.trickleRate <= 0 {
		return
	}
	until := now
	if until.After(nb.mu.trickleDeadline) {
		until = nb.mu.trickleDeadline
	}
	dt := until.Sub(nb.mu.trickleAccrued).Seconds()
	if dt > 0 {
		nb.mu.local += nb.mu.trickleRate * dt
		nb.mu.trickleAccrued = until
	}
	if !now.Before(nb.mu.trickleDeadline) {
		nb.mu.trickleRate = 0
	}
}

// updateRateLocked maintains the consumption EWMA used as reported demand.
func (nb *NodeBucket) updateRateLocked(now time.Time, tokens float64) {
	dt := now.Sub(nb.mu.lastUpdate).Seconds()
	if dt <= 0 {
		dt = 1e-9
	}
	instant := tokens / dt
	// Smooth over roughly the request window.
	alpha := dt / (dt + requestWindow.Seconds()/2)
	if alpha > 1 {
		alpha = 1
	}
	nb.mu.rate = (1-alpha)*nb.mu.rate + alpha*instant
	nb.mu.lastUpdate = now
}

// Consumed returns cumulative tokens consumed through this node bucket.
func (nb *NodeBucket) Consumed() float64 {
	nb.mu.Lock()
	defer nb.mu.Unlock()
	return nb.mu.consumed
}

// LocalTokens returns the current local buffer balance.
func (nb *NodeBucket) LocalTokens() float64 {
	nb.mu.Lock()
	defer nb.mu.Unlock()
	return nb.mu.local
}
