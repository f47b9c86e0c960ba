package kvserver

import (
	"context"
	"errors"
	"sort"
	"sync"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/trace"
)

// DistSender routes batches to the right ranges and nodes on behalf of one
// authenticated client (a SQL node). It keeps a range-descriptor cache fed
// by META lookups — which tolerate staleness, like the follower reads of
// §3.2.5 — and repairs the cache on NotLeaseholder / RangeKeyMismatch
// redirects.
//
// Send dispatches the per-range sub-batches of a multi-range batch
// concurrently on a bounded worker pool (production CRDB's per-range RPC
// fan-out), merging responses back into request order. Parallel dispatch
// preserves trace determinism: each sub-batch runs under a forked child
// span whose ID stream is drawn from the seeded tracer RNG in request
// order before any goroutine launches, and branches attach to the parent
// span in that same order, never in completion order.
type DistSender struct {
	cluster  *Cluster
	identity Identity
	// parallelism bounds concurrent sub-batch dispatch; 1 means
	// sequential.
	parallelism int
	// cacheLimit caps both the descriptor cache and the lease-hint map. It
	// starts at descCacheLimit; only in-package tests lower it.
	cacheLimit int
	// faults, when non-nil, arms the sender's fault-injection sites
	// (dist.subbatch.err, dist.desc.stale).
	faults *faultinject.Registry
	// obs, when non-nil, counts each batch against the sender's tenant
	// (dist.tenant_batches).
	obs *tenantobs.Plane

	mu struct {
		sync.Mutex
		// cache maps range start keys to descriptors (possibly stale).
		cache []*RangeDescriptor
		// leaseHints remembers the last known leaseholder per range.
		leaseHints map[RangeID]NodeID
	}
}

// Config tunes a DistSender. The zero value means defaults everywhere.
type Config struct {
	// Parallelism bounds how many per-range sub-batches Send dispatches
	// concurrently. The effective fan-out is min(Parallelism, number of
	// ranges addressed). 0 means DefaultParallelism; 1 disables the
	// fan-out entirely (sequential dispatch in request order).
	Parallelism int
	// Faults, when non-nil, arms the sender's fault-injection sites:
	// dist.subbatch.err fails a per-range sub-batch after the server applied
	// it (the response is dropped on the floor), and dist.desc.stale makes a
	// META lookup return a stale cached descriptor instead of the fresh one.
	Faults *faultinject.Registry
	// Obs, when non-nil, counts each Send against the sender's tenant on
	// the tenant observability plane.
	Obs *tenantobs.Plane
}

// DefaultParallelism is the default bound on concurrent per-range dispatch.
const DefaultParallelism = 8

// descCacheLimit caps the range-descriptor cache and the lease-hint map.
// Long-lived senders on split-heavy clusters would otherwise grow those
// without bound. Crossing the cap triggers a full reset (cheap, and correct:
// both structures are best-effort hints repaired by redirects).
const descCacheLimit = 512

// NewDistSender returns a sender for the given identity. An optional Config
// tunes fan-out parallelism and wires faults and observability.
func NewDistSender(c *Cluster, id Identity, cfg ...Config) *DistSender {
	var conf Config
	if len(cfg) > 0 {
		conf = cfg[0]
	}
	if conf.Parallelism <= 0 {
		conf.Parallelism = DefaultParallelism
	}
	ds := &DistSender{
		cluster:     c,
		identity:    id,
		parallelism: conf.Parallelism,
		cacheLimit:  descCacheLimit,
		faults:      conf.Faults,
		obs:         conf.Obs,
	}
	ds.mu.leaseHints = make(map[RangeID]NodeID)
	return ds
}

// Identity returns the sender's authenticated identity.
func (ds *DistSender) Identity() Identity { return ds.identity }

// maxSendRetries bounds redirect-chasing per range visited.
const maxSendRetries = 16

// Send routes and executes the batch, merging per-range responses back into
// request order.
func (ds *DistSender) Send(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	ctx, sp := trace.StartSpan(ctx, "dist.send")
	defer sp.Finish()
	sp.SetAttr("dist.requests", len(ba.Requests))
	ds.obs.Batch(ds.identity.Tenant)
	if ba.Timestamp.IsEmpty() && ba.Txn == nil {
		ba.Timestamp = ds.cluster.Clock().Now()
	}
	groups, err := ds.splitByRange(ba.Requests)
	if err != nil {
		return nil, err
	}
	// Pre-draw per-sub-batch fault decisions sequentially in group order —
	// the same discipline as the pre-forked trace spans — so parallel
	// dispatch cannot reorder schedule consultations. An injected sub-batch
	// failure surfaces after the server applied the sub-batch: the write
	// landed but the client never hears about it (a lost response).
	var injected []error
	if ds.faults != nil {
		injected = make([]error, len(groups))
		for i := range groups {
			injected[i] = ds.faults.MaybeErr("dist.subbatch.err")
		}
	}
	if len(groups) == 1 && groups[0].indexes == nil {
		// One range takes the whole batch, in order: its response is the
		// batch's, and there is nothing to fold.
		resp, err := ds.sendGroup(ctx, groups[0], ba, injected, 0)
		if err != nil {
			return nil, err
		}
		resp.Timestamp = ba.ReadTs()
		return resp, nil
	}
	out := &kvpb.BatchResponse{Timestamp: ba.ReadTs(), Responses: make([]kvpb.Response, len(ba.Requests))}
	if len(groups) > 1 && ds.parallelism > 1 {
		sp.SetAttr("dist.ranges", len(groups))
		err = ds.sendParallel(ctx, sp, groups, ba, out, injected)
	} else {
		err = ds.sendSequential(ctx, groups, ba, out, injected)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fold copies one group's merged response into the batch's. A commit batch
// counts as committed only when one range, in one visit, took all of it.
func (g *requestGroup) fold(out, resp *kvpb.BatchResponse, groups int) {
	for i, pos := range g.indexes {
		out.Responses[pos] = resp.Responses[i]
	}
	out.Ranges += resp.Ranges
	out.Committed = resp.Committed && groups == 1
}

// sendGroup sends group gi's sub-batch to its range. The group that is the
// whole batch goes out as ba itself, uncopied.
func (ds *DistSender) sendGroup(ctx context.Context, g requestGroup, ba *kvpb.BatchRequest, injected []error, gi int) (*kvpb.BatchResponse, error) {
	sub := ba
	if g.indexes != nil {
		cp := *ba
		cp.Requests = g.requests
		sub = &cp
	}
	resp, err := ds.sendToRange(ctx, g.desc, sub)
	if err == nil && injected != nil && injected[gi] != nil {
		// The sub-batch applied; its response is lost.
		err = injected[gi]
	}
	return resp, err
}

// sendSequential dispatches the groups one at a time in request order — the
// Parallelism<=1 configuration, and a batch regrouped after a cache miss.
func (ds *DistSender) sendSequential(ctx context.Context, groups []requestGroup, ba *kvpb.BatchRequest, out *kvpb.BatchResponse, injected []error) error {
	for gi, g := range groups {
		resp, err := ds.sendGroup(ctx, g, ba, injected, gi)
		if err != nil {
			return err
		}
		g.fold(out, resp, len(groups))
	}
	return nil
}

// sendParallel dispatches one goroutine per group on a bounded worker pool.
// Trace determinism: the per-branch dist.fanout spans (and the forked ID
// streams their descendants draw from) are created sequentially in group
// order before any goroutine starts, and responses merge by group index —
// completion order never leaks into the trace or the response.
func (ds *DistSender) sendParallel(ctx context.Context, sp *trace.Span, groups []requestGroup, ba *kvpb.BatchRequest, out *kvpb.BatchResponse, injected []error) error {
	type branch struct {
		ctx  context.Context
		sp   *trace.Span
		resp *kvpb.BatchResponse
		err  error
	}
	branches := make([]branch, len(groups))
	for i := range groups {
		bsp := sp.StartForkedChild("dist.fanout")
		bsp.SetAttr("dist.range", groups[i].desc.RangeID)
		branches[i] = branch{ctx: trace.ContextWithSpan(ctx, bsp), sp: bsp}
	}
	workers := ds.parallelism
	if workers > len(groups) {
		workers = len(groups)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			b := &branches[i]
			b.resp, b.err = ds.sendGroup(b.ctx, groups[i], ba, injected, i)
			b.sp.Finish()
		}(i)
	}
	wg.Wait()
	for i := range groups {
		if branches[i].err != nil {
			return branches[i].err
		}
		groups[i].fold(out, branches[i].resp, len(groups))
	}
	return nil
}

// requestGroup is a set of requests addressed to one range.
type requestGroup struct {
	desc     *RangeDescriptor
	requests []kvpb.Request
	// indexes are the requests' positions in the original batch; nil when the
	// group is the whole batch, in order.
	indexes []int
}

// splitByRange partitions requests by the (cached) range containing each
// request's start key. The descriptor cache is consulted once for the whole
// batch under a single lock acquisition; only misses fall back to META via
// lookupFresh. Scans that cross range boundaries are split into per-range
// sub-scans by sendToRange's mismatch handling.
//
// A batch whose requests all sit in one cached range — a point read, a
// transaction on a tenant whose tables share a range — is the usual case and
// comes back as one group over reqs itself, with nothing else built.
func (ds *DistSender) splitByRange(reqs []kvpb.Request) ([]requestGroup, error) {
	// descs stays nil while every request so far is in the first one's range.
	var descs []*RangeDescriptor
	var first *RangeDescriptor
	var misses []int
	ds.mu.Lock()
	for i, r := range reqs {
		d := ds.cachedDescLocked(r.Key)
		if i == 0 {
			first = d
		}
		if descs == nil {
			if d != nil && d == first {
				continue
			}
			descs = make([]*RangeDescriptor, len(reqs))
			for j := range descs[:i] {
				descs[j] = first
			}
		}
		if d != nil {
			descs[i] = d
		} else {
			misses = append(misses, i)
		}
	}
	ds.mu.Unlock()
	if descs == nil && len(reqs) > 0 {
		return []requestGroup{{desc: first, requests: reqs}}, nil
	}
	var last *RangeDescriptor
	for _, i := range misses {
		if last != nil && last.ContainsKey(reqs[i].Key) {
			descs[i] = last
			continue
		}
		d, err := ds.lookupFresh(reqs[i].Key)
		if err != nil {
			return nil, err
		}
		descs[i] = d
		last = d
	}

	byRange := make(map[RangeID]*requestGroup)
	var order []RangeID
	for i, r := range reqs {
		desc := descs[i]
		g, ok := byRange[desc.RangeID]
		if !ok {
			g = &requestGroup{desc: desc}
			byRange[desc.RangeID] = g
			order = append(order, desc.RangeID)
		}
		g.requests = append(g.requests, r)
		g.indexes = append(g.indexes, i)
	}
	out := make([]requestGroup, 0, len(order))
	for _, id := range order {
		out = append(out, *byRange[id])
	}
	return out, nil
}

// sendToRange delivers a sub-batch to its range, chasing redirects and
// splitting scans at range boundaries as needed. Cross-range continuation is
// iterative — one segment per range visited, folded back together at the
// end — so a scan over many ranges neither grows the stack nor interleaves
// its trace events out of range order.
func (ds *DistSender) sendToRange(ctx context.Context, desc *RangeDescriptor, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	// segment records one range's worth of the walk: the requests pending
	// when the range was reached, how each was routed (sent, truncated, or
	// deferred to the continuation), and the range's response.
	type segment struct {
		pending []kvpb.Request
		clip    rangeClip
		resp    *kvpb.BatchResponse
		remIdx  []int
	}
	// One range is the usual walk; its segment stays on the stack.
	segs := make([]segment, 0, 1)
	pending := ba.Requests
	for {
		var seg segment
		seg.pending = pending
		sent := false
		for attempt := 0; attempt < maxSendRetries; attempt++ {
			// Clip inside the retry loop: a stale-descriptor refresh can
			// change the range span and with it the routing.
			clip := clipToRange(pending, desc.Span)
			// The first range taking all of ba gets ba itself.
			sub := ba
			if clip.sentIdx != nil || len(segs) > 0 {
				cp := *ba
				cp.Requests = clip.sent
				sub = &cp
			}
			target := ds.target(desc, ba, attempt)
			resp, err := ds.cluster.Batch(ctx, target, ds.identity, sub)
			if err == nil {
				ds.noteLeaseholder(desc.RangeID, target)
				seg.clip = clip
				seg.resp = resp
				sent = true
				break
			}

			var nle *kvpb.NotLeaseholderError
			var rkm *kvpb.RangeKeyMismatchError
			var rnf *kvpb.RangeNotFoundError
			switch {
			case errors.As(err, &nle):
				trace.SpanFromContext(ctx).Eventf(
					"redirect: not leaseholder for r%d on n%d, leaseholder hint n%d (attempt %d)",
					desc.RangeID, target, nle.Leaseholder, attempt+1)
				if nle.Leaseholder != 0 {
					ds.noteLeaseholder(desc.RangeID, nle.Leaseholder)
				} else {
					ds.clearLeaseHint(desc.RangeID)
				}
			case errors.As(err, &rkm), errors.As(err, &rnf):
				// Stale cache: refresh from META and retry. The fresh
				// descriptor is guaranteed to contain pending[0], so the
				// next attempt always sends at least one request.
				trace.SpanFromContext(ctx).Eventf("range lookup: stale descriptor for r%d (attempt %d): %v",
					desc.RangeID, attempt+1, err)
				fresh, lerr := ds.lookupFresh(pending[0].Key)
				if lerr != nil {
					return nil, lerr
				}
				desc = fresh
			default:
				return nil, err
			}
		}
		if !sent {
			return nil, errRetryExhausted
		}
		remainder, remIdx := seg.clip.continuation(pending, seg.resp)
		seg.remIdx = remIdx
		segs = append(segs, seg)
		if len(remainder) == 0 {
			break
		}
		// Continue on the range containing the next pending request. Every
		// iteration fully serves at least one request (or strictly advances
		// a scan's start key past desc.Span.EndKey), so the walk terminates.
		trace.SpanFromContext(ctx).Eventf("range lookup: batch continues past r%d", desc.RangeID)
		nextDesc, lerr := ds.lookupFresh(remainder[0].Key)
		if lerr != nil {
			return nil, lerr
		}
		desc = nextDesc
		pending = remainder
	}

	// Fold the per-range segments back into one response per original
	// request, right to left: each segment merges its continuation (the
	// already-folded tail) into its own responses. The last segment has no
	// continuation but still needs the merge pass — a truncated scan that
	// satisfied its limit in-range must have its resume window re-pointed
	// at the original scan end rather than the clip end.
	var merged *kvpb.BatchResponse
	for i := len(segs) - 1; i >= 0; i-- {
		merged = segs[i].clip.merge(segs[i].pending, segs[i].remIdx, segs[i].resp, merged)
	}
	merged.Ranges = len(segs)
	merged.Committed = len(segs) == 1 && segs[0].resp.Committed
	return merged, nil
}

// target picks the node to contact: follower reads go to the first replica
// (in production, the nearest); everything else goes to the lease hint or,
// absent one, a replica that may acquire the lease.
func (ds *DistSender) target(desc *RangeDescriptor, ba *kvpb.BatchRequest, attempt int) NodeID {
	if ba.FollowerRead && ba.IsReadOnly() {
		return desc.Replicas[0]
	}
	ds.mu.Lock()
	hint, ok := ds.mu.leaseHints[desc.RangeID]
	ds.mu.Unlock()
	if ok {
		return hint
	}
	// No hint: rotate through the replicas across attempts. Always retrying
	// Replicas[0] exhausts the retry budget when that node is dead (it can
	// never acquire the lease) even though a live replica could serve — a
	// gap the chaos harness's liveness flaps exposed.
	return desc.Replicas[attempt%len(desc.Replicas)]
}

func (ds *DistSender) noteLeaseholder(id RangeID, n NodeID) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if _, ok := ds.mu.leaseHints[id]; !ok && len(ds.mu.leaseHints) >= ds.cacheLimit {
		// Full reset on overflow: hints are best-effort and repaired by
		// the next NotLeaseholder redirect.
		ds.mu.leaseHints = make(map[RangeID]NodeID)
	}
	ds.mu.leaseHints[id] = n
}

func (ds *DistSender) clearLeaseHint(id RangeID) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	delete(ds.mu.leaseHints, id)
}

// CacheSizes reports the current descriptor-cache and lease-hint entry
// counts (tests assert the bounds hold).
func (ds *DistSender) CacheSizes() (descriptors, leaseHints int) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return len(ds.mu.cache), len(ds.mu.leaseHints)
}

// cachedDescLocked returns the cached descriptor containing key, or nil.
// Caller holds ds.mu.
func (ds *DistSender) cachedDescLocked(key keys.Key) *RangeDescriptor {
	i := sort.Search(len(ds.mu.cache), func(i int) bool {
		return key.Less(ds.mu.cache[i].Span.Key)
	})
	if i > 0 && ds.mu.cache[i-1].ContainsKey(key) {
		return ds.mu.cache[i-1]
	}
	return nil
}

// lookupFresh reads META and updates the cache.
func (ds *DistSender) lookupFresh(key keys.Key) (*RangeDescriptor, error) {
	desc, err := ds.cluster.LookupRange(key)
	if err != nil {
		return nil, err
	}
	injectStale := ds.faults.Should("dist.desc.stale")
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if injectStale {
		// Stale-descriptor injection: serve the superseded cached entry
		// instead of the fresh one, modeling a lagging META follower read
		// (§3.2.5 tolerates exactly this). The misrouted batch draws a
		// RangeKeyMismatch redirect and the next lookup repairs the cache.
		if stale := ds.cachedDescLocked(key); stale != nil && stale.RangeID != desc.RangeID {
			return stale, nil
		}
	}
	// Evict overlapping stale entries, insert the fresh one, restore order.
	kept := ds.mu.cache[:0]
	for _, d := range ds.mu.cache {
		if !d.Span.Overlaps(desc.Span) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, desc)
	if len(kept) > ds.cacheLimit {
		// Full reset on overflow, retaining only the fresh entry.
		kept = []*RangeDescriptor{desc}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Span.Key.Less(kept[j].Span.Key) })
	ds.mu.cache = kept
	return desc, nil
}

// rangeClip describes how one range's visit routed the pending requests. A
// request whose start key lies inside the range is sent (a scan extending
// past the range end is truncated at it first); a request whose start key
// lies in some other range — possible when a stale cache grouped points
// that a split has since scattered — is deferred wholly to the
// continuation.
type rangeClip struct {
	sent []kvpb.Request
	// sentIdx maps each pending index to its position in sent, or -1 if
	// the request was deferred. It is nil when every pending request lies
	// wholly inside the range: sent is the pending slice itself, and the
	// visit leaves nothing to continue or merge.
	sentIdx []int
	// truncated marks pending indexes whose scan was cut at clipEnd.
	truncated []bool
	// clipEnd is the range's end key, where truncated scans resume.
	clipEnd keys.Key
}

// clipToRange routes requests for a visit to the range covering span.
func clipToRange(reqs []kvpb.Request, span keys.Span) rangeClip {
	c := rangeClip{sent: reqs, clipEnd: span.EndKey}
	for i, r := range reqs {
		s := r.Span()
		inside := span.ContainsKey(s.Key)
		if inside && (s.IsPoint() || !span.EndKey.Less(s.EndKey)) {
			if c.sentIdx != nil {
				c.sentIdx[i] = len(c.sent)
				c.sent = append(c.sent, r)
			}
			continue
		}
		if c.sentIdx == nil {
			// The first request not wholly inside: route the ones before
			// it, all sent as they are, explicitly.
			c.sentIdx = make([]int, len(reqs))
			c.truncated = make([]bool, len(reqs))
			for j := range reqs[:i] {
				c.sentIdx[j] = j
			}
			c.sent = append([]kvpb.Request(nil), reqs[:i]...)
		}
		if !inside {
			c.sentIdx[i] = -1
			continue
		}
		head := r
		head.EndKey = span.EndKey.Clone()
		c.sentIdx[i] = len(c.sent)
		c.sent = append(c.sent, head)
		c.truncated[i] = true
	}
	return c
}

// continuation builds the requests still pending after this range's
// response: deferred requests pass through unchanged, and truncated scans
// that have not yet hit their row limit resume at clipEnd with a
// correspondingly reduced limit. remIdx maps each pending index to its
// position in the continuation, or -1.
func (c *rangeClip) continuation(reqs []kvpb.Request, resp *kvpb.BatchResponse) (remainder []kvpb.Request, remIdx []int) {
	if c.sentIdx == nil {
		return nil, nil
	}
	remIdx = make([]int, len(reqs))
	for i, r := range reqs {
		remIdx[i] = -1
		si := c.sentIdx[i]
		if si < 0 {
			remIdx[i] = len(remainder)
			remainder = append(remainder, r)
			continue
		}
		if !c.truncated[i] {
			continue
		}
		tail := r
		tail.Key = c.clipEnd.Clone()
		if r.MaxKeys > 0 {
			got := int64(len(resp.Responses[si].Rows))
			if got >= r.MaxKeys || resp.Responses[si].ResumeSpan != nil {
				// Limit already reached inside this range — also when a
				// pushed-down filter then dropped rows, leaving the page short
				// with more of the range to read. Merge will surface the
				// resume point without visiting further ranges.
				continue
			}
			tail.MaxKeys = r.MaxKeys - got
		}
		remIdx[i] = len(remainder)
		remainder = append(remainder, tail)
	}
	return remainder, remIdx
}

// merge folds the continuation's (already-merged) responses into this
// range's responses, yielding one response per pending request. After an
// identity clip that is head itself: nothing was truncated, and a range
// returns no more rows than a scan's limit.
func (c *rangeClip) merge(reqs []kvpb.Request, remIdx []int, head, rest *kvpb.BatchResponse) *kvpb.BatchResponse {
	if c.sentIdx == nil {
		return head
	}
	out := &kvpb.BatchResponse{Timestamp: head.Timestamp}
	for i := range reqs {
		si := c.sentIdx[i]
		if si < 0 {
			out.Responses = append(out.Responses, rest.Responses[remIdx[i]])
			continue
		}
		r := head.Responses[si]
		if c.truncated[i] {
			if ri := remIdx[i]; ri >= 0 {
				cont := rest.Responses[ri]
				r.Rows = append(r.Rows, cont.Rows...)
				r.ResumeSpan = cont.ResumeSpan
			} else if r.ResumeSpan != nil {
				// The range-local scan stopped at its limit; re-point the
				// resume window at the original scan end, not the clip end.
				r.ResumeSpan = &keys.Span{Key: r.ResumeSpan.Key, EndKey: reqs[i].EndKey}
			} else {
				// Limit satisfied exactly at the clip boundary: resume from
				// the next range even though the server saw no overflow.
				r.ResumeSpan = &keys.Span{Key: c.clipEnd.Clone(), EndKey: reqs[i].EndKey}
			}
		}
		// Re-apply the scan's row limit across the merged parts.
		if max := reqs[i].MaxKeys; max > 0 && int64(len(r.Rows)) > max {
			resume := keys.Span{Key: r.Rows[max].Key.Clone(), EndKey: reqs[i].EndKey}
			r.Rows = r.Rows[:max]
			r.ResumeSpan = &resume
		}
		out.Responses = append(out.Responses, r)
	}
	return out
}
