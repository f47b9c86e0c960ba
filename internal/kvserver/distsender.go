package kvserver

import (
	"context"
	"errors"
	"slices"
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
// A batch goes out as one walk over the ranges it touches, one range at a
// time in the order its requests first reach them (see sendToRange). Each
// tenant has ranges of its own (§3.2.1), so almost every batch is one visit.
type DistSender struct {
	cluster  *Cluster
	identity Identity
	// cacheLimit caps both the descriptor cache and the lease-hint map. It
	// starts at descCacheLimit; only in-package tests lower it.
	cacheLimit int
	// faults, when non-nil, arms the sender's fault-injection sites
	// (dist.subbatch.err, dist.desc.stale).
	faults *faultinject.Registry
	// obs, when non-nil, counts each batch against the sender's tenant
	// (dist.tenant_batches).
	obs *tenantobs.Tenant

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
	// Faults, when non-nil, arms the sender's fault-injection sites:
	// dist.subbatch.err fails a range visit after the server applied it (the
	// response is dropped on the floor), and dist.desc.stale makes a META
	// lookup return a stale cached descriptor instead of the fresh one. The
	// walk consults them in one order, so a seed replays it.
	Faults *faultinject.Registry
	// Obs, when non-nil, counts each Send against the sender's tenant on
	// the tenant observability plane. The tenant's handle is resolved when
	// the sender is made.
	Obs *tenantobs.Plane
}

// descCacheLimit caps the range-descriptor cache and the lease-hint map.
// Long-lived senders on split-heavy clusters would otherwise grow those
// without bound. Crossing the cap triggers a full reset (cheap, and correct:
// both structures are best-effort hints repaired by redirects).
const descCacheLimit = 512

// NewDistSender returns a sender for the given identity. An optional Config
// wires faults and observability.
func NewDistSender(c *Cluster, id Identity, cfg ...Config) *DistSender {
	var conf Config
	if len(cfg) > 0 {
		conf = cfg[0]
	}
	ds := &DistSender{
		cluster:    c,
		identity:   id,
		cacheLimit: descCacheLimit,
		faults:     conf.Faults,
		obs:        conf.Obs.Tenant(id.Tenant),
	}
	ds.mu.leaseHints = make(map[RangeID]NodeID)
	return ds
}

// maxSendRetries bounds redirect-chasing per range version visited. A stale
// descriptor whose refresh finds a range version the visit has not tried yet
// (a split, merge or replica move landed since the lookup, and turned away
// the batches queued on the range it retired) restarts the budget: a writer
// racing a run of splits or moves makes progress on every refresh, and the
// topology changes in flight are finite.
const maxSendRetries = 16

// Send routes and executes the batch, walking the ranges it touches (see
// sendToRange) and merging per-range responses back into request order.
func (ds *DistSender) Send(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	ctx, sp := trace.StartSpan(ctx, "dist.send")
	defer sp.Finish()
	sp.SetAttr("dist.requests", len(ba.Requests))
	ds.obs.Batch()
	if ba.Timestamp.IsEmpty() && ba.Txn == nil {
		ba.Timestamp = ds.cluster.Clock().Now()
	}
	if len(ba.Requests) == 0 {
		return &kvpb.BatchResponse{Timestamp: ba.ReadTs()}, nil
	}
	resp, err := ds.sendToRange(ctx, ba)
	if err != nil {
		return nil, err
	}
	resp.Timestamp = ba.ReadTs()
	if resp.Ranges > 1 {
		sp.SetAttr("dist.ranges", resp.Ranges)
	}
	return resp, nil
}

// sendToRange walks the batch across ranges, starting at the first request's:
// each visit sends the requests that start in the range (chasing redirects,
// and cutting scans at its end), defers the rest, and the walk continues on
// the range of the first request still pending. The walk is iterative — one
// segment per range visited, folded back together in request order at the
// end — so a batch over many ranges neither grows the stack nor interleaves
// its trace events out of range order.
func (ds *DistSender) sendToRange(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
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
		desc, err := ds.descFor(pending[0].Key)
		if err != nil {
			return nil, err
		}
		var seg segment
		seg.pending = pending
		sent := false
		// tried lists the descriptors this visit has been redirected away
		// from; refreshed is the attempt after the last refresh that found a
		// range version not among them, where the budget restarts.
		var tried []*RangeDescriptor
		refreshed := 0
		for attempt := 0; attempt-refreshed < maxSendRetries; attempt++ {
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
			target := ds.target(desc, attempt)
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
				tried = append(tried, desc)
				if !slices.ContainsFunc(tried, func(d *RangeDescriptor) bool {
					return d.RangeID == fresh.RangeID && d.Generation == fresh.Generation
				}) {
					refreshed = attempt + 1
				}
				desc = fresh
			default:
				return nil, err
			}
		}
		if !sent {
			return nil, errRetryExhausted
		}
		if err := ds.faults.MaybeErr("dist.subbatch.err"); err != nil {
			// The visit applied; its response is lost.
			return nil, err
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

// target picks the node to contact: the lease hint or, absent one, a replica
// that may acquire the lease.
func (ds *DistSender) target(desc *RangeDescriptor, attempt int) NodeID {
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

// descFor returns the descriptor of the range containing key: the cached one,
// or on a miss the one META holds. A stale hit draws a redirect, and the
// visit refreshes it.
func (ds *DistSender) descFor(key keys.Key) (*RangeDescriptor, error) {
	ds.mu.Lock()
	desc := ds.cachedDescLocked(key)
	ds.mu.Unlock()
	if desc != nil {
		return desc, nil
	}
	return ds.lookupFresh(key)
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
// lies in some other range is deferred wholly to the continuation.
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
// range's responses, yielding one response per pending request, which owns
// every page of both. After an identity clip that is head itself: nothing
// was truncated, and a range returns no more rows than a scan's limit.
func (c *rangeClip) merge(reqs []kvpb.Request, remIdx []int, head, rest *kvpb.BatchResponse) *kvpb.BatchResponse {
	if c.sentIdx == nil {
		return head
	}
	out := &kvpb.BatchResponse{Timestamp: head.Timestamp}
	out.TakePages(head)
	if rest != nil {
		out.TakePages(rest)
	}
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
				r.ScannedBytes += cont.ScannedBytes
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
