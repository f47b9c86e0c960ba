package kvserver

import (
	"errors"

	"crdbserverless/internal/keys"
)

// Range merging: the inverse of splitLocked, run only when asked (MergeAt;
// the chaos merge storm drives it). Two adjacent ranges with identical
// replica sets collapse into one — a fresh range over the union
// span whose replication group is seeded (SeedState) at the sum of the
// parents' commit indexes, with each replica's applied index the sum of its
// parents' applied indexes. The span data never moves: it already lives in
// every replica's engine. A replica that was lagging in either parent reads
// as lagging in the merged group and heals via snapshot from the catch-up
// donor, exactly as split-created groups do.

var errMergeIneligible = errors.New("kvserver: ranges not eligible to merge")

// MergeAt merges the range containing key with its right neighbor, if the
// pair is eligible (adjacent, same replicas, same tenant). It reports
// whether a merge happened; ineligibility is (false, nil), not an error.
// Both range latches are held in span order (left before right) for the
// duration, so no batch evaluates on either side mid-merge; the lock-order
// lint's cycle detection treats same-class ordered acquisition as safe.
func (c *Cluster) MergeAt(key keys.Key) (bool, error) {
	left, err := c.rangeFor(key)
	if err != nil {
		return false, err
	}
	left.latch.Lock()
	defer left.latch.Unlock()
	leftDesc := left.desc.Load()
	if c.rangeByID(leftDesc.RangeID) != left {
		return false, nil // merged away while we waited for the latch
	}
	rightDesc := c.dir.next(leftDesc.Span.EndKey)
	if rightDesc == nil {
		return false, nil // last range of the keyspace
	}
	right := c.rangeByID(rightDesc.RangeID)
	if right == nil {
		return false, nil
	}
	right.latch.Lock()
	defer right.latch.Unlock()
	// Re-verify under both latches: a racing split or merge may have
	// changed either side while we acquired locks.
	rightDesc = right.desc.Load()
	if c.rangeByID(rightDesc.RangeID) != right ||
		!rightDesc.Span.Key.Equal(leftDesc.Span.EndKey) {
		return false, nil
	}
	if !mergeEligible(leftDesc, rightDesc) {
		return false, nil
	}

	// Pick the catch-up donor: a live replica that both groups bring to
	// their commit index before seeding, so the merged group always has a
	// snapshot source at the summed commit.
	donor, ok := c.mergeDonor(left, right)
	if !ok {
		return false, errMergeIneligible
	}
	lg, rg := left.group.Load(), right.group.Load()
	if err := lg.CatchUp(donor); err != nil {
		return false, err
	}
	if err := rg.CatchUp(donor); err != nil {
		return false, err
	}

	lc, rc := lg.CommitIndex(), rg.CommitIndex()
	applied := make(map[NodeID]uint64, len(leftDesc.Replicas))
	for _, nid := range leftDesc.Replicas {
		var la, ra uint64
		if a, err := lg.AppliedIndex(nid); err == nil {
			la = a
		}
		if a, err := rg.AppliedIndex(nid); err == nil {
			ra = a
		}
		applied[nid] = la + ra
	}

	union := keys.Span{Key: leftDesc.Span.Key.Clone(), EndKey: rightDesc.Span.EndKey.Clone()}

	c.mu.Lock()
	merged, err := c.newRangeStateLocked(union, leftDesc.Replicas, max(leftDesc.Generation, rightDesc.Generation)+1)
	if err != nil {
		c.mu.Unlock()
		return false, err
	}
	merged.group.Load().SeedState(lc+rc, applied)
	// The merged range remembers the reads both parents served.
	merged.tsc.absorb(left.tsc, union)
	merged.tsc.absorb(right.tsc, union)
	// Commit: swap both parents for the union descriptor atomically, then
	// retire the parents from the range map.
	mergedDesc := merged.desc.Load()
	if err := c.dir.mergeReplace(leftDesc.RangeID, rightDesc.RangeID, mergedDesc); err != nil {
		delete(c.mu.ranges, mergedDesc.RangeID)
		c.mu.Unlock()
		return false, err
	}
	delete(c.mu.ranges, leftDesc.RangeID)
	delete(c.mu.ranges, rightDesc.RangeID)
	left.statsMu.Lock()
	lb := left.writtenBytes
	left.statsMu.Unlock()
	right.statsMu.Lock()
	rb := right.writtenBytes
	right.statsMu.Unlock()
	merged.statsMu.Lock()
	merged.writtenBytes = lb + rb
	merged.statsMu.Unlock()
	c.mu.Unlock()

	// Serve without interruption: the donor is caught up in both parents,
	// so it can take the merged lease immediately.
	//lint:allow faulterr a failed grant leaves the merged range without a lease, which the next tick grants
	_ = merged.group.Load().AcquireLease(donor)
	return true, nil
}

// mergeEligible checks the structural merge preconditions: identical
// replica sets and both spans owned by the same tenant (the KV layer
// guarantees no two tenants ever share a range, §3.2.1 — a merge across a
// tenant boundary would violate it).
func mergeEligible(left, right *RangeDescriptor) bool {
	if len(left.Replicas) != len(right.Replicas) {
		return false
	}
	members := make(map[NodeID]struct{}, len(left.Replicas))
	for _, n := range left.Replicas {
		members[n] = struct{}{}
	}
	for _, n := range right.Replicas {
		if _, ok := members[n]; !ok {
			return false
		}
	}
	lt, _, lok := keys.DecodeTenantPrefix(left.Span.Key)
	rt, _, rok := keys.DecodeTenantPrefix(right.Span.Key)
	return lok && rok && lt == rt
}

// mergeDonor picks the live replica both groups catch up before seeding:
// the left leaseholder if live, else the right's, else the first live
// replica in descriptor order.
func (c *Cluster) mergeDonor(left, right *rangeState) (NodeID, bool) {
	if lh, ok := left.group.Load().Leaseholder(); ok && c.liveness(lh) {
		return lh, true
	}
	if lh, ok := right.group.Load().Leaseholder(); ok && c.liveness(lh) {
		return lh, true
	}
	for _, nid := range left.desc.Load().Replicas {
		if c.liveness(nid) {
			return nid, true
		}
	}
	return 0, false
}
