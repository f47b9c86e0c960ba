package kvserver

import (
	"errors"

	"crdbserverless/internal/keys"
)

// Range merging: the inverse of splitLocked, run only when asked (MergeAt;
// the chaos merge storm drives it). Two adjacent ranges with identical
// replica sets collapse into one — a range over the union span that succeeds
// both, whose replication group seedGroup starts at the sum of the parents'
// commit indexes, with each replica's applied index the sum of its parents'
// applied indexes. The span data never moves: it already lives in
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
	if left.retired.Load() {
		return false, nil // retired while we waited for the latch
	}
	leftDesc := left.desc
	right := c.dir.next(leftDesc.Span.EndKey)
	if right == nil {
		return false, nil // last range of the keyspace
	}
	right.latch.Lock()
	defer right.latch.Unlock()
	// The right range may have merged with its own neighbor since the
	// lookup; while it is not retired, it starts where left ends.
	rightDesc := right.desc
	if right.retired.Load() || !mergeEligible(leftDesc, rightDesc) {
		return false, nil
	}

	// Pick the catch-up donor: a live replica that both groups bring to
	// their commit index before seeding, so the merged group always has a
	// snapshot source at the summed commit.
	donor, ok := c.mergeDonor(left, right)
	if !ok {
		return false, errMergeIneligible
	}
	if err := left.group.CatchUp(donor); err != nil {
		return false, err
	}
	if err := right.group.CatchUp(donor); err != nil {
		return false, err
	}

	// The merged range remembers the reads both parents served, and its size
	// is theirs summed.
	preds := []*rangeState{left, right}
	union := keys.Span{Key: leftDesc.Span.Key, EndKey: rightDesc.Span.EndKey}
	merged, err := c.succeed(preds, RangeID(c.lastRangeID.Add(1)), union, leftDesc.Replicas,
		max(leftDesc.Generation, rightDesc.Generation)+1, left.writtenBytes.Load()+right.writtenBytes.Load())
	if err != nil {
		return false, err
	}
	// Serve without interruption: the donor is caught up in both parents,
	// so it can take the merged lease immediately.
	//lint:allow faulterr a failed grant leaves the merged range without a lease, which the next tick grants
	_ = merged.group.AcquireLease(donor)
	// Publish the union in place of both parents, which the swap retires.
	if err := c.dir.swap(preds, merged); err != nil {
		return false, err
	}
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
	if lh, ok := left.group.Leaseholder(); ok {
		return lh, true
	}
	if lh, ok := right.group.Leaseholder(); ok {
		return lh, true
	}
	for _, nid := range left.desc.Replicas {
		if c.liveness(nid) {
			return nid, true
		}
	}
	return 0, false
}
