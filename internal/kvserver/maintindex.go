package kvserver

import (
	"container/heap"
	"sort"
	"sync"
	"time"
)

// maintIndex is the incremental maintenance index: per-node lease and
// replica sets and a lease-renewal heap. Every split, merge, replica move,
// and lease transfer updates it in O(log n) or O(1), so Tick, rebalancing,
// and drain read aggregates instead of rescanning every range — maintenance
// cost scales with what is due, not with cluster size.
//
// Lock ordering: idx.mu is a strict leaf. Methods never call back into the
// cluster or touch c.mu/rs.latch; callers extract IDs, release idx.mu, and
// re-resolve ranges through the cluster afterwards.
type maintIndex struct {
	mu sync.Mutex
	// leases[n] and replicas[n] are the ranges node n holds a lease for /
	// has a replica of. Aggregate counts are len() of these sets.
	leases   map[NodeID]map[RangeID]struct{}
	replicas map[NodeID]map[RangeID]struct{}
	// holder is the last lease grant the cluster observed; holderGen
	// lazily invalidates renewal-heap entries from superseded grants.
	holder    map[RangeID]NodeID
	holderGen map[RangeID]uint64
	// needsLease holds ranges with no observed holder; the tick drains it.
	needsLease map[RangeID]struct{}
	// registered guards against resurrecting state for merged-away ranges.
	registered map[RangeID]struct{}
	renewals   renewalHeap
}

func newMaintIndex() *maintIndex {
	return &maintIndex{
		leases:     make(map[NodeID]map[RangeID]struct{}),
		replicas:   make(map[NodeID]map[RangeID]struct{}),
		holder:     make(map[RangeID]NodeID),
		holderGen:  make(map[RangeID]uint64),
		needsLease: make(map[RangeID]struct{}),
		registered: make(map[RangeID]struct{}),
	}
}

// registerRange records a new range with the given replica set and no lease.
func (x *maintIndex) registerRange(id RangeID, replicas []NodeID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.registered[id] = struct{}{}
	for _, n := range replicas {
		x.addSetLocked(x.replicas, n, id)
	}
	x.needsLease[id] = struct{}{}
}

// unregisterRange forgets a range (merge or failed split cleanup).
func (x *maintIndex) unregisterRange(id RangeID, replicas []NodeID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	delete(x.registered, id)
	for _, n := range replicas {
		x.delSetLocked(x.replicas, n, id)
	}
	if h, ok := x.holder[id]; ok {
		x.delSetLocked(x.leases, h, id)
		delete(x.holder, id)
	}
	x.holderGen[id]++ // invalidate queued renewals
	delete(x.needsLease, id)
}

// moveReplica swaps one replica of id from one node to another.
func (x *maintIndex) moveReplica(id RangeID, from, to NodeID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.delSetLocked(x.replicas, from, id)
	x.addSetLocked(x.replicas, to, id)
	if x.holder[id] == from {
		x.delSetLocked(x.leases, from, id)
		delete(x.holder, id)
		x.holderGen[id]++
		x.needsLease[id] = struct{}{}
	}
}

// noteLease records an observed lease grant or extension and schedules its
// renewal at the half-life of the lease. Every note schedules one: a renewal
// is itself an extension, and without the next one the lease would lapse.
// Renewals scheduled by earlier notes die by generation mismatch when popped.
func (x *maintIndex) noteLease(id RangeID, node NodeID, renewAt time.Time) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.registered[id]; !ok {
		return
	}
	if prev, ok := x.holder[id]; ok && prev != node {
		x.delSetLocked(x.leases, prev, id)
	}
	x.holder[id] = node
	x.addSetLocked(x.leases, node, id)
	delete(x.needsLease, id)
	x.holderGen[id]++
	heap.Push(&x.renewals, renewalItem{due: renewAt, id: id, gen: x.holderGen[id]})
}

// markNeedsLease flags a range whose lease op failed for retry next tick.
func (x *maintIndex) markNeedsLease(id RangeID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.registered[id]; !ok {
		return
	}
	if h, ok := x.holder[id]; ok {
		x.delSetLocked(x.leases, h, id)
		delete(x.holder, id)
		x.holderGen[id]++
	}
	x.needsLease[id] = struct{}{}
}

// drainNeedsLease returns (sorted) and clears the needs-lease set.
func (x *maintIndex) drainNeedsLease() []RangeID {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := sortedIDsLocked(x.needsLease)
	x.needsLease = make(map[RangeID]struct{})
	return out
}

// dueRenewals pops every renewal due at or before now whose generation is
// still current, returning range IDs in due order.
func (x *maintIndex) dueRenewals(now time.Time) []RangeID {
	x.mu.Lock()
	defer x.mu.Unlock()
	var out []RangeID
	for len(x.renewals) > 0 && !x.renewals[0].due.After(now) {
		it := heap.Pop(&x.renewals).(renewalItem)
		if it.gen != x.holderGen[it.id] {
			continue // superseded grant
		}
		out = append(out, it.id)
	}
	return out
}

// leaseCount and replicaCount are O(1) aggregate reads.
func (x *maintIndex) leaseCount(n NodeID) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.leases[n])
}

func (x *maintIndex) replicaCount(n NodeID) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.replicas[n])
}

// leasesOf returns the node's lease set, sorted for deterministic iteration.
func (x *maintIndex) leasesOf(n NodeID) []RangeID {
	x.mu.Lock()
	defer x.mu.Unlock()
	return sortedIDsLocked(x.leases[n])
}

// replicasOf returns the node's replica set, sorted.
func (x *maintIndex) replicasOf(n NodeID) []RangeID {
	x.mu.Lock()
	defer x.mu.Unlock()
	return sortedIDsLocked(x.replicas[n])
}

func (x *maintIndex) addSetLocked(m map[NodeID]map[RangeID]struct{}, n NodeID, id RangeID) {
	s, ok := m[n]
	if !ok {
		s = make(map[RangeID]struct{})
		m[n] = s
	}
	s[id] = struct{}{}
}

func (x *maintIndex) delSetLocked(m map[NodeID]map[RangeID]struct{}, n NodeID, id RangeID) {
	if s, ok := m[n]; ok {
		delete(s, id)
	}
}

func sortedIDsLocked(s map[RangeID]struct{}) []RangeID {
	out := make([]RangeID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// renewalHeap orders lease renewals by due time (range ID tie-break keeps
// pop order deterministic).
type renewalItem struct {
	due time.Time
	id  RangeID
	gen uint64
}

type renewalHeap []renewalItem

func (h renewalHeap) Len() int { return len(h) }
func (h renewalHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].id < h[j].id
}
func (h renewalHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *renewalHeap) Push(v interface{}) { *h = append(*h, v.(renewalItem)) }
func (h *renewalHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TickStats reports what the last maintenance tick actually did — the
// evidence that a tick's cost follows due lease work, not cluster size.
type TickStats struct {
	RangesVisited  int // ranges examined by the lease passes
	LeaseOps       int // acquire/extend/renewal operations issued
	LeaseTransfers int // count-balancing lease transfers
}
