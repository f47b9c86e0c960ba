// Package kvserver implements the shared transactional KV layer (§3.1 of the
// paper): a cluster of nodes hosting replicated ranges, range splits by size
// and load, a META directory mapping keys to ranges, DistSender-style request
// routing with redirect handling, per-node admission control, and the
// authorization hook at the SQL/KV boundary.
package kvserver

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
)

// RangeID identifies a range.
type RangeID int64

// NodeID identifies a KV node.
type NodeID = kvpb.NodeID

// RangeDescriptor describes one range: its key span and replica placement.
type RangeDescriptor struct {
	RangeID  RangeID
	Span     keys.Span
	Replicas []NodeID
	// Generation increments on every split or replica change, letting
	// caches detect staleness.
	Generation int64
}

// ContainsKey reports whether the range's span contains k.
func (d *RangeDescriptor) ContainsKey(k keys.Key) bool { return d.Span.ContainsKey(k) }

// String implements fmt.Stringer.
func (d *RangeDescriptor) String() string {
	return fmt.Sprintf("r%d:%s replicas=%v gen=%d", d.RangeID, d.Span, d.Replicas, d.Generation)
}

// metaDirectory is the range table, the role of the META range (§3.2.5):
// the only index of the cluster's ranges, which it holds in key order. Their
// spans partition the keyspace. A lookup reads, under the lock, the
// partition the last swap left; it is never stale. Staleness comes from the
// DistSender's descriptor cache (and the dist.desc.stale fault site), whose
// sends rely on redirects when ranges change.
//
// A range is immutable once published, and only a swap publishes one, under
// the lock. In-package lookups share its descriptor; LookupRange and
// Descriptors hand copies to callers outside the package.
type metaDirectory struct {
	mu     sync.RWMutex
	ranges []*rangeState
	// retiredSnapshots counts the snapshot catch-ups of the groups of every
	// range a swap retired.
	retiredSnapshots int64
}

// lookup returns the range whose span contains k.
func (m *metaDirectory) lookup(k keys.Key) (*rangeState, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	i := sort.Search(len(m.ranges), func(i int) bool {
		return k.Less(m.ranges[i].desc.Span.Key)
	})
	if i == 0 || !m.ranges[i-1].desc.ContainsKey(k) {
		return nil, fmt.Errorf("kvserver: no range contains key %s", k)
	}
	return m.ranges[i-1], nil
}

// all returns copies of all descriptors in key order.
func (m *metaDirectory) all() []*RangeDescriptor {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*RangeDescriptor, len(m.ranges))
	for i, rs := range m.ranges {
		out[i] = rs.desc.clone()
	}
	return out
}

// byID returns the ranges in RangeID order, the order of every walk whose
// calls into the replication groups may consult fault sites.
func (m *metaDirectory) byID() []*rangeState {
	m.mu.RLock()
	out := slices.Clone(m.ranges)
	m.mu.RUnlock()
	slices.SortFunc(out, func(a, b *rangeState) int {
		return cmp.Compare(a.desc.RangeID, b.desc.RangeID)
	})
	return out
}

// next returns the range whose span starts exactly at start, the right
// neighbor of a range ending there, or nil if no such range exists.
func (m *metaDirectory) next(start keys.Key) *rangeState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if i := m.searchLocked(start); i < len(m.ranges) && m.ranges[i].desc.Span.Key.Equal(start) {
		return m.ranges[i]
	}
	return nil
}

// searchLocked returns the index of the first range whose start key is >= k.
func (m *metaDirectory) searchLocked(k keys.Key) int {
	return sort.Search(len(m.ranges), func(i int) bool {
		return !m.ranges[i].desc.Span.Key.Less(k)
	})
}

// swap publishes a split, a merge or a replica move: the ranges old,
// adjacent and in key order, give way to next, whose non-empty spans must
// tile exactly the keys old covered, and every range of old is retired. swap
// refuses, changing nothing, when one of old is no longer in the table or
// they are not adjacent, so a range is registered only by a swap that
// succeeded.
func (m *metaDirectory) swap(old []*rangeState, next ...*rangeState) error {
	// Read before the lock, under which nothing is acquired (DESIGN.md §12).
	// The callers hold old's latches, so only a tick's lease grant could add
	// to these counts before the swap.
	var snapshots int64
	for _, rs := range old {
		snapshots += rs.group.Snapshots()
	}
	first, last := old[0].desc, old[len(old)-1].desc
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.searchLocked(first.Span.Key)
	if i+len(old) > len(m.ranges) || !slices.Equal(m.ranges[i:i+len(old)], old) {
		return fmt.Errorf("kvserver: range %d is not current or the ranges are not adjacent", first.RangeID)
	}
	at := first.Span.Key
	for _, rs := range next {
		d := rs.desc
		if !d.Span.Key.Equal(at) || !d.Span.Key.Less(d.Span.EndKey) {
			return fmt.Errorf("kvserver: %s does not continue the swap at %s", d, at)
		}
		at = d.Span.EndKey
	}
	if !at.Equal(last.Span.EndKey) {
		return fmt.Errorf("kvserver: the swap's ranges end at %s, not %s", at, last.Span.EndKey)
	}
	for _, rs := range old {
		rs.retired.Store(true)
	}
	m.retiredSnapshots += snapshots
	m.ranges = slices.Replace(m.ranges, i, i+len(old), next...)
	return nil
}

// snapshots returns the snapshot catch-ups of every group published: those
// of the ranges in the table and of those retired.
func (m *metaDirectory) snapshots() int64 {
	m.mu.RLock()
	ranges, total := slices.Clone(m.ranges), m.retiredSnapshots
	m.mu.RUnlock()
	for _, rs := range ranges {
		total += rs.group.Snapshots()
	}
	return total
}

func (d *RangeDescriptor) clone() *RangeDescriptor {
	out := *d
	out.Replicas = append([]NodeID(nil), d.Replicas...)
	return &out
}
