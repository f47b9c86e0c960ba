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
// A range's descriptor is immutable once published, and only a swap
// publishes one, under the lock. In-package lookups share it; LookupRange
// and Descriptors hand copies to callers outside the package.
type metaDirectory struct {
	mu     sync.RWMutex
	ranges []*rangeState
}

// rangeUpdate is one range of a swap's result: rs, published with desc.
type rangeUpdate struct {
	rs   *rangeState
	desc *RangeDescriptor
}

// lookup returns the range whose span contains k, with its descriptor.
func (m *metaDirectory) lookup(k keys.Key) (*rangeState, *RangeDescriptor, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	i := sort.Search(len(m.ranges), func(i int) bool {
		return k.Less(m.ranges[i].desc.Load().Span.Key)
	})
	if i == 0 || !m.ranges[i-1].desc.Load().ContainsKey(k) {
		return nil, nil, fmt.Errorf("kvserver: no range contains key %s", k)
	}
	rs := m.ranges[i-1]
	return rs, rs.desc.Load(), nil
}

// all returns copies of all descriptors in key order.
func (m *metaDirectory) all() []*RangeDescriptor {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*RangeDescriptor, len(m.ranges))
	for i, rs := range m.ranges {
		out[i] = rs.desc.Load().clone()
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
		return cmp.Compare(a.desc.Load().RangeID, b.desc.Load().RangeID)
	})
	return out
}

// next returns the range whose span starts exactly at start, the right
// neighbor of a range ending there, or nil if no such range exists.
func (m *metaDirectory) next(start keys.Key) *rangeState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if i := m.searchLocked(start); i < len(m.ranges) && m.ranges[i].desc.Load().Span.Key.Equal(start) {
		return m.ranges[i]
	}
	return nil
}

// searchLocked returns the index of the first range whose start key is >= k.
func (m *metaDirectory) searchLocked(k keys.Key) int {
	return sort.Search(len(m.ranges), func(i int) bool {
		return !m.ranges[i].desc.Load().Span.Key.Less(k)
	})
}

// swap publishes a split, a merge or a replica move: the ranges whose
// descriptors are old, adjacent and in key order, give way to next, whose
// non-empty spans must tile exactly the keys old covered. A range of old
// that next does not keep is retired. swap refuses, changing nothing, when
// one of old is no longer its range's current descriptor or they are not
// adjacent, so a range is registered only by a swap that succeeded.
func (m *metaDirectory) swap(old []*RangeDescriptor, next ...rangeUpdate) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.searchLocked(old[0].Span.Key)
	if i+len(old) > len(m.ranges) {
		return fmt.Errorf("kvserver: range %d is not current", old[0].RangeID)
	}
	cur := m.ranges[i : i+len(old)]
	for j, d := range old {
		if cur[j].desc.Load() != d {
			return fmt.Errorf("kvserver: range %d is not current or not adjacent", d.RangeID)
		}
	}
	at := old[0].Span.Key
	for _, u := range next {
		if !u.desc.Span.Key.Equal(at) || !u.desc.Span.Key.Less(u.desc.Span.EndKey) {
			return fmt.Errorf("kvserver: %s does not continue the swap at %s", u.desc, at)
		}
		at = u.desc.Span.EndKey
	}
	if !at.Equal(old[len(old)-1].Span.EndKey) {
		return fmt.Errorf("kvserver: the swap's ranges end at %s, not %s", at, old[len(old)-1].Span.EndKey)
	}
	for _, rs := range cur {
		if !slices.ContainsFunc(next, func(u rangeUpdate) bool { return u.rs == rs }) {
			rs.retired.Store(true)
		}
	}
	states := make([]*rangeState, len(next))
	for j, u := range next {
		u.rs.desc.Store(u.desc)
		states[j] = u.rs
	}
	m.ranges = slices.Replace(m.ranges, i, i+len(old), states...)
	return nil
}

func (d *RangeDescriptor) clone() *RangeDescriptor {
	out := *d
	out.Replicas = append([]NodeID(nil), d.Replicas...)
	return &out
}
