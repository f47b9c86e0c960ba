// Package kvserver implements the shared transactional KV layer (§3.1 of the
// paper): a cluster of nodes hosting replicated ranges, range splits by size
// and load, a META directory mapping keys to ranges, DistSender-style request
// routing with redirect handling, per-node admission control, and the
// authorization hook at the SQL/KV boundary.
package kvserver

import (
	"fmt"
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

// metaDirectory is the range-addressing index — the role of the META range
// (§3.2.5). Lookups may be served from stale snapshots (modeling follower
// reads); the source of truth is updated transactionally on splits.
//
// The directory holds the same descriptor pointers the ranges publish. A
// descriptor is immutable once published — a split, move or merge publishes
// a new one — so in-package lookups share it; LookupRange and Descriptors
// hand copies to callers outside the package.
type metaDirectory struct {
	mu sync.RWMutex
	// byStart holds descriptors sorted by span start key; spans partition
	// the keyspace with no overlaps.
	byStart []*RangeDescriptor
}

// lookup returns the descriptor whose span contains k.
func (m *metaDirectory) lookup(k keys.Key) (*RangeDescriptor, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	i := sort.Search(len(m.byStart), func(i int) bool {
		return k.Less(m.byStart[i].Span.Key)
	})
	if i == 0 {
		return nil, fmt.Errorf("kvserver: no range contains key %s", k)
	}
	d := m.byStart[i-1]
	if !d.ContainsKey(k) {
		return nil, fmt.Errorf("kvserver: no range contains key %s", k)
	}
	return d, nil
}

// all returns copies of all descriptors in key order.
func (m *metaDirectory) all() []*RangeDescriptor {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*RangeDescriptor, len(m.byStart))
	for i, d := range m.byStart {
		out[i] = d.clone()
	}
	return out
}

// next returns the descriptor whose span starts exactly at start — the right
// neighbor of a range ending there — or nil if no such range exists.
func (m *metaDirectory) next(start keys.Key) *RangeDescriptor {
	m.mu.RLock()
	defer m.mu.RUnlock()
	i := m.searchLocked(start)
	if i < len(m.byStart) && m.byStart[i].Span.Key.Equal(start) {
		return m.byStart[i]
	}
	return nil
}

// searchLocked returns the index of the first descriptor whose start key is
// >= k (binary search; byStart is sorted by start key at all times).
func (m *metaDirectory) searchLocked(k keys.Key) int {
	return sort.Search(len(m.byStart), func(i int) bool {
		return !m.byStart[i].Span.Key.Less(k)
	})
}

// insert adds a descriptor; spans must not overlap existing ones. The
// descriptor is spliced into position with a binary search — no full re-sort,
// so building a fleet of thousands of ranges stays O(n log n) total rather
// than O(n² log n).
func (m *metaDirectory) insert(d *RangeDescriptor) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.searchLocked(d.Span.Key)
	// Only the neighbors can overlap a candidate that sorts at position i.
	if i > 0 && m.byStart[i-1].Span.Overlaps(d.Span) {
		return fmt.Errorf("kvserver: descriptor %s overlaps %s", d, m.byStart[i-1])
	}
	if i < len(m.byStart) && m.byStart[i].Span.Overlaps(d.Span) {
		return fmt.Errorf("kvserver: descriptor %s overlaps %s", d, m.byStart[i])
	}
	m.byStart = append(m.byStart, nil)
	copy(m.byStart[i+1:], m.byStart[i:])
	m.byStart[i] = d
	return nil
}

// replace atomically swaps old for the given descriptors (the split commit).
// The replacements are spliced into the vacated slot in key order.
func (m *metaDirectory) replace(old RangeID, with ...*RangeDescriptor) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx := m.indexOfLocked(old)
	if idx == -1 {
		return fmt.Errorf("kvserver: range %d not in directory", old)
	}
	repl := append([]*RangeDescriptor(nil), with...)
	sort.Slice(repl, func(i, j int) bool {
		return repl[i].Span.Key.Less(repl[j].Span.Key)
	})
	out := make([]*RangeDescriptor, 0, len(m.byStart)-1+len(repl))
	out = append(out, m.byStart[:idx]...)
	out = append(out, repl...)
	out = append(out, m.byStart[idx+1:]...)
	m.byStart = out
	return nil
}

// mergeReplace atomically swaps two adjacent descriptors for their union (the
// merge commit). It verifies adjacency under the directory lock so a racing
// split can never leave the directory with a gap or an overlap.
func (m *metaDirectory) mergeReplace(left, right RangeID, with *RangeDescriptor) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	li := m.indexOfLocked(left)
	if li == -1 || li+1 >= len(m.byStart) || m.byStart[li+1].RangeID != right {
		return fmt.Errorf("kvserver: ranges %d and %d are not adjacent in the directory", left, right)
	}
	ld, rd := m.byStart[li], m.byStart[li+1]
	if !with.Span.Key.Equal(ld.Span.Key) || !with.Span.EndKey.Equal(rd.Span.EndKey) {
		return fmt.Errorf("kvserver: merged span %s does not cover %s + %s", with.Span, ld.Span, rd.Span)
	}
	m.byStart[li] = with
	m.byStart = append(m.byStart[:li+1], m.byStart[li+2:]...)
	return nil
}

// indexOfLocked finds a descriptor's position by RangeID.
func (m *metaDirectory) indexOfLocked(id RangeID) int {
	for i, d := range m.byStart {
		if d.RangeID == id {
			return i
		}
	}
	return -1
}

func (d *RangeDescriptor) clone() *RangeDescriptor {
	out := *d
	out.Replicas = append([]NodeID(nil), d.Replicas...)
	return &out
}
