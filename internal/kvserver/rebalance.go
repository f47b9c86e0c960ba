package kvserver

import (
	"fmt"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/mvcc"
)

// Replica movement and KV fleet membership — the substrate for automatic
// KV/storage node scaling, the paper's first future-work item (§8): "CRDB's
// architecture already supports dynamic sharding and rebalancing to make use
// of added nodes or shift data away from nodes being removed."

// AddNode joins a new KV node to the cluster. New ranges may place replicas
// on it immediately; existing data moves via MoveReplica/RebalanceReplicas.
func (c *Cluster) AddNode(n *Node) error {
	c.nodesMu.Lock()
	defer c.nodesMu.Unlock()
	if _, dup := c.nodesMu.nodes[n.id]; dup {
		return fmt.Errorf("kvserver: node %d already exists", n.id)
	}
	c.nodesMu.nodes[n.id] = n
	c.nodesMu.nodeOrder = append(c.nodesMu.nodeOrder, n.id)
	return nil
}

// RemoveNode removes an empty KV node from the cluster. Every range must
// have been moved off it first (drain with MoveReplica).
func (c *Cluster) RemoveNode(id NodeID) error {
	if n := c.ReplicaCounts()[id]; n > 0 {
		return fmt.Errorf("kvserver: node %d still holds %d replicas", id, n)
	}
	c.nodesMu.Lock()
	n, ok := c.nodesMu.nodes[id]
	if !ok {
		c.nodesMu.Unlock()
		return fmt.Errorf("kvserver: unknown node %d", id)
	}
	delete(c.nodesMu.nodes, id)
	for i, x := range c.nodesMu.nodeOrder {
		if x == id {
			c.nodesMu.nodeOrder = append(c.nodesMu.nodeOrder[:i], c.nodesMu.nodeOrder[i+1:]...)
			break
		}
	}
	c.nodesMu.Unlock()
	n.Close()
	return nil
}

// ReplicaCounts returns replicas per node across all ranges, counted from
// the range descriptors. A node with no replicas has no entry.
func (c *Cluster) ReplicaCounts() map[NodeID]int {
	out := make(map[NodeID]int)
	for _, rs := range c.rangesByID() {
		for _, nid := range rs.desc.Load().Replicas {
			out[nid]++
		}
	}
	return out
}

// MoveReplica relocates one range replica from one node to another: the
// range's data is copied from a healthy replica's engine to the target, and
// the replication group is rebuilt over the new membership. Writes to the
// range are blocked (range latch) for the duration.
func (c *Cluster) MoveReplica(rangeID RangeID, from, to NodeID) error {
	c.mu.RLock()
	rs, ok := c.mu.ranges[rangeID]
	c.mu.RUnlock()
	if !ok {
		return &kvpb.RangeNotFoundError{RangeID: int64(rangeID)}
	}
	target, ok := c.Node(to)
	if !ok {
		return fmt.Errorf("kvserver: unknown target node %d", to)
	}

	rs.latch.Lock()
	defer rs.latch.Unlock()

	desc, old := rs.desc.Load(), rs.group.Load()
	hasFrom, hasTo := false, false
	for _, r := range desc.Replicas {
		if r == from {
			hasFrom = true
		}
		if r == to {
			hasTo = true
		}
	}
	if !hasFrom {
		return fmt.Errorf("kvserver: range %d has no replica on node %d", rangeID, from)
	}
	if hasTo {
		return fmt.Errorf("kvserver: range %d already has a replica on node %d", rangeID, to)
	}

	// Copy the range's data from a live replica (prefer the leaseholder).
	src := from
	if lh, ok := old.Leaseholder(); ok {
		src = lh
	}
	srcNode, ok := c.Node(src)
	if !ok || !srcNode.Live() {
		// Fall back to any live replica.
		found := false
		for _, r := range desc.Replicas {
			if n, ok := c.Node(r); ok && n.Live() {
				srcNode = n
				src = r
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("kvserver: range %d has no live replica to copy from", rangeID)
		}
	}
	if err := copySpanData(srcNode.Engine(), target.Engine(), desc.Span); err != nil {
		return err
	}

	// Rebuild membership and the replication group. The copied engine state
	// is the new replica's snapshot; the fresh group's log starts after it.
	newReplicas := make([]NodeID, 0, len(desc.Replicas))
	for _, r := range desc.Replicas {
		if r != from {
			newReplicas = append(newReplicas, r)
		}
	}
	newReplicas = append(newReplicas, to)
	group, err := c.newGroup(rs, newReplicas)
	if err != nil {
		return err
	}
	// The rebuilt group continues the old group's history: surviving replicas
	// keep their engine state at their old applied indexes, and the new
	// replica holds a copy of src's engine, so it starts at src's applied
	// index. Seeding at the old commit keeps any lagging survivor reading as
	// lagging (it heals via snapshot) instead of as caught up.
	applied := make(map[NodeID]uint64, len(newReplicas))
	for _, nid := range newReplicas {
		if nid == to {
			continue
		}
		if a, err := old.AppliedIndex(nid); err == nil {
			applied[nid] = a
		}
	}
	if a, err := old.AppliedIndex(src); err == nil {
		applied[to] = a
	}
	group.SeedState(old.CommitIndex(), applied)
	// Restore a lease: the previous holder if it survived the move,
	// otherwise the new replica.
	prevLH, hadLease := old.Leaseholder()
	newLH := to
	if hadLease && prevLH != from {
		newLH = prevLH
	}
	//lint:allow faulterr lease restore after a replica move is best-effort; the next request re-acquires
	_ = group.AcquireLease(newLH)

	newDesc := *desc
	newDesc.Replicas = newReplicas
	newDesc.Generation++

	c.mu.Lock()
	defer c.mu.Unlock()
	rs.desc.Store(&newDesc)
	rs.group.Store(group)
	return c.dir.replace(rangeID, &newDesc)
}

// copySpanData copies every raw engine entry of span from src to dst.
// Intents and all MVCC versions move as-is.
func copySpanData(src, dst *lsm.Engine, span keys.Span) error {
	lo, hi := mvcc.EngineSpan(span)
	var batch []lsm.Entry
	it := src.NewIter(lo, hi)
	for ; it.Valid(); it.Next() {
		batch = append(batch, lsm.Entry{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
		if err := it.Error(); err != nil {
			return fmt.Errorf("kvserver: copying range data: %w", err)
		}
		if len(batch) >= 1024 {
			if err := dst.ApplyBatch(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		return dst.ApplyBatch(batch)
	}
	return nil
}

// RebalanceReplicas moves up to maxMoves replicas from the node with the
// most replicas to the live node with the fewest, taking the lowest-RangeID
// range that can move. Counts and candidates come from the range
// descriptors. It returns the number of moves performed.
func (c *Cluster) RebalanceReplicas(maxMoves int) int {
	moves := 0
	for moves < maxMoves {
		counts := c.ReplicaCounts()
		var maxNode, minNode NodeID
		maxCount, minCount := -1, 1<<30
		for _, n := range c.Nodes() {
			if !n.Live() {
				continue
			}
			cnt := counts[n.id]
			if cnt > maxCount {
				maxCount, maxNode = cnt, n.id
			}
			if cnt < minCount {
				minCount, minNode = cnt, n.id
			}
		}
		if maxNode == 0 || minNode == 0 || maxNode == minNode || maxCount-minCount <= 1 {
			return moves
		}
		// The lowest-RangeID range on maxNode without a replica on minNode.
		var candidate RangeID
		for _, rs := range c.rangesByID() {
			if hasReplica(rs, maxNode) && !hasReplica(rs, minNode) {
				candidate = rs.desc.Load().RangeID
				break
			}
		}
		if candidate == 0 {
			return moves
		}
		if err := c.MoveReplica(candidate, maxNode, minNode); err != nil {
			return moves
		}
		moves++
	}
	return moves
}

// DrainNodeReplicas moves every replica off a node (preparing it for
// removal), lowest RangeID first, each onto the live non-member with the
// fewest replicas.
func (c *Cluster) DrainNodeReplicas(id NodeID) error {
	for {
		var rs *rangeState
		for _, r := range c.rangesByID() {
			if hasReplica(r, id) {
				rs = r
				break
			}
		}
		if rs == nil {
			return nil
		}
		rangeID := rs.desc.Load().RangeID
		counts := c.ReplicaCounts()
		var target NodeID
		best := 1 << 30
		for _, n := range c.Nodes() {
			if n.id == id || hasReplica(rs, n.id) || !n.Live() {
				continue
			}
			if cnt := counts[n.id]; cnt < best {
				best = cnt
				target = n.id
			}
		}
		if target == 0 {
			return fmt.Errorf("kvserver: no target node to drain range %d onto", rangeID)
		}
		if err := c.MoveReplica(rangeID, id, target); err != nil {
			return err
		}
	}
}
