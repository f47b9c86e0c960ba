package kvserver

import (
	"fmt"
	"slices"

	"crdbserverless/internal/kvpb"
)

// Replica movement and KV fleet membership — the substrate for automatic
// KV/storage node scaling, the paper's first future-work item (§8): "CRDB's
// architecture already supports dynamic sharding and rebalancing to make use
// of added nodes or shift data away from nodes being removed."

// AddNode joins a new KV node to the cluster. New ranges may place replicas
// on it immediately; existing data moves to it via RebalanceReplicas.
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
// have been moved off it first (DrainNodeReplicas).
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
	for _, rs := range c.dir.byID() {
		for _, nid := range rs.desc.Replicas {
			out[nid]++
		}
	}
	return out
}

// moveReplica relocates one replica of rs from one node to another: a
// successor with the new membership, keeping rs's RangeID and span, replaces
// rs, and its group fills the target the way raft catches up a lagging
// replica, with a snapshot from a caught-up survivor that replaces whatever
// the target's engine still holds in the span; with no live survivor the
// move is refused. Writes to the range are blocked (range latch) for the
// duration.
func (c *Cluster) moveReplica(rs *rangeState, from, to NodeID) error {
	rs.latch.Lock()
	defer rs.latch.Unlock()

	desc := rs.desc
	if rs.retired.Load() {
		return &kvpb.RangeNotFoundError{RangeID: int64(desc.RangeID)}
	}
	if !slices.Contains(desc.Replicas, from) {
		return fmt.Errorf("kvserver: range %d has no replica on node %d", desc.RangeID, from)
	}
	if slices.Contains(desc.Replicas, to) {
		return fmt.Errorf("kvserver: range %d already has a replica on node %d", desc.RangeID, to)
	}

	// The live survivors reach the old group's commit index, as a merge's
	// donor does, so the successor, seeded there, has a snapshot donor for
	// the target. With no live survivor there is none: from is not in the
	// successor's group.
	replicas := make([]NodeID, 0, len(desc.Replicas))
	donor := false
	for _, r := range desc.Replicas {
		if r == from {
			continue
		}
		if c.liveness(r) {
			if err := rs.group.CatchUp(r); err != nil {
				return err
			}
			donor = true
		}
		replicas = append(replicas, r)
	}
	if !donor {
		return fmt.Errorf("kvserver: range %d has no live replica besides node %d to fill node %d", desc.RangeID, from, to)
	}
	replicas = append(replicas, to)
	preds := []*rangeState{rs}
	next, err := c.succeed(preds, desc.RangeID, desc.Span, replicas, desc.Generation+1, rs.writtenBytes.Load())
	if err != nil {
		return err
	}
	if err := next.group.CatchUp(to); err != nil {
		return err
	}
	// Restore a lease: the previous holder if it survived the move,
	// otherwise the new replica.
	newLH := to
	if lh, ok := rs.group.Leaseholder(); ok && lh != from {
		newLH = lh
	}
	//lint:allow faulterr lease restore after a replica move is best-effort; the next request re-acquires
	_ = next.group.AcquireLease(newLH)
	return c.dir.swap(preds, next)
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
		var candidate *rangeState
		for _, rs := range c.dir.byID() {
			if hasReplica(rs, maxNode) && !hasReplica(rs, minNode) {
				candidate = rs
				break
			}
		}
		if candidate == nil {
			return moves
		}
		if err := c.moveReplica(candidate, maxNode, minNode); err != nil {
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
		for _, r := range c.dir.byID() {
			if hasReplica(r, id) {
				rs = r
				break
			}
		}
		if rs == nil {
			return nil
		}
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
			return fmt.Errorf("kvserver: no target node to drain range %d onto", rs.desc.RangeID)
		}
		if err := c.moveReplica(rs, id, target); err != nil {
			return err
		}
	}
}
