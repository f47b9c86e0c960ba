package kvserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/mvcc"
	"crdbserverless/internal/raftlite"
	"crdbserverless/internal/rowfilter"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
)

// Identity is the authenticated identity a KV client (SQL node) presents —
// the role of the per-tenant mTLS certificate (§3.2.3).
type Identity struct {
	Tenant keys.TenantID
}

// Authorizer checks that a request from an authenticated identity may touch
// the keyspace it addresses. The cluster-virtualization layer (internal/core)
// supplies the implementation.
type Authorizer interface {
	Authorize(id Identity, ba *kvpb.BatchRequest) error
}

const (
	// replicationFactor is the number of replicas per range, capped by the
	// node count.
	replicationFactor = 3
	// splitSizeThreshold triggers a size-based split once a range has
	// absorbed this many logical write bytes.
	splitSizeThreshold = 64 << 20
)

// ClusterConfig configures a Cluster.
type ClusterConfig struct {
	Clock timeutil.Clock
	// LeaseDuration for range leases. Defaults to 9s.
	LeaseDuration time.Duration
	// Faults, when non-nil, arms fault-injection sites in every range's
	// replication group (see internal/faultinject).
	Faults *faultinject.Registry
	// CommitMetrics, when non-nil, is shared by every range's replication
	// group (raft.commit.batch_size and friends).
	CommitMetrics *raftlite.CommitMetrics
	// RaftLogRetention is the number of committed entries each range's
	// replication group keeps behind the slowest live replica. 0 (the
	// default) never truncates; with a positive value a replica that falls
	// behind the truncation point — a store revived after a crash — rejoins
	// via state snapshot instead of log replay.
	RaftLogRetention uint64
}

// rangeState is one range: descriptor, replication group, and stats.
type rangeState struct {
	// latch serializes batch evaluation on the range (reads and writes):
	// read evaluation records into the timestamp cache and write evaluation
	// consults it, and the two must not interleave.
	latch sync.Mutex
	// desc is the range's descriptor, the same pointer the directory holds.
	// Batches, the tick and the replication group's state machines read it
	// without a lock (the state machines run under the group's lock, and
	// splitLocked holds the cluster lock while calling into the group), so a
	// split or move publishes a new descriptor instead of editing this one.
	desc atomic.Pointer[RangeDescriptor]
	// group is the range's replication group. A replica move replaces it
	// while the tick and the lease balancer read it without a lock, so it is
	// published the same way.
	group atomic.Pointer[raftlite.Group]
	// tsc is the range's timestamp cache (lost-update protection).
	tsc *tsCache

	statsMu      sync.Mutex
	writtenBytes int64
}

// engineSM adapts a node's engine to the raftlite.SnapshotStateMachine
// interface for one (range, node) replica.
type engineSM struct {
	n  *Node
	rs *rangeState
}

// Apply implements raftlite.StateMachine. After the command's mutations it
// persists the applied index under the range's raw applied key, so a store
// recovering from a crash can tell the replication group how far its durable
// state actually reached (Cluster.RecoverNode).
func (sm engineSM) Apply(index uint64, cmd []byte) error {
	c, err := decodeCommand(cmd)
	if err != nil {
		return err
	}
	e := sm.n.Engine()
	if err := applyMutations(e, c); err != nil {
		return err
	}
	return e.Set(appliedKey(sm.rs.desc.Load().RangeID), keys.EncodeUint64(nil, index))
}

// Cluster is a set of KV nodes hosting the partitioned, replicated keyspace.
type Cluster struct {
	cfg   ClusterConfig
	clock timeutil.Clock
	hlc   *hlc.Clock
	// splitSize starts at splitSizeThreshold; only in-package tests lower
	// it, right after NewCluster.
	splitSize int64

	// nodesMu guards the node map separately from mu: liveness callbacks
	// fire from lease checks that may run while mu is held.
	nodesMu struct {
		sync.RWMutex
		nodes     map[NodeID]*Node
		nodeOrder []NodeID
	}
	mu struct {
		sync.RWMutex
		ranges      map[RangeID]*rangeState
		nextRangeID RangeID
		auth        Authorizer
		rowDecoder  RowDecoder
	}
	dir metaDirectory
}

// NewCluster creates a cluster from the given nodes with a single range
// covering the entire keyspace.
func NewCluster(cfg ClusterConfig, nodes []*Node) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, errors.New("kvserver: cluster needs at least one node")
	}
	if cfg.Clock == nil {
		cfg.Clock = timeutil.NewRealClock()
	}
	if cfg.LeaseDuration <= 0 {
		cfg.LeaseDuration = 9 * time.Second
	}
	c := &Cluster{cfg: cfg, clock: cfg.Clock, hlc: hlc.NewClock(cfg.Clock), splitSize: splitSizeThreshold}
	c.nodesMu.nodes = make(map[NodeID]*Node)
	c.mu.ranges = make(map[RangeID]*rangeState)
	c.mu.nextRangeID = 1
	for _, n := range nodes {
		if _, dup := c.nodesMu.nodes[n.id]; dup {
			return nil, fmt.Errorf("kvserver: duplicate node id %d", n.id)
		}
		c.nodesMu.nodes[n.id] = n
		c.nodesMu.nodeOrder = append(c.nodesMu.nodeOrder, n.id)
	}
	// Initial range spans the whole keyspace.
	span := keys.Span{Key: keys.MinKey.Next(), EndKey: keys.MaxKey}
	if _, err := c.createRangeLocked(span, c.pickReplicasLocked()); err != nil {
		return nil, err
	}
	return c, nil
}

// Clock returns the cluster's HLC.
func (c *Cluster) Clock() *hlc.Clock { return c.hlc }

// WallClock returns the underlying physical clock.
func (c *Cluster) WallClock() timeutil.Clock { return c.clock }

// SetAuthorizer installs the SQL/KV boundary authorization check.
func (c *Cluster) SetAuthorizer(a Authorizer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.auth = a
}

// RowDecoder decodes a stored row value into the column accessor the
// row-filter evaluator consumes. The SQL layer registers its codec here;
// without one, pushed-down filters are ignored and full rows are returned
// (the pre-push-down behavior).
type RowDecoder func(value []byte) (rowfilter.RowAccessor, error)

// SetRowDecoder registers the row codec used for filter push-down (§8).
func (c *Cluster) SetRowDecoder(dec RowDecoder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.rowDecoder = dec
}

func (c *Cluster) rowDecoder() RowDecoder {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.mu.rowDecoder
}

// Node returns the node with the given ID.
func (c *Cluster) Node(id NodeID) (*Node, bool) {
	c.nodesMu.RLock()
	defer c.nodesMu.RUnlock()
	n, ok := c.nodesMu.nodes[id]
	return n, ok
}

// Nodes returns all nodes in insertion order.
func (c *Cluster) Nodes() []*Node {
	c.nodesMu.RLock()
	defer c.nodesMu.RUnlock()
	out := make([]*Node, 0, len(c.nodesMu.nodeOrder))
	for _, id := range c.nodesMu.nodeOrder {
		out = append(out, c.nodesMu.nodes[id])
	}
	return out
}

// liveness reports node health for lease decisions.
func (c *Cluster) liveness(id raftlite.NodeID) bool {
	n, ok := c.Node(id)
	return ok && n.Live()
}

// pickReplicasLocked chooses replica nodes for a new range, preferring an
// even spread (round-robin from a rotating offset).
func (c *Cluster) pickReplicasLocked() []NodeID {
	c.nodesMu.RLock()
	defer c.nodesMu.RUnlock()
	order := c.nodesMu.nodeOrder
	rf := min(replicationFactor, len(order))
	start := int(c.mu.nextRangeID) % len(order)
	out := make([]NodeID, 0, rf)
	for i := 0; i < rf; i++ {
		out = append(out, order[(start+i)%len(order)])
	}
	return out
}

// createRangeLocked registers a new range over span with the given replicas
// and inserts it into the directory.
func (c *Cluster) createRangeLocked(span keys.Span, replicas []NodeID) (*rangeState, error) {
	rs, err := c.newRangeStateLocked(span, replicas, 0)
	if err != nil {
		return nil, err
	}
	desc := rs.desc.Load()
	if err := c.dir.insert(desc); err != nil {
		delete(c.mu.ranges, desc.RangeID)
		return nil, err
	}
	return rs, nil
}

// newRangeStateLocked allocates a range (ID, group, state) without touching
// the directory; split commits the directory change atomically via replace.
// The new range has no lease; the next tick grants one.
func (c *Cluster) newRangeStateLocked(span keys.Span, replicas []NodeID, generation int64) (*rangeState, error) {
	id := c.mu.nextRangeID
	c.mu.nextRangeID++
	// The range state exists before its group: each replica's state machine
	// reads the descriptor (and writes the applied key) through it.
	rs := &rangeState{tsc: newTSCache()}
	rs.desc.Store(&RangeDescriptor{
		RangeID:    id,
		Span:       span,
		Replicas:   append([]NodeID(nil), replicas...),
		Generation: generation,
	})
	group, err := c.newGroup(rs, replicas)
	if err != nil {
		return nil, err
	}
	rs.group.Store(group)
	c.mu.ranges[id] = rs
	return rs, nil
}

// newGroup builds a replication group for rs over replicas, one engine state
// machine per replica. Every group the cluster creates — new ranges, splits,
// merges and replica moves — comes from here, so each one gets the same
// configuration, fault sites included.
func (c *Cluster) newGroup(rs *rangeState, replicas []NodeID) (*raftlite.Group, error) {
	sms := make([]raftlite.StateMachine, len(replicas))
	for i, nid := range replicas {
		n, ok := c.Node(nid)
		if !ok {
			return nil, fmt.Errorf("kvserver: unknown node %d", nid)
		}
		sms[i] = engineSM{n: n, rs: rs}
	}
	return raftlite.NewGroup(raftlite.Config{
		RangeID:       int64(rs.desc.Load().RangeID),
		Clock:         c.clock,
		Liveness:      c.liveness,
		LeaseDuration: c.cfg.LeaseDuration,
		Faults:        c.cfg.Faults,
		CommitMetrics: c.cfg.CommitMetrics,
		LogRetention:  c.cfg.RaftLogRetention,
	}, replicas, sms)
}

// rangeByID resolves a range ID to its live state (nil once merged away).
func (c *Cluster) rangeByID(id RangeID) *rangeState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.mu.ranges[id]
}

// rangeFor returns the range state containing key. The directory lookup
// shares the published descriptor; nothing is copied.
func (c *Cluster) rangeFor(key keys.Key) (*rangeState, error) {
	desc, err := c.dir.lookup(key)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	rs, ok := c.mu.ranges[desc.RangeID]
	if !ok {
		return nil, &kvpb.RangeNotFoundError{RangeID: int64(desc.RangeID)}
	}
	return rs, nil
}

// LookupRange returns the descriptor for the range containing key — the META
// range lookup. Reads of META tolerate staleness (follower reads, §3.2.5):
// callers cache results and rely on redirects when ranges move.
func (c *Cluster) LookupRange(key keys.Key) (*RangeDescriptor, error) {
	d, err := c.dir.lookup(key)
	if err != nil {
		return nil, err
	}
	return d.clone(), nil
}

// Descriptors returns all range descriptors in key order.
func (c *Cluster) Descriptors() []*RangeDescriptor { return c.dir.all() }

// SplitAt splits the range containing key so that key becomes a range start.
// Used both by size-based splitting and by the cluster-virtualization
// layer to place tenant boundaries on range boundaries (§3.2.1: the KV layer
// enforces that no two tenants share a range).
func (c *Cluster) SplitAt(key keys.Key) error {
	rs, err := c.rangeFor(key)
	if err != nil {
		return err
	}
	rs.latch.Lock()
	defer rs.latch.Unlock()
	_, err = c.splitLocked(rs, key)
	return err
}

// splitLocked performs the split with rs.latch held. It reports whether a
// split actually happened (false when key is already a boundary).
func (c *Cluster) splitLocked(rs *rangeState, key keys.Key) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	desc := rs.desc.Load()
	if key.Equal(desc.Span.Key) {
		return false, nil // already a boundary
	}
	if !desc.Span.ContainsKey(key) {
		return false, &kvpb.RangeKeyMismatchError{RequestedKey: key, ActualSpan: desc.Span}
	}
	rightSpan := keys.Span{Key: key.Clone(), EndKey: desc.Span.EndKey}
	// The right side inherits the parent's replicas: data stays in place.
	right, err := c.newRangeStateLocked(rightSpan, desc.Replicas, 0)
	if err != nil {
		return false, err
	}
	// The right group continues the parent's history: its data already lives
	// in every replica's engine at the parent's applied indexes. Seed it at
	// the parent's commit so a replica that was lagging in the parent reads
	// as lagging here too and heals via snapshot — a fresh group at commit
	// zero would consider such a replica caught up and its right-span state
	// would stay stale forever once the parent's log truncates.
	parent := rs.group.Load()
	applied := make(map[NodeID]uint64, len(desc.Replicas))
	for _, nid := range desc.Replicas {
		if a, err := parent.AppliedIndex(nid); err == nil {
			applied[nid] = a
		}
	}
	right.group.Load().SeedState(parent.CommitIndex(), applied)
	// The right side remembers the reads already served on its span, so no
	// write there can land below one of them.
	right.tsc.absorb(rs.tsc, rightSpan)
	// Shrink the left side and commit both descriptors atomically.
	left := *desc
	left.Span.EndKey = key.Clone()
	left.Generation++
	rightDesc := right.desc.Load()
	if err := c.dir.replace(desc.RangeID, &left, rightDesc); err != nil {
		delete(c.mu.ranges, rightDesc.RangeID)
		return false, err
	}
	rs.desc.Store(&left)
	// The new right range's lease starts with the parent's leaseholder so
	// serving continues without interruption.
	if lh, ok := parent.Leaseholder(); ok {
		//lint:allow faulterr a failed hand-over leaves the right range without a lease, which the next tick grants
		_ = right.group.Load().AcquireLease(lh)
	}
	// Split halves the parent's accumulated size statistic.
	rs.statsMu.Lock()
	rs.writtenBytes /= 2
	right.writtenBytes = rs.writtenBytes
	rs.statsMu.Unlock()
	return true, nil
}

// middleKeyScanLimit bounds boundedMiddleKey's scan.
const middleKeyScanLimit = 256

// splitPoint chooses a size split's key: the middle row of a bounded scan
// of the range on the leaseholder's engine.
func (c *Cluster) splitPoint(rs *rangeState, leaseholder NodeID) keys.Key {
	n, ok := c.Node(leaseholder)
	if !ok {
		return nil
	}
	return boundedMiddleKey(n, rs.desc.Load().Span)
}

// boundedMiddleKey scans at most middleKeyScanLimit rows of span (at the
// maximum timestamp) and returns the middle one, or nil when the span holds
// fewer than two rows or the middle row is the span start. It never
// materializes the whole span.
func boundedMiddleKey(n *Node, span keys.Span) keys.Key {
	res, err := mvcc.Scan(n.Engine(), span, hlc.Timestamp{WallTime: 1<<62 - 1}, 0, middleKeyScanLimit)
	if err != nil || len(res.Rows) < 2 {
		return nil
	}
	mid := res.Rows[len(res.Rows)/2].Key
	if mid.Equal(span.Key) {
		return nil
	}
	return mid
}

// maybeSizeSplit splits rs at its bounded-scan midpoint if it has absorbed
// enough writes.
func (c *Cluster) maybeSizeSplit(rs *rangeState, leaseholder NodeID) {
	rs.statsMu.Lock()
	over := rs.writtenBytes > c.splitSize
	rs.statsMu.Unlock()
	if !over {
		return
	}
	mid := c.splitPoint(rs, leaseholder)
	if mid == nil {
		return
	}
	rs.latch.Lock()
	defer rs.latch.Unlock()
	//lint:allow faulterr size splits are opportunistic; a failure is retried at the next threshold crossing
	_, _ = c.splitLocked(rs, mid)
}

// LeaseCounts returns the number of valid range leases held by each node —
// the per-node lease series of Fig 12.
func (c *Cluster) LeaseCounts() map[NodeID]int {
	out := make(map[NodeID]int)
	for _, rs := range c.rangesByID() {
		if lh, ok := rs.group.Load().Leaseholder(); ok {
			out[lh]++
		}
	}
	return out
}

// RangeLease is one range's leaseholder.
type RangeLease struct {
	RangeID     RangeID
	Leaseholder NodeID // 0 if leaderless
}

// RangeLoads returns every range's leaseholder, ordered by RangeID. It keeps
// a name from when ranges also reported load because the benchmark module
// (bench/e2e) counts lease transfers through it, and that module changes
// only in changes of its own.
func (c *Cluster) RangeLoads() []RangeLease {
	ranges := c.rangesByID()
	out := make([]RangeLease, 0, len(ranges))
	for _, rs := range ranges {
		lh, _ := rs.group.Load().Leaseholder()
		out = append(out, RangeLease{RangeID: rs.desc.Load().RangeID, Leaseholder: lh})
	}
	return out
}

// Tick runs periodic cluster maintenance: node ticks (AIMD, token refills,
// capacity estimation), lease upkeep, and lease rebalancing. Lease upkeep is
// one pass over the ranges in RangeID order, reading each lease from the
// range's replication group: a range without a valid lease on a live node
// gets one, and a lease with half its duration or less to run is extended.
// The order is fixed because lease operations trigger catch-up applies, and
// those must consult fault-injection sites in a deterministic sequence for
// seeded chaos runs to reproduce.
func (c *Cluster) Tick() {
	for _, n := range c.Nodes() {
		n.Tick()
	}
	now := c.clock.Now()
	// leases[n] lists the ranges node n holds the lease of, in RangeID
	// order: the count balancer's input.
	leases := make(map[NodeID][]*rangeState)
	for _, rs := range c.rangesByID() {
		lease := rs.group.Load().Lease()
		holder, held := lease.Holder, lease.Valid(now) && c.liveness(lease.Holder)
		if !held || lease.Expiration.Sub(now) <= c.cfg.LeaseDuration/2 {
			holder, held = c.ensureLease(rs)
		}
		if held {
			leases[holder] = append(leases[holder], rs)
		}
	}
	c.rebalanceLeases(leases)
}

// ensureLease extends the lease of a live holder, and otherwise grants the
// lease to the first live replica that can take it (AcquireLease applies any
// entries the taker missed before granting). It reports the holder, or false
// when no live replica could take the lease; the next tick retries.
func (c *Cluster) ensureLease(rs *rangeState) (NodeID, bool) {
	g := rs.group.Load()
	if lh, ok := g.Leaseholder(); ok {
		if err := g.ExtendLease(lh); err == nil {
			return lh, true
		}
	}
	for _, nid := range g.Replicas() {
		if c.liveness(nid) {
			if err := g.AcquireLease(nid); err == nil {
				return nid, true
			}
		}
	}
	return 0, false
}

// maxLeaseTransfersPerTick bounds the count pass. A burst of splits hands
// every new range its parent's leaseholder, so the pass may take several
// ticks to even the spread out; once it has, it moves nothing.
const maxLeaseTransfersPerTick = 128

// rebalanceLeases moves leases toward an even spread (mechanism (a) of
// §5.1.1, operating at a longer time scale than admission). While two live
// nodes' lease counts differ by more than one, it walks the lease list of
// the node with the most, lowest RangeID first, and hands the first lease it
// can to the replica peer with the fewest.
func (c *Cluster) rebalanceLeases(leases map[NodeID][]*rangeState) {
	c.nodesMu.RLock()
	liveIDs := make([]NodeID, 0, len(c.nodesMu.nodeOrder))
	for _, nid := range c.nodesMu.nodeOrder {
		if n := c.nodesMu.nodes[nid]; n != nil && n.Live() {
			liveIDs = append(liveIDs, nid)
		}
	}
	c.nodesMu.RUnlock()
	if len(liveIDs) < 2 {
		return
	}
	sort.Slice(liveIDs, func(i, j int) bool { return liveIDs[i] < liveIDs[j] })

	counts := make(map[NodeID]int, len(liveIDs))
	for _, nid := range liveIDs {
		counts[nid] = len(leases[nid])
	}
	for iter := 0; iter < maxLeaseTransfersPerTick; iter++ {
		maxN, minN := liveIDs[0], liveIDs[0]
		for _, nid := range liveIDs[1:] {
			if counts[nid] > counts[maxN] {
				maxN = nid
			}
			if counts[nid] < counts[minN] {
				minN = nid
			}
		}
		if counts[maxN]-counts[minN] <= 1 {
			return
		}
		moved := false
		for i, rs := range leases[maxN] {
			g := rs.group.Load()
			lh, ok := g.Leaseholder()
			if !ok || lh != maxN {
				continue
			}
			best := lh
			for _, nid := range g.Replicas() {
				if c.liveness(nid) && counts[nid] < counts[best] {
					best = nid
				}
			}
			if best == lh || counts[lh]-counts[best] <= 1 {
				continue
			}
			// TransferLease catches the target up before handing over.
			if err := g.TransferLease(lh, best); err == nil {
				leases[lh] = slices.Delete(leases[lh], i, i+1)
				id := rs.desc.Load().RangeID
				at := sort.Search(len(leases[best]), func(j int) bool { return leases[best][j].desc.Load().RangeID > id })
				leases[best] = slices.Insert(leases[best], at, rs)
				counts[lh]--
				counts[best]++
				moved = true
				break
			}
		}
		if !moved {
			return
		}
	}
}

// ReplicaStatus reports one replica's replication progress.
type ReplicaStatus struct {
	RangeID RangeID
	Node    NodeID
	Applied uint64
	Commit  uint64
}

// ReplicaStatuses returns the applied and commit indexes of every replica of
// every range, ordered by (range, replica). The chaos harness's convergence
// invariant — all applied state reaches the commit index after quiescence —
// reads these.
func (c *Cluster) ReplicaStatuses() []ReplicaStatus {
	var out []ReplicaStatus
	for _, rs := range c.rangesByID() {
		g := rs.group.Load()
		commit := g.CommitIndex()
		for _, nid := range g.Replicas() {
			applied, err := g.AppliedIndex(nid)
			if err != nil {
				continue
			}
			out = append(out, ReplicaStatus{
				RangeID: rs.desc.Load().RangeID, Node: nid, Applied: applied, Commit: commit,
			})
		}
	}
	return out
}

// RaftSnapshots returns the total number of snapshot catch-ups performed
// across every range's replication group — replicas that fell behind the
// truncated log (crashed stores) and rejoined via state transfer.
func (c *Cluster) RaftSnapshots() int64 {
	var total int64
	for _, rs := range c.rangesByID() {
		total += rs.group.Load().Snapshots()
	}
	return total
}

// CatchUpReplicas applies pending committed entries on every replica of every
// range — the quiescence step before checking convergence, standing in for
// the raft log replay a revived node performs.
func (c *Cluster) CatchUpReplicas() error {
	var firstErr error
	for _, rs := range c.rangesByID() {
		g := rs.group.Load()
		for _, nid := range g.Replicas() {
			if err := g.CatchUp(nid); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// rangesByID snapshots the range states in RangeID order.
func (c *Cluster) rangesByID() []*rangeState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]RangeID, 0, len(c.mu.ranges))
	for id := range c.mu.ranges {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]*rangeState, len(ids))
	for i, id := range ids {
		out[i] = c.mu.ranges[id]
	}
	return out
}

// RunGC reclaims old MVCC versions across every range and node, retaining
// versions newer than keepAfter (and always the newest committed version and
// all intents). It returns the number of versions removed. This is the
// storage-reclamation path behind "the only cost is for storage" (§4.2.3):
// suspended tenants' data keeps getting compacted down. Ranges are visited
// in RangeID order so injected storage faults land on a deterministic range.
func (c *Cluster) RunGC(keepAfter hlc.Timestamp) (int, error) {
	removed := 0
	for _, rs := range c.rangesByID() {
		rs.latch.Lock()
		desc := rs.desc.Load()
		for _, nid := range desc.Replicas {
			n, ok := c.Node(nid)
			if !ok {
				continue
			}
			nRemoved, err := mvcc.GCOldVersions(n.Engine(), desc.Span, keepAfter)
			if err != nil {
				rs.latch.Unlock()
				return removed, err
			}
			removed += nRemoved
		}
		rs.latch.Unlock()
	}
	return removed, nil
}

// TenantStorageBytes reports the logical bytes a tenant stores (latest
// visible versions, summed over one replica) — the storage-billing input for
// suspended tenants (§6.2: storage is the only cost at zero compute).
func (c *Cluster) TenantStorageBytes(tenant keys.TenantID) (int64, error) {
	span := keys.MakeTenantSpan(tenant)
	var total int64
	readTs := c.hlc.Now()
	for _, rs := range c.rangesByID() {
		desc := rs.desc.Load()
		if !desc.Span.Overlaps(span) {
			continue
		}
		// Read from any replica; storage accounting tolerates staleness.
		n, ok := c.Node(desc.Replicas[0])
		if !ok {
			continue
		}
		overlap := desc.Span
		if overlap.Key.Less(span.Key) {
			overlap.Key = span.Key
		}
		if span.EndKey.Less(overlap.EndKey) {
			overlap.EndKey = span.EndKey
		}
		res, err := mvcc.Scan(n.Engine(), overlap, readTs, 0, 0)
		if err != nil {
			return 0, err
		}
		for _, kv := range res.Rows {
			total += int64(len(kv.Key) + len(kv.Value))
		}
	}
	return total, nil
}

// Close shuts down all nodes.
func (c *Cluster) Close() {
	for _, n := range c.Nodes() {
		n.Close()
	}
}

var errRetryExhausted = errors.New("kvserver: internal retry budget exhausted")

// Batch executes a batch on the given node — the KV RPC entry point. The
// node must hold the lease for the addressed range (or the batch must be a
// follower read on a node holding a replica). Authorization (§3.2.3) runs
// before any data access.
func (c *Cluster) Batch(ctx context.Context, nodeID NodeID, id Identity, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	ctx, sp := trace.StartSpan(ctx, "kv.eval")
	defer sp.Finish()
	sp.SetAttr("kv.node", nodeID)
	n, ok := c.Node(nodeID)
	if !ok {
		return nil, fmt.Errorf("kvserver: unknown node %d", nodeID)
	}
	c.mu.RLock()
	auth := c.mu.auth
	c.mu.RUnlock()
	if auth != nil {
		if err := auth.Authorize(id, ba); err != nil {
			return nil, err
		}
	}
	if len(ba.Requests) == 0 {
		return &kvpb.BatchResponse{Timestamp: ba.ReadTs()}, nil
	}

	// Locate the range; every request in the batch must fall within it
	// (DistSender splits batches at range boundaries).
	rs, err := c.rangeFor(ba.Requests[0].Key)
	if err != nil {
		return nil, err
	}
	desc := rs.desc.Load()
	if err := checkSpans(desc, ba); err != nil {
		return nil, err
	}

	// Lease check. Follower reads only need a local replica.
	if ba.FollowerRead && ba.IsReadOnly() {
		if !hasReplica(rs, nodeID) {
			return nil, &kvpb.RangeNotFoundError{RangeID: int64(desc.RangeID)}
		}
	} else {
		g := rs.group.Load()
		lh, ok := g.Leaseholder()
		if !ok {
			// Try to acquire for ourselves.
			// AcquireLease itself catches the node up to the commit index
			// before granting, so the new leaseholder serves current state.
			if err := g.AcquireLease(nodeID); err != nil {
				var nle *kvpb.NotLeaseholderError
				if errors.As(err, &nle) {
					return nil, nle
				}
				return nil, &kvpb.NotLeaseholderError{RangeID: int64(desc.RangeID)}
			}
		} else if lh != nodeID {
			return nil, &kvpb.NotLeaseholderError{RangeID: int64(desc.RangeID), Leaseholder: lh}
		}
	}

	sp.SetAttr("kv.range", desc.RangeID)

	// Admission control (§5.1): writes pass the write queue, everything
	// passes the CPU queue.
	admitStart := c.clock.Now()
	if err := n.admitWrite(ctx, ba); err != nil {
		return nil, err
	}
	releaseCPU, err := n.admitCPU(ctx, ba)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("admission.wait", c.clock.Since(admitStart))

	resp, evalErr := c.evaluateBatch(ctx, n, rs, ba)
	// Charge ground-truth CPU: the work happens whether or not evaluation
	// errored (conflict checks consume CPU too), but successful responses
	// carry the payload costs.
	cost := n.chargeCPU(ba, resp, !ba.Colocated)
	releaseCPU(cost)
	if evalErr != nil {
		return nil, evalErr
	}
	// The size check runs outside the range latch.
	if !ba.IsReadOnly() {
		c.maybeSizeSplit(rs, nodeID)
	}
	return resp, nil
}

// checkSpans returns a RangeKeyMismatchError unless desc's span contains
// every request span of ba.
func checkSpans(desc *RangeDescriptor, ba *kvpb.BatchRequest) error {
	for _, r := range ba.Requests {
		span := r.Span()
		if !desc.Span.ContainsKey(span.Key) {
			return &kvpb.RangeKeyMismatchError{RequestedKey: span.Key, ActualSpan: desc.Span}
		}
		if !span.IsPoint() && desc.Span.EndKey.Less(span.EndKey) {
			return &kvpb.RangeKeyMismatchError{RequestedKey: span.EndKey, ActualSpan: desc.Span}
		}
	}
	return nil
}

func hasReplica(rs *rangeState, nodeID NodeID) bool {
	return slices.Contains(rs.desc.Load().Replicas, nodeID)
}

// evaluateBatch runs the batch against the node's engine, proposing writes
// through the range's replication group.
func (c *Cluster) evaluateBatch(ctx context.Context, n *Node, rs *rangeState, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	readTs := ba.ReadTs()
	if readTs.IsEmpty() {
		readTs = c.hlc.Now()
	}
	var txnID uint64
	if ba.Txn != nil {
		txnID = ba.Txn.ID
	}

	resp := &kvpb.BatchResponse{Timestamp: readTs}

	// All evaluation runs under the range latch: reads record into the
	// timestamp cache and writes consult it, so a write can never land
	// below a timestamp at which another transaction already read the key
	// (the lost-update protection CRDB implements with its timestamp
	// cache). Follower reads are intentionally stale and skip the cache.
	rs.latch.Lock()
	defer rs.latch.Unlock()
	// A split or merge may have run while the batch waited for the latch: the
	// range must still be live and still contain every request span, or the
	// batch would write through a group whose span no longer covers its keys.
	desc := rs.desc.Load()
	if c.rangeByID(desc.RangeID) != rs {
		return nil, &kvpb.RangeNotFoundError{RangeID: int64(desc.RangeID)}
	}
	if err := checkSpans(desc, ba); err != nil {
		return nil, err
	}

	// Reads record into the timestamp cache only after the whole batch has
	// been checked: a batch's own reads must not push its own writes (they
	// all happen atomically at one timestamp).
	var readSpans []keys.Span
	defer func() {
		if ba.FollowerRead {
			return // intentionally stale; not a serializable read point
		}
		for _, sp := range readSpans {
			rs.tsc.recordRead(sp, readTs, txnID)
		}
	}()

	if ba.IsReadOnly() {
		for _, r := range ba.Requests {
			out, err := evalRead(n, r, readTs, txnID, c.rowDecoder())
			if err != nil {
				return nil, err
			}
			readSpans = append(readSpans, r.Span())
			resp.Responses = append(resp.Responses, out)
		}
		return resp, nil
	}

	// checkWrite combines the timestamp-cache push with MVCC conflicts.
	checkWrite := func(key keys.Key) error {
		if cached := rs.tsc.maxReadOther(key, txnID); !cached.Less(readTs) {
			return &kvpb.WriteTooOldError{Key: key.Clone(), ActualTs: cached.Next()}
		}
		return mvcc.CheckWriteConflict(n.Engine(), key, readTs, txnID)
	}

	// A commit batch (TxnWrites > 0) that arrives with every write its
	// transaction makes is committed here, in one command: its mutations are
	// written as committed versions rather than intents, after the same checks
	// any write gets. The range decides from what it received, not from what
	// the sender believed — a batch split across ranges, or clipped by a
	// stale descriptor on the way, holds fewer writes than TxnWrites and lays
	// down intents for the coordinator to resolve.
	commitBatch := ba.Txn != nil && ba.TxnWrites > 0
	onePhase := commitBatch && len(ba.Requests) == ba.TxnWrites
	for _, r := range ba.Requests {
		onePhase = onePhase && (r.Method == kvpb.Put || r.Method == kvpb.Delete)
	}
	writeTxnID := txnID
	if onePhase {
		writeTxnID = 0
	}
	// conflicted ends evaluation on a failed checkWrite. The coordinator
	// re-sends a commit batch whose response it lost, as it is, so a conflict
	// may be the batch meeting its own first application: if every write in
	// it is already there as a committed version at the transaction's
	// timestamp, applying it again would leave the store as it is, and the
	// batch succeeds without a command. A conflict that survives this check
	// is a definite abort.
	conflicted := func(err error) (*kvpb.BatchResponse, error) {
		if !commitBatch || !kvpb.IsConflict(err) {
			return nil, err
		}
		applied, aerr := alreadyCommitted(n.Engine(), ba.Requests, readTs)
		if aerr != nil {
			return nil, aerr
		}
		if !applied {
			return nil, err
		}
		out := &kvpb.BatchResponse{Timestamp: readTs, Committed: onePhase}
		for _, r := range ba.Requests {
			out.Responses = append(out.Responses, kvpb.Response{Method: r.Method})
		}
		return out, nil
	}

	var cmd command
	var writtenBytes int64
	for _, r := range ba.Requests {
		switch r.Method {
		case kvpb.Get, kvpb.Scan:
			out, err := evalRead(n, r, readTs, txnID, c.rowDecoder())
			if err != nil {
				return nil, err
			}
			readSpans = append(readSpans, r.Span())
			resp.Responses = append(resp.Responses, out)
		case kvpb.Put:
			if err := checkWrite(r.Key); err != nil {
				return conflicted(err)
			}
			cmd.Mutations = append(cmd.Mutations, mutation{
				Kind: mutPut, Key: r.Key.Clone(), Ts: readTs, TxnID: writeTxnID, Value: r.Value,
			})
			writtenBytes += int64(len(r.Key) + len(r.Value))
			resp.Responses = append(resp.Responses, kvpb.Response{Method: r.Method})
		case kvpb.Delete:
			if err := checkWrite(r.Key); err != nil {
				return conflicted(err)
			}
			cmd.Mutations = append(cmd.Mutations, mutation{
				Kind: mutDelete, Key: r.Key.Clone(), Ts: readTs, TxnID: writeTxnID,
			})
			writtenBytes += int64(len(r.Key))
			resp.Responses = append(resp.Responses, kvpb.Response{Method: r.Method})
		case kvpb.DeleteRange:
			res, err := mvcc.Scan(n.Engine(), r.Span(), readTs, txnID, 0)
			if err != nil {
				return nil, err
			}
			// Report the deleted keys so a transactional caller can track
			// (and later resolve) the intents this request lays down.
			readSpans = append(readSpans, r.Span())
			deleted := kvpb.Response{Method: r.Method}
			for _, kv := range res.Rows {
				if err := checkWrite(kv.Key); err != nil {
					return nil, err
				}
				cmd.Mutations = append(cmd.Mutations, mutation{
					Kind: mutDelete, Key: kv.Key.Clone(), Ts: readTs, TxnID: txnID,
				})
				writtenBytes += int64(len(kv.Key))
				deleted.Rows = append(deleted.Rows, kvpb.KeyValue{Key: kv.Key.Clone()})
			}
			resp.Responses = append(resp.Responses, deleted)
		case kvpb.ResolveIntent:
			cmd.Mutations = append(cmd.Mutations, mutation{
				Kind: mutResolve, Key: r.Key.Clone(), TxnID: r.ResolveTxnID,
				Commit: r.ResolveCommit, CommitTs: r.ResolveTs,
			})
			resp.Responses = append(resp.Responses, kvpb.Response{Method: r.Method})
		case kvpb.ResolveIntentRange:
			// The leaseholder enumerates the transaction's intents in the
			// span and replicates one point resolution per key, so every
			// replica applies the identical mutation list.
			iks, err := mvcc.IntentKeys(n.Engine(), r.Span(), r.ResolveTxnID)
			if err != nil {
				return nil, err
			}
			out := kvpb.Response{Method: r.Method}
			for _, k := range iks {
				cmd.Mutations = append(cmd.Mutations, mutation{
					Kind: mutResolve, Key: k, TxnID: r.ResolveTxnID,
					Commit: r.ResolveCommit, CommitTs: r.ResolveTs,
				})
				out.Rows = append(out.Rows, kvpb.KeyValue{Key: k})
			}
			resp.Responses = append(resp.Responses, out)
		default:
			return nil, fmt.Errorf("kvserver: unsupported method %s", r.Method)
		}
	}

	if len(cmd.Mutations) > 0 {
		if err := rs.group.Load().ProposeCtx(ctx, n.id, encodeCommand(cmd)); err != nil {
			return nil, err
		}
		rs.statsMu.Lock()
		rs.writtenBytes += writtenBytes
		rs.statsMu.Unlock()
	}
	resp.Committed = onePhase
	return resp, nil
}

// alreadyCommitted reports whether every request of a commit batch is already
// in the engine as a committed version at exactly ts: the same bytes for a
// Put, a tombstone for a Delete.
func alreadyCommitted(e *lsm.Engine, reqs []kvpb.Request, ts hlc.Timestamp) (bool, error) {
	for _, r := range reqs {
		if r.Method != kvpb.Put && r.Method != kvpb.Delete {
			return false, nil
		}
		v, ok, err := mvcc.CommittedVersionAt(e, r.Key, ts)
		if err != nil {
			return false, err
		}
		if !ok || v.Tombstone != (r.Method == kvpb.Delete) || !bytes.Equal(v.Data, r.Value) {
			return false, nil
		}
	}
	return true, nil
}

// evalRead serves a read request from the node's local engine.
func evalRead(n *Node, r kvpb.Request, readTs hlc.Timestamp, txnID uint64, dec RowDecoder) (kvpb.Response, error) {
	switch r.Method {
	case kvpb.Get:
		v, ok, err := mvcc.Get(n.Engine(), r.Key, readTs, txnID)
		if err != nil {
			return kvpb.Response{}, err
		}
		return kvpb.Response{Method: r.Method, Value: v, Exists: ok}, nil
	case kvpb.Scan:
		res, err := mvcc.Scan(n.Engine(), r.Span(), readTs, txnID, r.MaxKeys)
		if err != nil {
			return kvpb.Response{}, err
		}
		out := kvpb.Response{Method: r.Method, Rows: res.Rows, ResumeSpan: res.Resume}
		for _, kv := range res.Rows {
			out.ScannedBytes += int64(len(kv.Key) + len(kv.Value))
		}
		// Row-filter push-down (§8): drop non-matching rows before they
		// cross the process boundary. Requires a registered row codec;
		// undecodable rows are returned unfiltered (fail open — the SQL
		// layer re-applies the full predicate regardless).
		if len(r.Filter) > 0 && dec != nil {
			filter, ferr := rowfilter.Decode(r.Filter)
			if ferr != nil {
				return kvpb.Response{}, ferr
			}
			kept := out.Rows[:0]
			for _, kv := range out.Rows {
				acc, derr := dec(kv.Value)
				if derr != nil || filter.Matches(acc) {
					kept = append(kept, kv)
				}
			}
			out.Rows = kept
		}
		return out, nil
	default:
		return kvpb.Response{}, fmt.Errorf("kvserver: %s is not a read", r.Method)
	}
}
