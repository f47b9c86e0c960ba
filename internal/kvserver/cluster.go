package kvserver

import (
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
	// Faults, when non-nil, arms fault-injection sites in every range's
	// replication group (see internal/faultinject).
	Faults *faultinject.Registry
	// CommitMetrics, when non-nil, is shared by every range's replication
	// group (raft.commit.batches and raft.commit.entries).
	CommitMetrics *raftlite.CommitMetrics
}

// rangeState is one range: descriptor, replication group, and stats. A
// range is a value: succeed builds it, and once the directory publishes it,
// its descriptor and group never change. A split, merge or move builds
// successors and retires it (swap).
type rangeState struct {
	// latch serializes batch evaluation on the range (reads and writes):
	// read evaluation records into the timestamp cache and write evaluation
	// consults it, and the two must not interleave.
	latch sync.Mutex
	// desc is the range's descriptor.
	desc *RangeDescriptor
	// group is the range's replication group.
	group *raftlite.Group
	// retired is set when a split, merge or move takes the range out of the
	// directory. A batch, split, merge or move that waited for the latch
	// checks it before using the range.
	retired atomic.Bool
	// tsc is the range's timestamp cache (lost-update protection).
	tsc *tsCache
	// writtenBytes is the logical bytes the range's batches wrote, its size
	// signal: a batch adds to it, a split halves it and a merge sums it.
	writtenBytes atomic.Int64
}

// engineSM adapts a node's engine to the raftlite.SnapshotStateMachine
// interface for one (range, node) replica.
type engineSM struct {
	n  *Node
	rs *rangeState
}

// Apply implements raftlite.StateMachine. It writes the command's entries
// and the range's applied index, under the range's raw applied key, in one
// engine batch: one WAL record, so a crash keeps the whole command or none of
// it, and a store recovering from one can tell the replication group how far
// its durable state actually reached (Cluster.RecoverNode).
//
// The engine copies what it keeps, so the batch is built on the stack: the
// command's entries, up to applyOnStack-1 of them, and the applied key and
// its value. A longer command's entries and the applied entry go to the
// heap.
func (sm engineSM) Apply(index uint64, cmd []byte) error {
	var buf [applyOnStack]lsm.Entry
	ents, err := decodeCommand(buf[:0], cmd)
	if err != nil {
		return err
	}
	var key [appliedKeyLen]byte
	var value [8]byte
	applied := lsm.Entry{
		Key:   appendAppliedKey(key[:0], sm.rs.desc.RangeID),
		Value: keys.EncodeUint64(value[:0], index),
	}
	// Stored, not appended: an append's copy would send the applied key and
	// value to the heap on every path. decodeCommand leaves room for it.
	n := len(ents)
	if n < len(buf) {
		buf[n] = applied
		return sm.n.Engine().ApplyBatch(buf[:n+1])
	}
	ents = ents[:n+1]
	ents[n] = lsm.Entry{Key: slices.Clone(applied.Key), Value: slices.Clone(applied.Value)}
	return sm.n.Engine().ApplyBatch(ents)
}

// applyOnStack is how many entries engineSM.Apply decodes into an array on
// its stack: a transaction's commit of a dozen writes, and the applied index.
const applyOnStack = 16

// Cluster is a set of KV nodes hosting the partitioned, replicated keyspace.
type Cluster struct {
	cfg   ClusterConfig
	clock timeutil.Clock
	hlc   *hlc.Clock
	// splitSize starts at splitSizeThreshold; only in-package tests lower
	// it, right after NewCluster.
	splitSize int64

	// nodesMu guards the node map. Liveness callbacks read it from lease
	// checks inside the replication groups.
	nodesMu struct {
		sync.RWMutex
		nodes     map[NodeID]*Node
		nodeOrder []NodeID
	}
	// lastRangeID is the RangeID most recently handed out.
	lastRangeID atomic.Int64
	// auth is the installed Authorizer, nil if none is.
	auth atomic.Pointer[Authorizer]
	dir  metaDirectory
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
	c := &Cluster{cfg: cfg, clock: cfg.Clock, hlc: hlc.NewClock(cfg.Clock), splitSize: splitSizeThreshold}
	c.nodesMu.nodes = make(map[NodeID]*Node)
	for _, n := range nodes {
		if _, dup := c.nodesMu.nodes[n.id]; dup {
			return nil, fmt.Errorf("kvserver: duplicate node id %d", n.id)
		}
		c.nodesMu.nodes[n.id] = n
		c.nodesMu.nodeOrder = append(c.nodesMu.nodeOrder, n.id)
	}
	// The first range spans the whole keyspace. Its replicas are the first
	// nodes round-robin from its RangeID, 1.
	order := c.nodesMu.nodeOrder
	replicas := make([]NodeID, min(replicationFactor, len(order)))
	for i := range replicas {
		replicas[i] = order[(1+i)%len(order)]
	}
	rs, err := c.succeed(nil, RangeID(c.lastRangeID.Add(1)), keys.Span{Key: keys.MinKey.Next(), EndKey: keys.MaxKey}, replicas, 0, 0)
	if err != nil {
		return nil, err
	}
	c.dir.ranges = []*rangeState{rs}
	return c, nil
}

// Clock returns the cluster's HLC.
func (c *Cluster) Clock() *hlc.Clock { return c.hlc }

// SetAuthorizer installs the SQL/KV boundary authorization check.
func (c *Cluster) SetAuthorizer(a Authorizer) {
	if a == nil {
		c.auth.Store(nil)
		return
	}
	c.auth.Store(&a)
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

// succeed builds the range that continues preds, the ranges a split, merge
// or move retires, over span: its group is seeded from theirs (seedGroup),
// its timestamp cache holds the reads they served on span, and size is its
// size statistic. The range is not yet published: the caller hands it a
// lease and swaps it in for preds. The first range has no predecessors.
func (c *Cluster) succeed(preds []*rangeState, id RangeID, span keys.Span, replicas []NodeID, generation, size int64) (*rangeState, error) {
	// The range state exists before its group: each replica's state machine
	// reads the descriptor (and writes the applied key) through it.
	rs := &rangeState{
		desc: &RangeDescriptor{RangeID: id, Span: span, Replicas: slices.Clone(replicas), Generation: generation},
		tsc:  newTSCache(),
	}
	group, err := c.newGroup(rs, replicas)
	if err != nil {
		return nil, err
	}
	seedGroup(group, preds)
	rs.group = group
	for _, p := range preds {
		rs.tsc.absorb(p.tsc, span)
	}
	rs.writtenBytes.Store(size)
	return rs, nil
}

// newGroup builds a replication group for rs over replicas, one engine state
// machine per replica. Every group the cluster creates comes from here, so
// each one gets the same configuration, fault sites included.
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
		RangeID:       int64(rs.desc.RangeID),
		Liveness:      c.liveness,
		Faults:        c.cfg.Faults,
		CommitMetrics: c.cfg.CommitMetrics,
	}, replicas, sms)
}

// seedGroup starts g, the group of a range that continues preds, where their
// history left off: its commit index is the sum of theirs, and each replica's
// applied index the sum of its applied indexes in them. The data already
// lives in every replica's engine at those indexes, so a replica that lagged
// in a predecessor reads as lagging here too and heals via snapshot; a group
// seeded at zero would count it caught up, and its state would stay stale
// once the predecessors' logs truncate. A replica new to the range (a move's
// target) starts at zero, behind the seeded log, so it too is filled by
// snapshot.
func seedGroup(g *raftlite.Group, preds []*rangeState) {
	var commit uint64
	replicas := g.Replicas()
	applied := make(map[NodeID]uint64, len(replicas))
	for _, p := range preds {
		commit += p.group.CommitIndex()
		for _, nid := range replicas {
			if a, err := p.group.AppliedIndex(nid); err == nil {
				applied[nid] += a
			}
		}
	}
	g.SeedState(commit, applied)
}

// rangeFor returns the range containing key.
func (c *Cluster) rangeFor(key keys.Key) (*rangeState, error) {
	return c.dir.lookup(key)
}

// LookupRange returns the descriptor for the range containing key — the META
// range lookup. Reads of META tolerate staleness (follower reads, §3.2.5):
// callers cache results and rely on redirects when ranges move.
func (c *Cluster) LookupRange(key keys.Key) (*RangeDescriptor, error) {
	rs, err := c.dir.lookup(key)
	if err != nil {
		return nil, err
	}
	return rs.desc.clone(), nil
}

// Descriptors returns all range descriptors in key order.
func (c *Cluster) Descriptors() []*RangeDescriptor { return c.dir.all() }

// SplitAt splits the range containing key so that key becomes a range start.
// Used both by size-based splitting and by the cluster-virtualization
// layer to place tenant boundaries on range boundaries (§3.2.1: the KV layer
// enforces that no two tenants share a range).
//
// A split, merge or move that retires the range while the split waits for its
// latch sends the split back to the directory for the key's new range.
func (c *Cluster) SplitAt(key keys.Key) error {
	for {
		rs, err := c.rangeFor(key)
		if err != nil {
			return err
		}
		rs.latch.Lock()
		_, err = c.splitLocked(rs, key)
		rs.latch.Unlock()
		var rnf *kvpb.RangeNotFoundError
		if !errors.As(err, &rnf) {
			return err
		}
	}
}

// splitLocked performs the split with rs.latch held. It reports whether a
// split actually happened (false when key is already a boundary). Both halves
// succeed rs over its replicas, so the data stays in place: the left keeps
// rs's RangeID, and each remembers the reads rs served on its span, so no
// write there can land below one of them.
func (c *Cluster) splitLocked(rs *rangeState, key keys.Key) (bool, error) {
	desc := rs.desc
	if rs.retired.Load() {
		return false, &kvpb.RangeNotFoundError{RangeID: int64(desc.RangeID)}
	}
	if key.Equal(desc.Span.Key) {
		return false, nil // already a boundary
	}
	if !desc.Span.ContainsKey(key) {
		return false, &kvpb.RangeKeyMismatchError{RequestedKey: key, ActualSpan: desc.Span}
	}
	key = key.Clone()
	preds := []*rangeState{rs}
	// Split halves the parent's accumulated size statistic.
	half := rs.writtenBytes.Load() / 2
	right, err := c.succeed(preds, RangeID(c.lastRangeID.Add(1)), keys.Span{Key: key, EndKey: desc.Span.EndKey}, desc.Replicas, 0, half)
	if err != nil {
		return false, err
	}
	left, err := c.succeed(preds, desc.RangeID, keys.Span{Key: desc.Span.Key, EndKey: key}, desc.Replicas, desc.Generation+1, half)
	if err != nil {
		return false, err
	}
	// Both halves start with the parent's leaseholder so serving continues
	// without interruption.
	if lh, ok := rs.group.Leaseholder(); ok {
		for _, half := range []*rangeState{left, right} {
			//lint:allow faulterr a failed hand-over leaves the half without a lease, which the next tick grants
			_ = half.group.AcquireLease(lh)
		}
	}
	if err := c.dir.swap(preds, left, right); err != nil {
		return false, err
	}
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
	return boundedMiddleKey(n, rs.desc.Span)
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
	// A copy, so the split key does not hold the scan's key slab.
	return mid.Clone()
}

// maybeSizeSplit splits rs at its bounded-scan midpoint if it has absorbed
// enough writes.
func (c *Cluster) maybeSizeSplit(rs *rangeState, leaseholder NodeID) {
	if rs.writtenBytes.Load() <= c.splitSize {
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
	for _, rs := range c.dir.byID() {
		if lh, ok := rs.group.Leaseholder(); ok {
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
	ranges := c.dir.byID()
	out := make([]RangeLease, 0, len(ranges))
	for _, rs := range ranges {
		lh, _ := rs.group.Leaseholder()
		out = append(out, RangeLease{RangeID: rs.desc.RangeID, Leaseholder: lh})
	}
	return out
}

// Tick runs periodic cluster maintenance: node ticks (AIMD, token refills,
// write rates from L0), lease grants, and lease rebalancing. A lease lasts
// while its holder is live, so it needs no renewal: the tick reads each
// node's liveness once, and one pass over the ranges in RangeID order grants
// a lease only to a range whose holder is not live. The order is fixed
// because lease operations trigger catch-up applies, and those must consult
// fault-injection sites in a deterministic sequence for seeded chaos runs to
// reproduce.
func (c *Cluster) Tick() {
	nodes := c.Nodes()
	for _, n := range nodes {
		n.Tick()
	}
	live := make(map[NodeID]bool, len(nodes))
	for _, n := range nodes {
		live[n.id] = n.Live()
	}
	// leases[n] lists the ranges node n holds the lease of, in RangeID
	// order: the count balancer's input.
	leases := make(map[NodeID][]*rangeState)
	for _, rs := range c.dir.byID() {
		holder := rs.group.Lease().Holder
		if !live[holder] {
			var ok bool
			if holder, ok = c.grantLease(rs, live); !ok {
				continue
			}
		}
		leases[holder] = append(leases[holder], rs)
	}
	c.rebalanceLeases(leases, live)
}

// grantLease grants rs's lease to the first live replica that can take it
// (AcquireLease applies any entries the taker missed before granting). It
// reports the holder, or false when no live replica could take the lease;
// the next tick retries.
func (c *Cluster) grantLease(rs *rangeState, live map[NodeID]bool) (NodeID, bool) {
	g := rs.group
	for _, nid := range g.Replicas() {
		if live[nid] {
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
// can to the replica peer with the fewest. live is the tick's liveness read.
func (c *Cluster) rebalanceLeases(leases map[NodeID][]*rangeState, live map[NodeID]bool) {
	if len(live) < 2 {
		// One node has no peer to even out with. Returning before any
		// allocation also keeps a one-node round out of the 16-byte blocks
		// the runtime packs tiny allocations into, which the foreground's
		// allocation-site profile (TestWholePathAllocSites) reads.
		return
	}
	liveIDs := make([]NodeID, 0, len(live))
	for nid, ok := range live {
		if ok {
			liveIDs = append(liveIDs, nid)
		}
	}
	if len(liveIDs) < 2 {
		return
	}
	slices.Sort(liveIDs)

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
			g := rs.group
			lh, ok := g.Leaseholder()
			if !ok || lh != maxN {
				continue
			}
			best := lh
			for _, nid := range g.Replicas() {
				if live[nid] && counts[nid] < counts[best] {
					best = nid
				}
			}
			if best == lh || counts[lh]-counts[best] <= 1 {
				continue
			}
			// TransferLease catches the target up before handing over.
			if err := g.TransferLease(lh, best); err == nil {
				leases[lh] = slices.Delete(leases[lh], i, i+1)
				id := rs.desc.RangeID
				at := sort.Search(len(leases[best]), func(j int) bool { return leases[best][j].desc.RangeID > id })
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
	for _, rs := range c.dir.byID() {
		g := rs.group
		commit := g.CommitIndex()
		for _, nid := range g.Replicas() {
			applied, err := g.AppliedIndex(nid)
			if err != nil {
				continue
			}
			out = append(out, ReplicaStatus{
				RangeID: rs.desc.RangeID, Node: nid, Applied: applied, Commit: commit,
			})
		}
	}
	return out
}

// RaftSnapshots returns the total number of snapshot catch-ups performed
// by every replication group the cluster has published, retired ones
// included — replicas that fell behind the truncated log (crashed stores)
// and rejoined via state transfer, and replicas that moves added.
func (c *Cluster) RaftSnapshots() int64 { return c.dir.snapshots() }

// CatchUpReplicas applies pending committed entries on every replica of every
// range — the quiescence step before checking convergence, standing in for
// the raft log replay a revived node performs.
func (c *Cluster) CatchUpReplicas() error {
	var firstErr error
	for _, rs := range c.dir.byID() {
		g := rs.group
		for _, nid := range g.Replicas() {
			if err := g.CatchUp(nid); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// RunGC reclaims old MVCC versions across every range and node, retaining
// versions newer than keepAfter (and always the newest committed version and
// all intents). It returns the number of versions removed. This is the
// storage-reclamation path behind "the only cost is for storage" (§4.2.3):
// suspended tenants' data keeps getting compacted down. Ranges are visited
// in RangeID order so injected storage faults land on a deterministic range.
//
//lint:allow deadsurface roadmap: "One read path, one engine mode" step 4 drives MVCC GC from the tick
func (c *Cluster) RunGC(keepAfter hlc.Timestamp) (int, error) {
	removed := 0
	for _, rs := range c.dir.byID() {
		rs.latch.Lock()
		desc := rs.desc
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
	if auth := c.auth.Load(); auth != nil {
		if err := (*auth).Authorize(id, ba); err != nil {
			return nil, err
		}
	}
	if len(ba.Requests) == 0 {
		return &kvpb.BatchResponse{Timestamp: ba.ReadTs()}, nil
	}

	// Locate the range; every request in the batch must fall within it
	// (DistSender splits batches at range boundaries). evaluateBatch checks
	// the range again under its latch, since it can split, merge or change
	// leaseholder while the batch waits in admission; this early check turns
	// a misrouted batch away before it queues and is charged CPU.
	rs, err := c.rangeFor(ba.Requests[0].Key)
	if err != nil {
		return nil, err
	}
	desc, err := checkRange(rs, nodeID, ba, true)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("kv.range", desc.RangeID)

	// Admission control (§5.1). The wait is the time queued: 0, which boxes
	// without allocating, when the batch is admitted at once.
	slot, err := n.admit(ctx, ba)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("admission.wait", slot.Wait)

	resp, start, evalErr := c.evaluateBatch(ctx, n, rs, ba)
	// Charge ground-truth CPU from the latch grant: the work happens whether
	// or not evaluation errored (conflict checks consume CPU too), but
	// successful responses carry the payload costs. The waits in admission
	// and for the latch are queueing, not CPU.
	cost := n.chargeCPU(ba, resp, start)
	slot.Release(cost)
	if evalErr != nil {
		return nil, evalErr
	}
	// The size check runs outside the range latch.
	if !ba.IsReadOnly() {
		c.maybeSizeSplit(rs, nodeID)
	}
	return resp, nil
}

// checkRange returns rs's descriptor if rs is still in the directory, its
// span contains every request span of ba, and nodeID holds its lease. A range
// with no leaseholder is offered to nodeID when acquire is set (AcquireLease
// catches the node up to the commit index before granting, so it serves
// current state); otherwise it turns the batch away.
func checkRange(rs *rangeState, nodeID NodeID, ba *kvpb.BatchRequest, acquire bool) (*RangeDescriptor, error) {
	desc := rs.desc
	if rs.retired.Load() {
		return nil, &kvpb.RangeNotFoundError{RangeID: int64(desc.RangeID)}
	}
	for _, r := range ba.Requests {
		span := r.Span()
		if !desc.Span.ContainsKey(span.Key) {
			return nil, &kvpb.RangeKeyMismatchError{RequestedKey: span.Key, ActualSpan: desc.Span}
		}
		if !span.IsPoint() && desc.Span.EndKey.Less(span.EndKey) {
			return nil, &kvpb.RangeKeyMismatchError{RequestedKey: span.EndKey, ActualSpan: desc.Span}
		}
	}
	g := rs.group
	lh, ok := g.Leaseholder()
	if !ok && acquire {
		if err := g.AcquireLease(nodeID); err != nil {
			var nle *kvpb.NotLeaseholderError
			if errors.As(err, &nle) {
				return nil, nle
			}
			return nil, &kvpb.NotLeaseholderError{RangeID: int64(desc.RangeID)}
		}
	} else if !ok || lh != nodeID {
		return nil, &kvpb.NotLeaseholderError{RangeID: int64(desc.RangeID), Leaseholder: lh}
	}
	return desc, nil
}

func hasReplica(rs *rangeState, nodeID NodeID) bool {
	return slices.Contains(rs.desc.Replicas, nodeID)
}

// evaluateBatch evaluates the batch on the node's engine under the range
// latch (evalBatch), and proposes its entries through the range's
// replication group. It returns the time it took the latch, where the
// batch's CPU booking starts: evaluation and the proposal run inside it.
func (c *Cluster) evaluateBatch(ctx context.Context, n *Node, rs *rangeState, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, time.Time, error) {
	readTs := ba.ReadTs()
	if readTs.IsEmpty() {
		readTs = c.hlc.Now()
	}
	rs.latch.Lock()
	defer rs.latch.Unlock()
	start := n.clock.Now()
	// A split, merge or move may have run while the batch waited for the
	// latch and retired the range. The batch must not write through a retired
	// range's group.
	// The lease may also have moved since Batch checked it: a holder that
	// failed liveness while the batch queued has lost the lease to a replica
	// that may since have committed writes this node has not applied.
	if _, err := checkRange(rs, n.id, ba, false); err != nil {
		return nil, start, err
	}
	resp, ents, written, err := evalBatch(n.Engine(), rs.tsc, ba, readTs)
	// A batch whose requests come to no entries (reads alone, or a resolve
	// that found no intent) has nothing to replicate.
	if err != nil || len(ents.List) == 0 {
		return resp, start, err
	}
	if err := rs.group.ProposeCtx(ctx, n.id, encodeCommand(ents.List)); err != nil {
		return nil, start, err
	}
	rs.writtenBytes.Add(written)
	return resp, start, nil
}
