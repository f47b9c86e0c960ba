// Package raftlite implements per-range quorum replication with epoch-style
// leases, in the spirit of CockroachDB's use of Raft (§3.1 of the paper). A
// Group replicates a command log across peers, commits entries once a quorum
// of live peers has accepted them, and applies committed entries to each
// peer's state machine. Leases gate serving: only the leaseholder may propose
// writes or serve consistent reads, and an overloaded node that stops
// heartbeating loses its leases — the destabilizing behavior the paper's
// Fig 12 shows admission control preventing.
package raftlite

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
)

// NodeID identifies a node hosting replicas.
type NodeID = kvpb.NodeID

// StateMachine is the replicated state a peer applies committed commands to.
type StateMachine interface {
	// Apply applies the command at the given log index. Apply is invoked in
	// strictly increasing index order on each peer.
	Apply(index uint64, cmd []byte) error
}

// SnapshotStateMachine is a StateMachine that can ship its full state to a
// peer that has fallen behind the group's log truncation point. Snapshot
// serializes the donor's applied state; ApplySnapshot replaces the target's
// state with it and fast-forwards the target to the donor's applied index.
// Log replay resumes from there.
type SnapshotStateMachine interface {
	StateMachine
	Snapshot() ([]byte, error)
	ApplySnapshot(index uint64, data []byte) error
}

// LivenessFunc reports whether a node is currently live (heartbeating). The
// KV layer wires this to its node-health tracker; an overloaded node that
// misses heartbeats reads as dead and cannot hold leases or ack proposals.
type LivenessFunc func(NodeID) bool

// Lease grants one node the right to serve a range until expiration.
type Lease struct {
	Holder     NodeID
	Expiration time.Time
	Sequence   uint64
}

// Valid reports whether the lease is held at the given instant.
func (l Lease) Valid(now time.Time) bool {
	return l.Holder != 0 && now.Before(l.Expiration)
}

// Errors returned by Group methods.
var (
	ErrNotLeaseholder = errors.New("raftlite: not leaseholder")
	ErrNoQuorum       = errors.New("raftlite: no quorum of live replicas")
	ErrUnknownPeer    = errors.New("raftlite: node has no replica of this range")
	// ErrSnapshotUnavailable reports a peer behind the log truncation point
	// with no live snapshot-capable donor to catch it up from.
	ErrSnapshotUnavailable = errors.New("raftlite: peer behind truncation point and no snapshot donor available")
)

type entry struct {
	term uint64
	cmd  []byte
}

// CommitMetrics holds the group-commit instrumentation. One instance is
// shared by every Group registered against the same metric.Registry (the
// Registry panics on duplicate names, so per-group registration is not an
// option), mirroring lsm.ReadMetrics.
type CommitMetrics struct {
	// BatchSize is the raft.commit.batch_size histogram: entries committed
	// per commit round. Histogram buckets are duration-typed, so a round of
	// n entries records as n nanoseconds — a unit pun that keeps the
	// exposition machinery unchanged (1ns tick = 1 entry).
	BatchSize *metric.Histogram
	// Batches and Entries count commit rounds and committed entries; their
	// ratio is the realized group-commit factor.
	Batches *metric.Counter
	Entries *metric.Counter
}

// NewCommitMetrics registers the commit-round instrumentation on reg and
// returns the shared instance to hand to each Group's Config.
func NewCommitMetrics(reg *metric.Registry) *CommitMetrics {
	return &CommitMetrics{
		BatchSize: reg.NewHistogram("raft.commit.batch_size"),
		Batches:   reg.NewCounter("raft.commit.batches"),
		Entries:   reg.NewCounter("raft.commit.entries"),
	}
}

// record notes one commit round of n entries. Nil-safe: groups without
// metrics pay only the nil check.
func (m *CommitMetrics) record(n int) {
	if m == nil {
		return
	}
	m.BatchSize.Record(time.Duration(n))
	m.Batches.Inc(1)
	m.Entries.Inc(int64(n))
}

// proposal is one waiter in the group-commit queue.
type proposal struct {
	node NodeID
	cmd  []byte
	// index is the log index assigned at append (0 when rejected), and
	// batch the number of entries committed by the round that served this
	// proposal; both are read only after done is closed.
	index uint64
	batch int
	err   error
	done  chan struct{}
}

type peer struct {
	id      NodeID
	sm      StateMachine
	applied uint64
}

// Group is a single range's replication group.
type Group struct {
	rangeID       int64
	clock         timeutil.Clock
	live          LivenessFunc
	leaseDur      time.Duration
	faults        *faultinject.Registry
	commitMetrics *CommitMetrics
	// commitOverhead models the fixed cost of one commit round (quorum
	// round-trip + log sync) as a sleep while the round is in flight; group
	// commit amortizes it over the batch. Zero, the default, skips the sleep
	// entirely. Only in-package tests and benchmarks set it, after NewGroup.
	commitOverhead time.Duration

	// seq is the group-commit sequencer: proposers enqueue, the first
	// arrival becomes the round leader and drains the queue into commit
	// rounds. seq.mu orders the queue and is never held across a round.
	seq struct {
		mu      sync.Mutex
		queue   []*proposal
		leading bool
	}

	retention uint64

	mu   sync.Mutex
	term uint64
	// log holds the entries after the truncation point: log[i] is the entry
	// at index truncated+i+1. Entries at or below truncated were compacted
	// away once every live peer applied them (keeping retention extras); a
	// peer behind the truncation point rejoins via snapshot.
	log       []entry
	truncated uint64
	commit    uint64
	peers     []*peer
	lease     Lease
	// snapshots counts snapshot catch-ups performed (observability; the
	// chaos harness reports it per run).
	snapshots int64
}

// Config configures a Group.
type Config struct {
	RangeID int64
	Clock   timeutil.Clock
	// Liveness reports node health; nil means all nodes are always live.
	Liveness LivenessFunc
	// LeaseDuration is how long a lease lasts without extension. Defaults
	// to 9 seconds (3 missed 3s heartbeats), mirroring CRDB defaults.
	LeaseDuration time.Duration
	// Faults, when non-nil, arms the group's fault-injection sites
	// (raftlite.propose.delay, raftlite.propose.err, raftlite.lease.expire).
	// The lease.expire site is consulted under the group lock, so configure
	// it without a Delay.
	Faults *faultinject.Registry
	// CommitMetrics, when non-nil, receives the commit-round
	// instrumentation (raft.commit.batch_size and friends). Shared across
	// groups; see NewCommitMetrics.
	CommitMetrics *CommitMetrics
	// LogRetention, when > 0, enables log truncation: after each commit
	// round the log is compacted up to the minimum applied index over live
	// peers minus LogRetention entries of slack (so a briefly-lagging peer
	// can still catch up from the log). A peer that falls behind the
	// truncation point — dead through many rounds, or a recovered store
	// whose durable applied index regressed — rejoins via snapshot from a
	// live SnapshotStateMachine peer. 0 (the default) never truncates.
	LogRetention uint64
}

// NewGroup creates a replication group over the given nodes. Each node's
// replica applies committed commands to the corresponding state machine.
func NewGroup(cfg Config, nodes []NodeID, sms []StateMachine) (*Group, error) {
	if len(nodes) == 0 || len(nodes) != len(sms) {
		return nil, fmt.Errorf("raftlite: %d nodes with %d state machines", len(nodes), len(sms))
	}
	if cfg.Clock == nil {
		cfg.Clock = timeutil.NewRealClock()
	}
	if cfg.Liveness == nil {
		cfg.Liveness = func(NodeID) bool { return true }
	}
	if cfg.LeaseDuration == 0 {
		cfg.LeaseDuration = 9 * time.Second
	}
	g := &Group{
		rangeID:       cfg.RangeID,
		clock:         cfg.Clock,
		live:          cfg.Liveness,
		leaseDur:      cfg.LeaseDuration,
		faults:        cfg.Faults,
		commitMetrics: cfg.CommitMetrics,
		retention:     cfg.LogRetention,
		term:          1,
	}
	for i, id := range nodes {
		g.peers = append(g.peers, &peer{id: id, sm: sms[i]})
	}
	return g, nil
}

// RangeID returns the range this group replicates.
func (g *Group) RangeID() int64 { return g.rangeID }

// Replicas returns the node IDs holding replicas.
func (g *Group) Replicas() []NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]NodeID, len(g.peers))
	for i, p := range g.peers {
		out[i] = p.id
	}
	return out
}

// quorum returns the number of replicas needed to commit.
func (g *Group) quorum() int { return len(g.peers)/2 + 1 }

// Lease returns the current lease (which may be expired).
func (g *Group) Lease() Lease {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lease
}

// Leaseholder returns the node holding a valid lease, or (0, false).
func (g *Group) Leaseholder() (NodeID, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.clock.Now()
	if g.lease.Valid(now) && g.live(g.lease.Holder) {
		return g.lease.Holder, true
	}
	return 0, false
}

// AcquireLease attempts to grant the lease to node. It succeeds when the
// current lease is invalid (expired or holder dead) or already held by node,
// and a quorum of replicas is live. Lease acquisition is itself a replicated
// decision in real Raft; here the quorum check models that requirement.
func (g *Group) AcquireLease(node NodeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.hasPeerLocked(node) {
		return ErrUnknownPeer
	}
	if !g.live(node) {
		return fmt.Errorf("raftlite: node %d is not live", node)
	}
	now := g.clock.Now()
	if g.lease.Valid(now) && g.live(g.lease.Holder) && g.lease.Holder != node {
		return &kvpb.NotLeaseholderError{RangeID: g.rangeID, Leaseholder: g.lease.Holder}
	}
	if g.liveCountLocked() < g.quorum() {
		return ErrNoQuorum
	}
	// A node that was dead while entries committed must apply them before it
	// may serve: leases gate consistent reads, and reads serve from applied
	// state, so granting first would open a stale-read window on the new
	// leaseholder until something else triggered a catch-up.
	if err := g.catchUpPeerLocked(node); err != nil {
		return err
	}
	g.lease = Lease{
		Holder:     node,
		Expiration: now.Add(g.leaseDur),
		Sequence:   g.lease.Sequence + 1,
	}
	return nil
}

// TransferLease moves a valid lease from its holder to another replica.
func (g *Group) TransferLease(from, to NodeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.hasPeerLocked(to) {
		return ErrUnknownPeer
	}
	now := g.clock.Now()
	if !g.lease.Valid(now) || g.lease.Holder != from {
		return ErrNotLeaseholder
	}
	// Same catch-up-before-grant rule as AcquireLease: the target may have
	// been dead while entries committed.
	if err := g.catchUpPeerLocked(to); err != nil {
		return err
	}
	g.lease = Lease{
		Holder:     to,
		Expiration: now.Add(g.leaseDur),
		Sequence:   g.lease.Sequence + 1,
	}
	return nil
}

// ExtendLease renews the holder's lease (the heartbeat path). Extending a
// lease the node does not hold is an error.
func (g *Group) ExtendLease(node NodeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.clock.Now()
	if !g.lease.Valid(now) || g.lease.Holder != node {
		return ErrNotLeaseholder
	}
	g.lease.Expiration = now.Add(g.leaseDur)
	return nil
}

// Propose replicates cmd through the group on behalf of node, which must
// hold a valid lease. On success the command is committed and applied to
// every live replica; dead replicas catch up when they next apply. See
// ProposeCtx for the group-commit mechanics.
func (g *Group) Propose(node NodeID, cmd []byte) error {
	return g.ProposeCtx(context.Background(), node, cmd)
}

// ProposeCtx is Propose with trace propagation: if ctx carries a span, the
// commit outcome is recorded on it as an event (never a child span, so
// Fig-10-style decompositions of the parent keep summing exactly).
//
// Concurrent proposals are coalesced by a group-commit sequencer: the first
// proposer to find no round in flight becomes the leader, drains the queue,
// and runs one append+quorum+apply round for the whole batch, waking every
// waiter with its per-entry result. The queue is FIFO and the leader appends
// in arrival order, so proposals never reorder. Admission (lease validity,
// proposer liveness, quorum of live acks) is checked per proposal inside the
// round: a rejected proposal neither blocks nor fails its round-mates. With
// exactly one proposer at a time — every deterministic single-threaded
// harness in this repo — each round carries exactly one entry and the
// observable behavior (fault-consult order, clock reads, apply order) is
// identical to the pre-batching path.
func (g *Group) ProposeCtx(ctx context.Context, node NodeID, cmd []byte) error {
	// Fault sites, consulted before the sequencer and the group lock so
	// configured delays do not sleep under either: a scheduling delay before
	// the proposal enters the group, and an outright proposal failure
	// (dropped before append — the caller sees an error and nothing
	// replicated).
	g.faults.Should("raftlite.propose.delay")
	if err := g.faults.MaybeErr("raftlite.propose.err"); err != nil {
		return err
	}
	p := &proposal{node: node, cmd: cmd, done: make(chan struct{})}
	g.seq.mu.Lock()
	g.seq.queue = append(g.seq.queue, p)
	if g.seq.leading {
		// A leader is draining the queue; it will carry this proposal in
		// its next round.
		g.seq.mu.Unlock()
		<-p.done
		g.traceCommit(ctx, p)
		return p.err
	}
	g.seq.leading = true
	for len(g.seq.queue) > 0 {
		batch := g.seq.queue
		g.seq.queue = nil
		g.seq.mu.Unlock()
		g.commitRound(batch)
		g.seq.mu.Lock()
	}
	g.seq.leading = false
	g.seq.mu.Unlock()
	g.traceCommit(ctx, p)
	return p.err
}

// commitRound runs one append+quorum+apply round for a batch of proposals,
// filling each proposal's err/index, and wakes the waiters.
func (g *Group) commitRound(batch []*proposal) {
	g.mu.Lock()
	now := g.clock.Now()
	//lint:allow lockscope fault site is delay-free by contract (Config.Faults)
	if g.faults.Should("raftlite.lease.expire") {
		// Simulated lease loss (a liveness blip reaching the lease record):
		// force-expire so the validity check below redirects the proposers
		// into reacquisition.
		g.lease.Expiration = now
	}
	appended := 0
	for _, p := range batch {
		if p.err = g.admitProposalLocked(p.node, now); p.err != nil {
			continue
		}
		g.log = append(g.log, entry{term: g.term, cmd: p.cmd})
		p.index = g.truncated + uint64(len(g.log))
		appended++
	}
	if appended > 0 {
		if g.commitOverhead > 0 {
			// One quorum round-trip + log sync per commit round. Rounds are
			// serialized at the leader — an unpipelined log has at most one
			// round in flight — so the sleep stays inside the critical
			// section: that serialization is precisely the cost group
			// commit amortizes over the batch.
			//lint:allow lockscope models the serialized commit round; zero in every deterministic config
			g.clock.Sleep(g.commitOverhead)
		}
		g.commit = g.truncated + uint64(len(g.log))
		if roundErr := g.applyCommittedLocked(); roundErr != nil {
			// An apply error surfaces on every proposal that committed in
			// this round, matching the old one-proposal-per-round path where
			// the lone proposer received it.
			for _, p := range batch {
				if p.err == nil {
					p.err = roundErr
				}
			}
		}
		g.maybeTruncateLocked()
		g.commitMetrics.record(appended)
	}
	g.mu.Unlock()
	for _, p := range batch {
		p.batch = appended
		close(p.done)
	}
}

// admitProposalLocked checks whether node may commit a proposal right now:
// it must hold a valid lease, be live, and see a quorum of live replicas
// (the proposer acks implicitly).
func (g *Group) admitProposalLocked(node NodeID, now time.Time) error {
	if !g.lease.Valid(now) || g.lease.Holder != node {
		holder := g.lease.Holder
		if !g.lease.Valid(now) {
			holder = 0
		}
		return &kvpb.NotLeaseholderError{RangeID: g.rangeID, Leaseholder: holder}
	}
	if !g.live(node) {
		return ErrNoQuorum
	}
	acks := 0
	for _, p := range g.peers {
		if g.live(p.id) {
			acks++
		}
	}
	if acks < g.quorum() {
		return ErrNoQuorum
	}
	return nil
}

// traceCommit records the commit outcome on the caller's span. Events carry
// error classes, never error strings, per the determinism rules (DESIGN.md
// §9). Nil-safe: an untraced ctx costs one nil check.
func (g *Group) traceCommit(ctx context.Context, p *proposal) {
	sp := trace.SpanFromContext(ctx)
	if sp == nil {
		return
	}
	if p.err != nil {
		sp.Eventf("raft.commit: r%d rejected (%s)", g.rangeID, proposalErrClass(p.err))
		return
	}
	sp.Eventf("raft.commit: r%d index=%d batch=%d", g.rangeID, p.index, p.batch)
}

// proposalErrClass maps a proposal error to a stable class name for trace
// events.
func proposalErrClass(err error) string {
	var nle *kvpb.NotLeaseholderError
	switch {
	case errors.As(err, &nle):
		return "not_leaseholder"
	case errors.Is(err, ErrNoQuorum):
		return "no_quorum"
	default:
		return "apply_error"
	}
}

// entryLocked returns the log entry at index (must be above the truncation
// point and at most the last appended index).
func (g *Group) entryLocked(index uint64) entry {
	return g.log[index-g.truncated-1]
}

// applyCommittedLocked applies newly committed entries to every live peer,
// and lets previously-dead peers catch up. A live peer that has fallen
// behind the truncation point (it was dead while the log compacted, or its
// recovered store regressed) is first restored via snapshot; if no donor is
// available it is skipped this round and retried on the next.
func (g *Group) applyCommittedLocked() error {
	var firstErr error
	for _, p := range g.peers {
		if !g.live(p.id) {
			continue
		}
		if p.applied < g.truncated {
			if err := g.snapshotCatchUpLocked(p); err != nil {
				continue // stays behind; a later round or explicit CatchUp retries
			}
		}
		for p.applied < g.commit {
			e := g.entryLocked(p.applied + 1)
			if err := p.sm.Apply(p.applied+1, e.cmd); err != nil && firstErr == nil {
				firstErr = err
			}
			p.applied++
		}
	}
	return firstErr
}

// maybeTruncateLocked compacts the log prefix every live peer has applied,
// keeping retention entries of slack so short-lived laggards can still use
// log replay. Dead peers do not hold back truncation — that is the point:
// they rejoin via snapshot. No-op unless Config.LogRetention was set.
func (g *Group) maybeTruncateLocked() {
	if g.retention == 0 {
		return
	}
	min := g.commit
	for _, p := range g.peers {
		if g.live(p.id) && p.applied < min {
			min = p.applied
		}
	}
	if min <= g.retention {
		return
	}
	target := min - g.retention
	if target <= g.truncated {
		return
	}
	drop := target - g.truncated
	g.log = append([]entry(nil), g.log[drop:]...)
	g.truncated = target
}

// snapshotCatchUpLocked restores a peer that is behind the truncation point
// from the most advanced live snapshot-capable donor, then leaves log replay
// to the caller. Donor choice is deterministic: highest applied index wins,
// first peer in replica order on ties.
func (g *Group) snapshotCatchUpLocked(p *peer) error {
	target, ok := p.sm.(SnapshotStateMachine)
	if !ok {
		return ErrSnapshotUnavailable
	}
	var donor *peer
	for _, d := range g.peers {
		if d == p || !g.live(d.id) {
			continue
		}
		if _, ok := d.sm.(SnapshotStateMachine); !ok {
			continue
		}
		if donor == nil || d.applied > donor.applied {
			donor = d
		}
	}
	// The donor must reach the replayable log: a snapshot lands the target at
	// the donor's applied index, and replay needs every entry above it to
	// still exist. Truncation only advances past indexes every live peer
	// applied, so live donors normally qualify — but a group seeded from a
	// predecessor (SeedState) can hold live peers below its truncation point,
	// and they must not donate.
	if donor == nil || donor.applied <= p.applied || donor.applied < g.truncated {
		return ErrSnapshotUnavailable
	}
	data, err := donor.sm.(SnapshotStateMachine).Snapshot()
	if err != nil {
		return err
	}
	if err := target.ApplySnapshot(donor.applied, data); err != nil {
		return err
	}
	p.applied = donor.applied
	g.snapshots++
	return nil
}

// SeedState initializes a fresh group as the logical continuation of a
// predecessor whose commit index had reached commit — the right half of a
// range split, or a group rebuilt after a replica move. The data below commit
// already lives in the peers' state machines, so the log starts empty with
// everything at or below commit treated as truncated, and each peer's applied
// index carries over from the predecessor (capped at commit; peers missing
// from the map start at zero). A peer that was lagging in the predecessor is
// behind this group's truncation point and rejoins via snapshot — without
// seeding, a fresh group at commit zero would consider such a peer caught up
// and its stale state would never heal. Call before the group serves
// proposals.
func (g *Group) SeedState(commit uint64, applied map[NodeID]uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.truncated = commit
	g.commit = commit
	for _, p := range g.peers {
		a := applied[p.id]
		if a > commit {
			a = commit
		}
		p.applied = a
	}
}

// CatchUp applies any committed entries a peer missed while dead. Call after
// a node becomes live again.
func (g *Group) CatchUp(node NodeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.catchUpPeerLocked(node)
}

// catchUpPeerLocked applies committed entries the peer has not yet applied,
// going through a snapshot first when the peer is behind the truncation
// point. Lease acquisition and transfer run it before granting.
func (g *Group) catchUpPeerLocked(node NodeID) error {
	for _, p := range g.peers {
		if p.id != node {
			continue
		}
		if p.applied < g.truncated {
			if err := g.snapshotCatchUpLocked(p); err != nil {
				return err
			}
		}
		for p.applied < g.commit {
			e := g.entryLocked(p.applied + 1)
			if err := p.sm.Apply(p.applied+1, e.cmd); err != nil {
				return err
			}
			p.applied++
		}
		return nil
	}
	return ErrUnknownPeer
}

// RegressApplied lowers a peer's applied index to the given value (no-op if
// the peer is already at or below it). A store that crashed and recovered
// calls this with the applied index its durable state actually reached, so
// the group replays — or snapshots — the suffix the crash tore away.
func (g *Group) RegressApplied(node NodeID, applied uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.peers {
		if p.id == node {
			if applied < p.applied {
				p.applied = applied
			}
			return nil
		}
	}
	return ErrUnknownPeer
}

// Snapshots returns the cumulative number of snapshot catch-ups performed.
func (g *Group) Snapshots() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.snapshots
}

// TruncatedIndex returns the log truncation point (0 when never truncated).
func (g *Group) TruncatedIndex() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.truncated
}

// AppliedIndex returns a peer's applied index (for tests and rebalancing).
func (g *Group) AppliedIndex(node NodeID) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.peers {
		if p.id == node {
			return p.applied, nil
		}
	}
	return 0, ErrUnknownPeer
}

// CommitIndex returns the group's commit index.
func (g *Group) CommitIndex() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.commit
}

func (g *Group) hasPeerLocked(node NodeID) bool {
	for _, p := range g.peers {
		if p.id == node {
			return true
		}
	}
	return false
}

func (g *Group) liveCountLocked() int {
	n := 0
	for _, p := range g.peers {
		if g.live(p.id) {
			n++
		}
	}
	return n
}
