package kvserver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crdbserverless/internal/admission"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/lsm"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
)

// NodeConfig configures a KV node.
type NodeConfig struct {
	ID NodeID
	// VCPUs is the node's CPU capacity (the executor's vCPU count).
	VCPUs int
	// Region is the node's locality, used by multi-region placement.
	Region string
	Clock  timeutil.Clock
	Cost   CostConfig
	LSM    lsm.Options
	// Colocated runs the node in one process with the SQL engines it serves
	// (the traditional deployment of §6.1): responses skip the marshaling
	// cost of crossing to a separate SQL process.
	Colocated bool
	// NoAdmission turns admission control off: batches skip the admission
	// queues. Only the paper's no-limits baseline (Table 1) sets it.
	NoAdmission bool
	// LivenessQueueLimit is the executor queue depth beyond which the node
	// fails liveness (it is too overloaded to heartbeat). Defaults to
	// 300 * VCPUs.
	LivenessQueueLimit int
	// Obs, when non-nil, receives per-tenant admission-wait observations
	// from the node's CPU queue.
	Obs *tenantobs.Plane
}

// Node is one KV process: a storage engine shared by all its replicas, a
// CPU executor, and admission queues. A node serves operations for every
// tenant whose ranges have replicas here (§4.1: the KV layer is shared
// across tenants within single processes).
type Node struct {
	id     NodeID
	vcpus  int
	region string
	clock  timeutil.Clock
	// engine is swapped atomically by Crash (close, tear, reopen); all access
	// goes through Engine(). Batches never run concurrently with a crash —
	// the harness cordons the node first.
	engine atomic.Pointer[lsm.Engine]
	// lsmOpts is kept so Crash can reopen the engine over the same directory
	// with the same configuration.
	lsmOpts lsm.Options
	ex      *executor
	cost    CostConfig
	// colocated drops the marshaling cost from every batch (§6.1).
	colocated bool

	cpuQ   *admission.CPUQueue
	writeQ *admission.WriteQueue
	// writeModel translates a batch's logical write bytes into estimated
	// physical bytes (raft log + state machine application), per §5.1.4.
	writeModel admission.LinearModel

	livenessLimit int
	// noAdmission routes batches around the admission queues.
	noAdmission bool

	mu struct {
		sync.Mutex
		batchRate   float64 // EWMA batches/sec
		lastBatchAt time.Time
		batches     int64
		cordoned    bool
		// ratedAt and ratedLSM are the time and engine snapshot of the last
		// write-rate interval.
		ratedAt  time.Time
		ratedLSM lsm.Metrics
	}
}

// NewNode starts a node.
func NewNode(cfg NodeConfig) *Node {
	if cfg.VCPUs <= 0 {
		cfg.VCPUs = 4
	}
	if cfg.Clock == nil {
		cfg.Clock = timeutil.NewRealClock()
	}
	if cfg.Cost == (CostConfig{}) {
		cfg.Cost = DefaultCostConfig()
	}
	if cfg.LivenessQueueLimit <= 0 {
		cfg.LivenessQueueLimit = 300 * cfg.VCPUs
	}
	n := &Node{
		id:            cfg.ID,
		vcpus:         cfg.VCPUs,
		region:        cfg.Region,
		clock:         cfg.Clock,
		lsmOpts:       cfg.LSM,
		cost:          cfg.Cost,
		colocated:     cfg.Colocated,
		livenessLimit: cfg.LivenessQueueLimit,
		noAdmission:   cfg.NoAdmission,
		// Physical write bytes ≈ 2x logical (raft log + state machine)
		// plus per-batch framing.
		writeModel: admission.LinearModel{A: 2, B: 64},
	}
	n.engine.Store(lsm.New(cfg.LSM))
	n.ex = newExecutor(cfg.Clock, cfg.VCPUs)
	n.cpuQ = admission.NewCPUQueue(admission.CPUQueueOptions{
		InitialSlots: cfg.VCPUs * 2,
		MaxSlots:     cfg.VCPUs * 64,
		Clock:        cfg.Clock,
		Obs:          cfg.Obs,
	})
	n.writeQ = admission.NewWriteQueue(admission.WriteQueueOptions{Clock: cfg.Clock})
	n.mu.lastBatchAt = cfg.Clock.Now()
	n.mu.ratedAt = cfg.Clock.Now()
	n.mu.ratedLSM = n.Engine().Metrics()
	return n
}

// ID returns the node's ID.
func (n *Node) ID() NodeID { return n.id }

// Region returns the node's locality.
//
//lint:allow deadsurface roadmap: "Run Fig 10 on the assembly" (2) places leases by locality
func (n *Node) Region() string { return n.region }

// VCPUs returns the node's CPU capacity.
func (n *Node) VCPUs() int { return n.vcpus }

// Engine exposes the node's storage engine (replicas and tests use it).
// After a Crash it returns the reopened engine.
func (n *Node) Engine() *lsm.Engine { return n.engine.Load() }

// Crash simulates a process crash and restart of the node's store: the
// directory loses its unsynced suffix (up to tear bytes of torn tail per
// file) before the old engine is closed, since a close syncs the WAL tail a
// crash would lose, and the engine is reopened from the durable state —
// replaying the WAL, truncating at the first torn record. The node
// must be configured with durable storage (Options.Durable), and the caller
// must cordon it first so no batch runs against the dying engine. After a
// successful Crash the caller reconciles replication state with
// Cluster.RecoverNode.
func (n *Node) Crash(tear int) error {
	dir := n.lsmOpts.Durable
	if dir == nil {
		return errors.New("kvserver: node has no durable storage to crash")
	}
	dir.Crash(tear)
	n.Engine().Close()
	e, err := lsm.Open(n.lsmOpts)
	if err != nil {
		return fmt.Errorf("kvserver: reopening store after crash: %w", err)
	}
	n.engine.Store(e)
	return nil
}

// Live reports node liveness: an overloaded node (deep executor queue)
// cannot heartbeat and reads as dead, shedding its leases (§6.6). A cordoned
// node also reads as dead.
func (n *Node) Live() bool {
	n.mu.Lock()
	cordoned := n.mu.cordoned
	n.mu.Unlock()
	return !cordoned && n.ex.queueDepth() < n.livenessLimit
}

// SetCordoned marks the node administratively dead (maintenance, failure
// injection): it fails liveness, loses its leases at the next cluster tick,
// and stops accepting lease transfers until un-cordoned.
func (n *Node) SetCordoned(cordoned bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mu.cordoned = cordoned
}

// CPUBusy returns cumulative busy CPU time across the node's vCPUs.
func (n *Node) CPUBusy() time.Duration { return n.ex.busyTime() }

// BatchCount returns the number of batches served.
func (n *Node) BatchCount() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mu.batches
}

// Close shuts down the node.
func (n *Node) Close() { n.Engine().Close() }

// admit passes the batch through admission control (§5.1): a write first
// takes its estimated physical bytes from the write token bucket, then every
// batch takes a CPU slot. The caller releases the slot with the CPU time the
// batch consumed. The slot's Wait is the time the batch queued in both
// queues. A node with admission off returns the zero Slot at once.
func (n *Node) admit(ctx context.Context, ba *kvpb.BatchRequest) (admission.Slot, error) {
	if n.noAdmission {
		return admission.Slot{}, nil
	}
	info := admission.WorkInfo{Tenant: ba.Tenant, Priority: kvpb.PriorityNormal}
	if ba.Txn != nil {
		info.Priority = ba.Txn.Priority
		info.CreateTime = ba.Txn.Ts.GoTime()
	}
	var writeWait time.Duration
	if !ba.IsReadOnly() {
		est := n.writeModel.Predict(float64(ba.WriteBytes()))
		var err error
		if writeWait, err = n.writeQ.Admit(ctx, info, int64(est)); err != nil {
			return admission.Slot{}, err
		}
	}
	slot, err := n.cpuQ.Admit(ctx, info)
	slot.Wait += writeWait
	return slot, err
}

// chargeCPU occupies a vCPU for the batch's ground-truth cost from start, the
// time the batch took its range latch, and returns the cost charged.
func (n *Node) chargeCPU(ba *kvpb.BatchRequest, resp *kvpb.BatchResponse, start time.Time) time.Duration {
	rate := n.recordBatch()
	cost := n.cost.BatchCost(ba, resp, rate, !n.colocated)
	n.ex.run(start, cost)
	return cost
}

// recordBatch updates the node's batch-rate EWMA and returns it.
func (n *Node) recordBatch() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.clock.Now()
	dt := now.Sub(n.mu.lastBatchAt).Seconds()
	if dt <= 0 {
		dt = 1e-9
	}
	instant := 1 / dt
	alpha := dt / (dt + 1) // ~1s smoothing window
	if alpha > 1 {
		alpha = 1
	}
	n.mu.batchRate = (1-alpha)*n.mu.batchRate + alpha*instant
	n.mu.lastBatchAt = now
	n.mu.batches++
	return n.mu.batchRate
}

// writeRateInterval is how often the node re-rates its write queue from its
// engine's L0 (§5.1.3: every 15 s).
const writeRateInterval = 15 * time.Second

// Tick runs the node's periodic maintenance, once per Cluster.Tick (every
// 100 ms in a deployment): the AIMD slot adjustment from the executor queue
// depth (the 1000Hz runnable-queue sampling of §5.1.3), the write queue's
// refill, and every writeRateInterval its rate (admission.WriteRate).
func (n *Node) Tick() {
	n.cpuQ.AdjustSlots(n.ex.queueDepth(), n.vcpus)
	n.writeQ.Tick()
	now := n.clock.Now()
	n.mu.Lock()
	dt := now.Sub(n.mu.ratedAt)
	if dt < writeRateInterval {
		n.mu.Unlock()
		return
	}
	prev, cur := n.mu.ratedLSM, n.Engine().Metrics()
	n.mu.ratedAt, n.mu.ratedLSM = now, cur
	n.mu.Unlock()
	n.writeQ.SetRate(admission.WriteRate(prev, cur, dt))
}

// AdmissionStats exposes the node's admission queue state.
//
//lint:allow deadsurface test seam: TestConfigSurface checks through it that New admits every batch
func (n *Node) AdmissionStats() (admission.CPUQueueStats, admission.WriteQueueStats) {
	return n.cpuQ.Stats(), n.writeQ.Stats()
}
