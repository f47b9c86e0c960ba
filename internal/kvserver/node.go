package kvserver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crdbserverless/internal/admission"
	"crdbserverless/internal/keys"
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
	// AdmissionEnabled turns on admission control for this node.
	AdmissionEnabled bool
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

	cpuQ   *admission.CPUQueue
	writeQ *admission.WriteQueue
	capEst admission.CapacityEstimator
	// writeModel translates a batch's logical write bytes into estimated
	// physical bytes (raft log + state machine application), per §5.1.4.
	writeModel admission.LinearModel

	livenessLimit int
	// acEnabled routes batches through the admission queues.
	acEnabled bool

	mu struct {
		sync.Mutex
		batchRate   float64 // EWMA batches/sec
		lastBatchAt time.Time
		batches     int64
		lastCapAt   time.Time
		cordoned    bool
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
		livenessLimit: cfg.LivenessQueueLimit,
		acEnabled:     cfg.AdmissionEnabled,
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
	n.mu.lastCapAt = cfg.Clock.Now()
	return n
}

// ID returns the node's ID.
func (n *Node) ID() NodeID { return n.id }

// Region returns the node's locality.
func (n *Node) Region() string { return n.region }

// VCPUs returns the node's CPU capacity.
func (n *Node) VCPUs() int { return n.vcpus }

// Engine exposes the node's storage engine (replicas and tests use it).
// After a Crash it returns the reopened engine.
func (n *Node) Engine() *lsm.Engine { return n.engine.Load() }

// Crash simulates a process crash and restart of the node's store: the
// engine is closed, the directory loses its unsynced suffix (up to tear
// bytes of torn tail per file), and the engine is reopened from the durable
// state — replaying the WAL, truncating at the first torn record. The node
// must be configured with durable storage (Options.Durable), and the caller
// must cordon it first so no batch runs against the dying engine. After a
// successful Crash the caller reconciles replication state with
// Cluster.RecoverNode.
func (n *Node) Crash(tear int) error {
	dir := n.lsmOpts.Durable
	if dir == nil {
		return errors.New("kvserver: node has no durable storage to crash")
	}
	n.Engine().Close()
	dir.Crash(tear)
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

// admitCPU passes the batch through the CPU admission queue when enabled.
// It returns a release function to call with the consumed CPU time.
func (n *Node) admitCPU(ctx context.Context, ba *kvpb.BatchRequest) (func(time.Duration), error) {
	if !n.acEnabled {
		return func(time.Duration) {}, nil
	}
	info := admission.WorkInfo{Tenant: ba.Tenant, Priority: ba.Priority}
	if ba.Txn != nil {
		info.Priority = ba.Txn.Priority
		info.CreateTime = ba.Txn.Ts.GoTime()
	}
	return n.cpuQ.Admit(ctx, info)
}

// admitWrite passes the batch's write volume through the write token bucket.
func (n *Node) admitWrite(ctx context.Context, ba *kvpb.BatchRequest) error {
	if !n.acEnabled || ba.IsReadOnly() {
		return nil
	}
	est := n.writeModel.Predict(float64(ba.WriteBytes()))
	info := admission.WorkInfo{Tenant: ba.Tenant, Priority: ba.Priority}
	return n.writeQ.Admit(ctx, info, int64(est))
}

// chargeCPU occupies a vCPU for the batch's ground-truth cost and returns
// the cost charged.
func (n *Node) chargeCPU(ba *kvpb.BatchRequest, resp *kvpb.BatchResponse, remote bool) time.Duration {
	rate := n.recordBatch()
	cost := n.cost.BatchCost(ba, resp, rate, remote)
	n.ex.run(cost)
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

// Tick runs the node's periodic maintenance: the AIMD slot adjustment from
// the executor queue depth (the 1000Hz runnable-queue sampling of §5.1.3,
// invoked here at the caller's cadence) and the write-capacity re-estimate.
func (n *Node) Tick() {
	n.cpuQ.AdjustSlots(n.ex.queueDepth(), n.vcpus)
	n.writeQ.Tick()
	now := n.clock.Now()
	n.mu.Lock()
	due := now.Sub(n.mu.lastCapAt) >= 15*time.Second
	if due {
		n.mu.lastCapAt = now
	}
	n.mu.Unlock()
	if due {
		capacity := n.capEst.Update(n.Engine().Metrics(), now)
		n.writeQ.SetRate(capacity)
	}
}

// AdmissionStats exposes the node's admission queue state.
func (n *Node) AdmissionStats() (admission.CPUQueueStats, admission.WriteQueueStats) {
	return n.cpuQ.Stats(), n.writeQ.Stats()
}

// TenantCPUUsage returns a tenant's decayed recent CPU seconds on this node.
func (n *Node) TenantCPUUsage(id keys.TenantID) float64 {
	return n.cpuQ.TenantUsage(id)
}
