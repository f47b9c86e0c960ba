// Package kvscaler implements automatic KV/storage node scaling — the first
// future-work item of the paper's §8: "while the system already scales SQL
// nodes up and down dynamically, it requires manual intervention to scale KV
// nodes. Ideally it would automatically add and remove KV nodes as needed."
//
// The scaler watches fleet CPU utilization over a window. Sustained
// utilization above the high-water mark adds a node and rebalances replicas
// onto it; sustained utilization below the low-water mark (above the minimum
// fleet size) drains the least-loaded node's replicas and removes it.
package kvscaler

import (
	"fmt"
	"sync"
	"time"

	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/timeutil"
)

// Provisioner builds a new KV node with the given ID (the cloud-provider
// "add a VM" call).
type Provisioner func(id kvserver.NodeID) *kvserver.Node

const (
	// highWater and lowWater bound the target fleet utilization band.
	highWater = 0.70
	lowWater  = 0.25
	// minNodes is the smallest fleet (replication needs it).
	minNodes = 3
	// maxNodes caps growth.
	maxNodes = 32
	// window is the utilization averaging window.
	window = 30 * time.Second
	// cooldown is the minimum time between scaling actions.
	cooldown = 10 * time.Second
	// rebalanceMovesPerTick bounds data movement onto an added node.
	rebalanceMovesPerTick = 8
)

// Config configures a Scaler.
type Config struct {
	Cluster     *kvserver.Cluster
	Provisioner Provisioner
	Clock       timeutil.Clock
}

// Action describes what a Tick did.
type Action int

// Tick outcomes.
const (
	ActionNone Action = iota
	ActionAddNode
	ActionRemoveNode
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionAddNode:
		return "add-node"
	case ActionRemoveNode:
		return "remove-node"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Scaler drives KV fleet sizing.
type Scaler struct {
	cfg Config

	mu struct {
		sync.Mutex
		lastBusy   map[kvserver.NodeID]time.Duration
		lastAt     time.Time
		util       *metric.TimeSeries
		lastAction time.Time
		nextNodeID kvserver.NodeID
	}
}

// New returns a Scaler.
func New(cfg Config) (*Scaler, error) {
	if cfg.Cluster == nil || cfg.Provisioner == nil {
		return nil, fmt.Errorf("kvscaler: cluster and provisioner required")
	}
	if cfg.Clock == nil {
		cfg.Clock = timeutil.NewRealClock()
	}
	s := &Scaler{cfg: cfg}
	s.mu.lastBusy = make(map[kvserver.NodeID]time.Duration)
	s.mu.lastAt = cfg.Clock.Now()
	s.mu.util = metric.NewTimeSeries(2 * window)
	var maxID kvserver.NodeID
	for _, n := range cfg.Cluster.Nodes() {
		if n.ID() > maxID {
			maxID = n.ID()
		}
	}
	s.mu.nextNodeID = maxID + 1
	return s, nil
}

// Utilization returns the latest sampled fleet utilization (0..1).
func (s *Scaler) Utilization() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sample, ok := s.mu.util.Latest(); ok {
		return sample.Value
	}
	return 0
}

// sample records the fleet utilization since the previous call.
func (s *Scaler) sample() {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	dt := now.Sub(s.mu.lastAt).Seconds()
	if dt <= 0 {
		return
	}
	s.mu.lastAt = now
	var busyDelta time.Duration
	var capacity float64
	for _, n := range s.cfg.Cluster.Nodes() {
		busy := n.CPUBusy()
		if prev, ok := s.mu.lastBusy[n.ID()]; ok && busy > prev {
			busyDelta += busy - prev
		}
		s.mu.lastBusy[n.ID()] = busy
		capacity += float64(n.VCPUs())
	}
	if capacity > 0 {
		s.mu.util.Add(now, busyDelta.Seconds()/dt/capacity)
	}
}

// Tick samples utilization and performs at most one scaling action.
func (s *Scaler) Tick() (Action, error) {
	s.sample()
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	avg := s.mu.util.WindowAvg(now, window)
	inCooldown := now.Sub(s.mu.lastAction) < cooldown
	s.mu.Unlock()
	if inCooldown {
		return ActionNone, nil
	}

	nodes := s.cfg.Cluster.Nodes()
	switch {
	case avg > highWater && len(nodes) < maxNodes:
		s.mu.Lock()
		id := s.mu.nextNodeID
		s.mu.nextNodeID++
		s.mu.lastAction = now
		s.mu.Unlock()
		n := s.cfg.Provisioner(id)
		if err := s.cfg.Cluster.AddNode(n); err != nil {
			return ActionNone, err
		}
		// Shift data toward the new node.
		s.cfg.Cluster.RebalanceReplicas(rebalanceMovesPerTick)
		return ActionAddNode, nil

	case avg < lowWater && len(nodes) > minNodes:
		// Drain and remove the node with the fewest replicas.
		counts := s.cfg.Cluster.ReplicaCounts()
		victim := nodes[len(nodes)-1]
		for _, n := range nodes {
			if counts[n.ID()] < counts[victim.ID()] {
				victim = n
			}
		}
		if err := s.cfg.Cluster.DrainNodeReplicas(victim.ID()); err != nil {
			return ActionNone, err
		}
		if err := s.cfg.Cluster.RemoveNode(victim.ID()); err != nil {
			return ActionNone, err
		}
		s.mu.Lock()
		s.mu.lastAction = now
		delete(s.mu.lastBusy, victim.ID())
		s.mu.Unlock()
		return ActionRemoveNode, nil
	}
	// Opportunistic balance upkeep.
	s.cfg.Cluster.RebalanceReplicas(2)
	return ActionNone, nil
}
