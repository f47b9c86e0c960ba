package kvserver

import (
	"time"

	"crdbserverless/internal/kvpb"
)

// CostConfig is the ground-truth CPU cost of serving KV work on a node. The
// executor charges these durations as service time, making CPU the physical
// bottleneck the experiments exercise. The estimated-CPU model of §5.2.1 is
// trained against (and evaluated against) this ground truth, mirroring how
// the paper trains its model against measured CPU on dedicated clusters.
type CostConfig struct {
	// Per-batch overheads (request parsing, raft proposal, response
	// assembly). Writes cost more: WAL append and replication.
	ReadBatchOverhead  time.Duration
	WriteBatchOverhead time.Duration
	// Per-request costs within a batch.
	ReadRequestCost  time.Duration
	WriteRequestCost time.Duration
	// Per-byte costs for payloads.
	ReadByteCost  time.Duration // per byte returned
	WriteByteCost time.Duration // per byte written
	// MarshalByteCost is charged per response byte when rows cross a
	// process boundary to a separate SQL server — the serialization tax
	// that makes full-scan aggregations 2.3x more expensive in Serverless
	// deployments (§6.1.2). Colocated (traditional) execution skips it.
	MarshalByteCost time.Duration
	// BatchAmortization is the maximum fractional discount on per-batch
	// overhead at high batch rates — the Fig 5 non-linearity: nodes
	// processing more batches/sec use CPU more efficiently.
	BatchAmortization float64
	// AmortizationRate is the batches/sec at which half the maximum
	// discount applies.
	AmortizationRate float64
}

// DefaultCostConfig returns the calibration used across the experiments.
func DefaultCostConfig() CostConfig {
	return CostConfig{
		ReadBatchOverhead:  40 * time.Microsecond,
		WriteBatchOverhead: 80 * time.Microsecond,
		ReadRequestCost:    4 * time.Microsecond,
		WriteRequestCost:   6 * time.Microsecond,
		ReadByteCost:       10 * time.Nanosecond,
		WriteByteCost:      30 * time.Nanosecond,
		MarshalByteCost:    15 * time.Nanosecond,
		BatchAmortization:  0.4,
		AmortizationRate:   2000,
	}
}

// Scaled returns c with every service cost multiplied by f, leaving the
// amortization curve as it is.
func (c CostConfig) Scaled(f float64) CostConfig {
	for _, d := range []*time.Duration{
		&c.ReadBatchOverhead, &c.WriteBatchOverhead, &c.ReadRequestCost, &c.WriteRequestCost,
		&c.ReadByteCost, &c.WriteByteCost, &c.MarshalByteCost,
	} {
		*d = time.Duration(float64(*d) * f)
	}
	return c
}

// amortizationFactor returns the multiplier applied to per-batch overhead at
// the given recent batch rate: 1.0 at rate 0, falling toward
// 1-BatchAmortization as the rate grows (a smooth saturating curve).
func (c CostConfig) amortizationFactor(batchesPerSec float64) float64 {
	if batchesPerSec <= 0 || c.BatchAmortization <= 0 || c.AmortizationRate <= 0 {
		return 1
	}
	frac := batchesPerSec / (batchesPerSec + c.AmortizationRate)
	return 1 - c.BatchAmortization*frac
}

// BatchCost returns the ground-truth CPU cost of one batch round trip.
// batchesPerSec is the node's recent batch arrival rate (for the Fig 5
// amortization); remote reports whether the response crosses a process
// boundary to a separate SQL server.
func (c CostConfig) BatchCost(req *kvpb.BatchRequest, resp *kvpb.BatchResponse, batchesPerSec float64, remote bool) time.Duration {
	amort := c.amortizationFactor(batchesPerSec)
	var cost time.Duration
	var reads, writes int64
	for _, r := range req.Requests {
		if r.Method.IsWrite() {
			writes++
		} else {
			reads++
		}
	}
	if reads > 0 {
		cost += time.Duration(float64(c.ReadBatchOverhead) * amort)
		cost += time.Duration(reads) * c.ReadRequestCost
	}
	if writes > 0 {
		cost += time.Duration(float64(c.WriteBatchOverhead) * amort)
		cost += time.Duration(writes) * c.WriteRequestCost
		cost += time.Duration(req.WriteBytes()) * c.WriteByteCost
	}
	if resp != nil {
		// The scan work is charged on bytes read, which exceeds bytes
		// returned when a pushed-down filter or aggregation folded rows
		// away; marshaling is charged only on what actually crosses the
		// process boundary.
		cost += time.Duration(resp.ScannedBytes()) * c.ReadByteCost
		if remote {
			cost += time.Duration(resp.ReadBytes()) * c.MarshalByteCost
		}
	}
	return cost
}
