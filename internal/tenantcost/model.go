// Package tenantcost implements tenant CPU attribution and quota enforcement
// (§5.2 of the paper): the estimated-CPU model that prices KV API traffic,
// and the distributed token bucket — with trickle grants — that enforces
// per-tenant CPU limits across a tenant's SQL nodes.
package tenantcost

import (
	"fmt"
	"sort"

	"crdbserverless/internal/kvpb"
)

// ECPU is estimated CPU, measured in seconds of a reference vCPU. One token
// in the quota bucket is one millisecond of ECPU.
type ECPU float64

// Tokens converts ECPU seconds to bucket tokens (milliseconds).
func (e ECPU) Tokens() float64 { return float64(e) * 1000 }

// BatchFeatures are the six model inputs the paper trains per-feature models
// on (§5.2.1): read/write batch counts, per-batch request counts, and
// per-batch byte volumes.
type BatchFeatures struct {
	ReadBatches   int64
	ReadRequests  int64
	ReadBytes     int64
	WriteBatches  int64
	WriteRequests int64
	WriteBytes    int64
}

// Add accumulates other into f.
func (f *BatchFeatures) Add(other BatchFeatures) {
	f.ReadBatches += other.ReadBatches
	f.ReadRequests += other.ReadRequests
	f.ReadBytes += other.ReadBytes
	f.WriteBatches += other.WriteBatches
	f.WriteRequests += other.WriteRequests
	f.WriteBytes += other.WriteBytes
}

// FeaturesFromBatch extracts model inputs from one KV batch round trip.
func FeaturesFromBatch(req *kvpb.BatchRequest, resp *kvpb.BatchResponse) BatchFeatures {
	var f BatchFeatures
	var reads, writes int64
	for _, r := range req.Requests {
		if r.Method.IsWrite() {
			writes++
		} else {
			reads++
		}
	}
	if reads > 0 {
		f.ReadBatches = 1
		f.ReadRequests = reads
		if resp != nil {
			// Priced on what the KV node read, not on what it returned: a
			// pushed-down filter or aggregation returns less than it reads,
			// and must not make a tenant's reads cheaper against its quota
			// than the work they cost.
			f.ReadBytes = resp.ScannedBytes()
		}
	}
	if writes > 0 {
		f.WriteBatches = 1
		f.WriteRequests = writes
		f.WriteBytes = req.WriteBytes()
	}
	return f
}

// Point is one knot of a piecewise-linear curve.
type Point struct {
	X, Y float64
}

// PiecewiseLinear is a monotone piecewise-linear function defined by knots
// sorted by X. Evaluation interpolates between knots and extrapolates with
// the first/last segment's slope. The paper approximates each feature's
// non-linear CPU consumption curve (Fig 5) with such a function.
type PiecewiseLinear struct {
	Points []Point
}

// Eval returns the interpolated value at x.
func (p PiecewiseLinear) Eval(x float64) float64 {
	pts := p.Points
	switch len(pts) {
	case 0:
		return 0
	case 1:
		return pts[0].Y
	}
	if x <= pts[0].X {
		return extrapolate(pts[0], pts[1], x)
	}
	if x >= pts[len(pts)-1].X {
		return extrapolate(pts[len(pts)-2], pts[len(pts)-1], x)
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].X >= x }) // first knot >= x
	return extrapolate(pts[i-1], pts[i], x)
}

func extrapolate(a, b Point, x float64) float64 {
	if b.X == a.X {
		return a.Y
	}
	slope := (b.Y - a.Y) / (b.X - a.X)
	return a.Y + slope*(x-a.X)
}

// Validate checks that knots are sorted by strictly increasing X.
func (p PiecewiseLinear) Validate() error {
	for i := 1; i < len(p.Points); i++ {
		if p.Points[i].X <= p.Points[i-1].X {
			return fmt.Errorf("tenantcost: knot %d X %f not increasing", i, p.Points[i].X)
		}
	}
	return nil
}

// Model prices KV batches in ECPU. The total is the sum of six per-feature
// models, each mapping a feature magnitude to ECPU seconds (§5.2.1).
type Model struct {
	ReadBatch    PiecewiseLinear // per read batch
	ReadRequest  PiecewiseLinear // per request within read batches
	ReadByte     PiecewiseLinear // per byte returned
	WriteBatch   PiecewiseLinear // per write batch
	WriteRequest PiecewiseLinear // per request within write batches
	WriteByte    PiecewiseLinear // per byte written
}

// EstimateKV prices the accumulated features: the output of the larger model
// is the sum of the predictions of the smaller models.
func (m *Model) EstimateKV(f BatchFeatures) ECPU {
	var total float64
	total += m.ReadBatch.Eval(float64(f.ReadBatches))
	total += m.ReadRequest.Eval(float64(f.ReadRequests))
	total += m.ReadByte.Eval(float64(f.ReadBytes))
	total += m.WriteBatch.Eval(float64(f.WriteBatches))
	total += m.WriteRequest.Eval(float64(f.WriteRequests))
	total += m.WriteByte.Eval(float64(f.WriteBytes))
	if total < 0 {
		total = 0
	}
	return ECPU(total)
}

// DefaultModel returns the calibrated model shipped with the system. The
// constants reflect the paper's qualitative findings: batches carry a fixed
// overhead that amortizes at volume (the Fig 5 efficiency curve), requests
// within a batch are much cheaper than batches, and byte costs are linear
// with a small slope.
func DefaultModel() *Model {
	// Constants carry a ~10% uplift over the per-operation service costs:
	// calibration against the dedicated-cluster ground truth showed the raw
	// constants systematically underpricing (replication and WAL overheads
	// land outside the per-batch accounting), and the uplift centers the
	// estimate/actual distribution at 1.0 (§6.7).
	return &Model{
		// Cost per n read batches: ~44µs each at low volume, amortizing to
		// ~26µs at high volume.
		ReadBatch: PiecewiseLinear{Points: []Point{
			{X: 0, Y: 0}, {X: 100, Y: 100 * 44e-6}, {X: 1000, Y: 1000 * 35e-6}, {X: 10000, Y: 10000 * 26e-6},
		}},
		ReadRequest: PiecewiseLinear{Points: []Point{
			{X: 0, Y: 0}, {X: 10000, Y: 10000 * 4.4e-6},
		}},
		ReadByte: PiecewiseLinear{Points: []Point{
			{X: 0, Y: 0}, {X: 1 << 20, Y: (1 << 20) * 11e-9},
		}},
		// Write batches are more expensive (raft replication, WAL): ~88µs
		// each, amortizing to ~53µs — the non-linearity of Fig 5.
		WriteBatch: PiecewiseLinear{Points: []Point{
			{X: 0, Y: 0}, {X: 100, Y: 100 * 88e-6}, {X: 1000, Y: 1000 * 66e-6}, {X: 10000, Y: 10000 * 53e-6},
		}},
		WriteRequest: PiecewiseLinear{Points: []Point{
			{X: 0, Y: 0}, {X: 10000, Y: 10000 * 6.6e-6},
		}},
		WriteByte: PiecewiseLinear{Points: []Point{
			{X: 0, Y: 0}, {X: 1 << 20, Y: (1 << 20) * 33e-9},
		}},
	}
}

// FitPiecewise fits a piecewise-linear curve with the given number of knots
// to (xs, ys) samples, which is how per-feature models are trained from
// controlled tests that vary one feature at a time (§5.2.1). Knot X
// positions are sample quantiles; each knot's Y is the local mean.
func FitPiecewise(xs, ys []float64, knots int) (PiecewiseLinear, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return PiecewiseLinear{}, fmt.Errorf("tenantcost: %d xs with %d ys", len(xs), len(ys))
	}
	if knots < 2 {
		knots = 2
	}
	type sample struct{ x, y float64 }
	samples := make([]sample, len(xs))
	for i := range xs {
		samples[i] = sample{xs[i], ys[i]}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].x < samples[j].x })

	var pts []Point
	for k := 0; k < knots; k++ {
		// Quantile position of this knot.
		lo := k * len(samples) / knots
		hi := (k + 1) * len(samples) / knots
		if hi <= lo {
			continue
		}
		var sx, sy float64
		for _, s := range samples[lo:hi] {
			sx += s.x
			sy += s.y
		}
		n := float64(hi - lo)
		pt := Point{X: sx / n, Y: sy / n}
		if len(pts) > 0 && pt.X <= pts[len(pts)-1].X {
			continue // duplicate x cluster; skip
		}
		pts = append(pts, pt)
	}
	if len(pts) == 0 {
		pts = []Point{{X: samples[0].x, Y: samples[0].y}}
	}
	out := PiecewiseLinear{Points: pts}
	if err := out.Validate(); err != nil {
		return PiecewiseLinear{}, err
	}
	return out, nil
}
