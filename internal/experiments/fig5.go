package experiments

import (
	"fmt"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/tenantcost"
)

// Fig5Result is one point of the write-batch efficiency curve.
type Fig5Result struct {
	BatchesPerSec   float64
	GroundTruthPerB time.Duration // CPU per batch at this rate (ground truth)
	BatchesPerVCPUs float64       // batches one vCPU-second processes
	ModelErrPercent float64
}

// Fig5 reproduces the Fig 5 methodology: controlled tests vary only the
// write-batch rate, the per-batch CPU consumption is measured, and a
// piecewise-linear model is fit to the resulting non-linear curve (§5.2.1).
func Fig5() ([]Fig5Result, *Table) {
	cost := kvserver.DefaultCostConfig()

	// "Run a test that varies only the number of write batches per second":
	// the ground truth per-batch CPU at each rate, from the amortization
	// curve the cost model implements.
	rates := []float64{10, 50, 100, 250, 500, 1000, 2000, 4000, 8000, 16000}
	batch := oneWriteBatch()

	var xs, ys []float64
	for _, rate := range rates {
		perBatch := cost.BatchCost(batch, nil, rate, false)
		// Training samples: cumulative cost of `rate` batches at this rate.
		xs = append(xs, rate)
		ys = append(ys, perBatch.Seconds()*rate)
	}
	fit, err := tenantcost.FitPiecewise(xs, ys, 6)
	if err != nil {
		panic(err) // static inputs; cannot fail
	}

	var out []Fig5Result
	table := &Table{
		Title:   "Fig 5: write batches per second determines CPU usage",
		Columns: []string{"batches/s", "cpu/batch (truth)", "cpu/batch (model)", "batches per vCPU", "model err"},
	}
	for _, rate := range rates {
		truth := cost.BatchCost(batch, nil, rate, false)
		modelTotal := fit.Eval(rate)
		modelPer := time.Duration(modelTotal / rate * float64(time.Second))
		errPct := 100 * (modelPer.Seconds() - truth.Seconds()) / truth.Seconds()
		r := Fig5Result{
			BatchesPerSec:   rate,
			GroundTruthPerB: truth,
			BatchesPerVCPUs: 1 / truth.Seconds(),
			ModelErrPercent: errPct,
		}
		out = append(out, r)
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.0f", rate),
			fmtDur(truth),
			fmtDur(modelPer),
			fmt.Sprintf("%.0f", r.BatchesPerVCPUs),
			fmt.Sprintf("%+.1f%%", errPct),
		})
	}
	return out, table
}

// oneWriteBatch is the fixed-shape batch the sweep holds constant.
func oneWriteBatch() *kvpb.BatchRequest {
	return &kvpb.BatchRequest{Requests: []kvpb.Request{
		{Method: kvpb.Put, Key: keys.Key("k-000000"), Value: make([]byte, 64)},
	}}
}
