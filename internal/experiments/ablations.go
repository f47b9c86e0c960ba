package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"crdbserverless/internal/admission"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/tenantcost"
	"crdbserverless/internal/timeutil"
)

// AblationFairnessResult compares tenant-fair admission against FIFO.
type AblationFairnessResult struct {
	FIFOLightP99 time.Duration
	FairLightP99 time.Duration
}

// AblationFIFOvsFair isolates the heap-of-heaps design of §5.1.2: a heavy
// tenant floods a CPU queue while a light tenant submits occasional work.
// Under FIFO (modeled by giving every request the same tenant ID, so
// fairness cannot distinguish them) the light tenant waits behind the whole
// backlog; under tenant-fair queueing it is served next.
func AblationFIFOvsFair() (*AblationFairnessResult, *Table, error) {
	// The slot-holding workers burn real wall time, so the real clock is
	// threaded explicitly rather than injected per-option.
	clock := timeutil.NewRealClock()
	run := func(fair bool) (time.Duration, error) {
		q := admission.NewCPUQueue(admission.CPUQueueOptions{InitialSlots: 2})
		ctx := context.Background()
		lightHist := metric.NewHistogram()
		var wg sync.WaitGroup
		stop := make(chan struct{})

		heavyTenant := keys.TenantID(100)
		lightTenant := keys.TenantID(200)
		if !fair {
			lightTenant = heavyTenant // FIFO: indistinguishable tenants
		}

		// Heavy tenant: 16 workers, each op holds a slot ~2ms. CreateTime is
		// set so same-tenant ordering is true FIFO (arrival order), not
		// arbitrary.
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					slot, err := q.Admit(ctx, admission.WorkInfo{
						Tenant: heavyTenant, CreateTime: clock.Now(),
					})
					if err != nil {
						return
					}
					clock.Sleep(2 * time.Millisecond)
					slot.Release(2 * time.Millisecond)
				}
			}()
		}
		// Light tenant: occasional short ops; measure wait+service. Under
		// FIFO each op waits behind the heavy tenant's whole arrival
		// backlog; under tenant-fair queueing it is served next.
		for i := 0; i < 30; i++ {
			start := clock.Now()
			slot, err := q.Admit(ctx, admission.WorkInfo{
				Tenant: lightTenant, CreateTime: clock.Now(),
			})
			if err != nil {
				return 0, err
			}
			clock.Sleep(200 * time.Microsecond)
			slot.Release(200 * time.Microsecond)
			lightHist.Record(clock.Since(start))
			clock.Sleep(3 * time.Millisecond)
		}
		close(stop)
		wg.Wait()
		return lightHist.P99(), nil
	}

	fifo, err := run(false)
	if err != nil {
		return nil, nil, err
	}
	fair, err := run(true)
	if err != nil {
		return nil, nil, err
	}
	res := &AblationFairnessResult{FIFOLightP99: fifo, FairLightP99: fair}
	table := &Table{
		Title:   "Ablation: FIFO vs tenant-fair admission (light tenant p99)",
		Columns: []string{"queueing", "light tenant p99"},
		Rows: [][]string{
			{"FIFO", fmtDur(fifo)},
			{"tenant-fair (heap of heaps)", fmtDur(fair)},
		},
	}
	return res, table, nil
}

// AblationTrickleResult compares trickle grants with stop/start behavior.
type AblationTrickleResult struct {
	TrickleMaxStall   time.Duration
	StopStartMaxStall time.Duration
	TrickleStddev     time.Duration
	StopStartStddev   time.Duration
}

// AblationTrickleGrants isolates §5.2.2's trickle grants: a node consuming
// at twice its quota either receives tokens/second trickles (smooth small
// delays per operation) or naive whole-bucket refills (run at full speed,
// then stall until the bucket refills). The trickle keeps the maximum
// per-operation stall and the delay variance far lower.
func AblationTrickleGrants() (*AblationTrickleResult, *Table) {
	const quotaVCPUs = 1.0 // 1000 tokens/s
	const opTokens = 100.0 // each op = 100ms of eCPU
	const ops = 200

	// Trickle: the real NodeBucket against the real server.
	mc := timeutil.NewManualClock(time.Unix(0, 0))
	srv := tenantcost.NewBucketServer(mc)
	srv.SetQuota(2, quotaVCPUs)
	nb := tenantcost.NewNodeBucket(srv, mc, 2, 1, nil)
	var trickleDelays []time.Duration
	for i := 0; i < ops; i++ {
		d := nb.Consume(opTokens)
		trickleDelays = append(trickleDelays, d)
		mc.Advance(d + 50*time.Millisecond) // offered at 2x quota
	}

	// Stop/start: run ops against a local bucket that only refills in full
	// bursts (the failure mode trickle grants remove).
	var stopStartDelays []time.Duration
	tokens := quotaVCPUs * tenantcost.TokensPerVCPUSecond * 10 // full burst
	var now time.Duration
	lastRefill := time.Duration(0)
	refillEvery := 10 * time.Second
	for i := 0; i < ops; i++ {
		var wait time.Duration
		if tokens < opTokens {
			// Stall until the next whole-bucket refill.
			next := lastRefill + refillEvery
			wait = next - now
			if wait < 0 {
				wait = 0
			}
			now = next
			lastRefill = next
			tokens = quotaVCPUs * tenantcost.TokensPerVCPUSecond * 10
		}
		tokens -= opTokens
		stopStartDelays = append(stopStartDelays, wait)
		now += 50 * time.Millisecond
	}

	maxOf := func(ds []time.Duration) time.Duration {
		var m time.Duration
		for _, d := range ds {
			if d > m {
				m = d
			}
		}
		return m
	}
	stddev := func(ds []time.Duration) time.Duration {
		var sum float64
		for _, d := range ds {
			sum += d.Seconds()
		}
		mean := sum / float64(len(ds))
		var varsum float64
		for _, d := range ds {
			varsum += (d.Seconds() - mean) * (d.Seconds() - mean)
		}
		return time.Duration(math.Sqrt(varsum/float64(len(ds))) * float64(time.Second))
	}

	res := &AblationTrickleResult{
		TrickleMaxStall:   maxOf(trickleDelays),
		StopStartMaxStall: maxOf(stopStartDelays),
		TrickleStddev:     stddev(trickleDelays),
		StopStartStddev:   stddev(stopStartDelays),
	}
	table := &Table{
		Title:   "Ablation: trickle grants vs whole-bucket refills (§5.2.2)",
		Columns: []string{"granting", "max per-op stall", "delay stddev"},
		Rows: [][]string{
			{"whole-bucket (stop/start)", fmtDur(res.StopStartMaxStall), fmtDur(res.StopStartStddev)},
			{"trickle grants", fmtDur(res.TrickleMaxStall), fmtDur(res.TrickleStddev)},
		},
	}
	return res, table
}

// AblationCostShapeResult compares the piecewise-linear per-feature model
// against a single-slope linear fit over the Fig 5 sweep.
type AblationCostShapeResult struct {
	PiecewiseMaxErrPct float64
	LinearMaxErrPct    float64
}

// AblationCostModelShape quantifies why the per-feature models are piecewise
// linear (§5.2.1, Fig 5): a single-slope fit cannot follow the batching
// efficiency curve and misprices low- or high-rate workloads.
func AblationCostModelShape() (*AblationCostShapeResult, *Table) {
	cost := kvserver.DefaultCostConfig()
	batch := oneWriteBatch()
	rates := []float64{10, 50, 100, 250, 500, 1000, 2000, 4000, 8000, 16000}
	var xs, ys []float64
	for _, rate := range rates {
		xs = append(xs, rate)
		ys = append(ys, cost.BatchCost(batch, nil, rate, false).Seconds()*rate)
	}
	pw, err := tenantcost.FitPiecewise(xs, ys, 6)
	if err != nil {
		panic(err)
	}
	lin := admission.FitLinearModel(xs, ys)

	res := &AblationCostShapeResult{}
	table := &Table{
		Title:   "Ablation: piecewise-linear vs single-slope cost model",
		Columns: []string{"batches/s", "truth cpu/s", "piecewise err", "linear err"},
	}
	for i, rate := range rates {
		truth := ys[i]
		pwErr := 100 * math.Abs(pw.Eval(rate)-truth) / truth
		linErr := 100 * math.Abs(lin.Predict(rate)-truth) / truth
		if pwErr > res.PiecewiseMaxErrPct {
			res.PiecewiseMaxErrPct = pwErr
		}
		if linErr > res.LinearMaxErrPct {
			res.LinearMaxErrPct = linErr
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%.4f", truth),
			fmt.Sprintf("%.1f%%", pwErr),
			fmt.Sprintf("%.1f%%", linErr),
		})
	}
	table.Rows = append(table.Rows, []string{"max", "",
		fmt.Sprintf("%.1f%%", res.PiecewiseMaxErrPct),
		fmt.Sprintf("%.1f%%", res.LinearMaxErrPct)})
	return res, table
}
