package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"crdbserverless"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/timeutil"
)

// Fig9Result summarizes throughput and latency across a rolling upgrade.
type Fig9Result struct {
	// Phases: before, during, after the rolling upgrade.
	Before, During, After metric.Summary
	QueriesBefore         int64
	QueriesDuring         int64
	QueriesAfter          int64
	Migrations            int64
	Errors                int64
}

// Fig9Options size the experiment.
type Fig9Options struct {
	Connections int           // default 9
	Phase       time.Duration // default 700ms per phase
}

// fig9SQLNodes is the number of SQL pods the upgrade rolls through.
const fig9SQLNodes = 3

func (o *Fig9Options) defaults() {
	if o.Connections == 0 {
		o.Connections = 9
	}
	if o.Phase == 0 {
		o.Phase = 700 * time.Millisecond
	}
}

// Fig9 reproduces §6.4: long-lived connections run a steady point-query
// workload through the proxy while every SQL node is replaced one at a time
// (a rolling upgrade — the scenario that forces every connection to
// migrate). Expected shape: no errors, zero transaction aborts, and no
// visible impact on throughput or latency during the upgrade.
func Fig9(opts Fig9Options) (*Fig9Result, *Table, error) {
	opts.defaults()
	ctx := context.Background()
	srv, err := crdbserverless.New(crdbserverless.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	clock := timeutil.NewRealClock()
	orch := srv.Orchestrator("us-central1")
	p := srv.Proxy("us-central1")

	tenant, err := srv.CreateTenant(ctx, "prod", crdbserverless.TenantOptions{})
	if err != nil {
		return nil, nil, err
	}
	if _, err := orch.ScaleTenant(ctx, tenant, fig9SQLNodes); err != nil {
		return nil, nil, err
	}

	// Seed the schema through the proxy.
	seed, err := srv.Connect("prod", "")
	if err != nil {
		return nil, nil, err
	}
	if _, err := seed.Query("CREATE TABLE t (a INT PRIMARY KEY, b INT)"); err != nil {
		return nil, nil, err
	}
	for i := 0; i < 20; i++ {
		if _, err := seed.Query(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i)); err != nil {
			return nil, nil, err
		}
	}
	seed.Close()

	res := &Fig9Result{}
	var phase atomic.Int32 // 0 before, 1 during, 2 after
	hists := [3]*metric.Histogram{metric.NewHistogram(), metric.NewHistogram(), metric.NewHistogram()}
	var counts [3]int64
	var countsMu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < opts.Connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := srv.Connect("prod", "")
			if err != nil {
				atomic.AddInt64(&res.Errors, 1)
				return
			}
			defer conn.Close()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				ph := phase.Load()
				start := clock.Now()
				_, qerr := conn.Query(fmt.Sprintf("SELECT b FROM t WHERE a = %d", i%20))
				if qerr != nil {
					atomic.AddInt64(&res.Errors, 1)
					return
				}
				hists[ph].Record(clock.Since(start))
				countsMu.Lock()
				counts[ph]++
				countsMu.Unlock()
				i++
				clock.Sleep(2 * time.Millisecond)
			}
		}(c)
	}

	clock.Sleep(opts.Phase)
	phase.Store(1)

	// Rolling upgrade: replace each SQL node with a fresh one, migrating
	// its connections.
	pods := orch.PodsForTenant("prod")
	for _, old := range pods {
		// Bring up the replacement first.
		if _, err := orch.AssignPod(ctx, tenant); err != nil {
			return nil, nil, err
		}
		// Drain the old node and migrate its connections to the newest pod.
		candidates := orch.PodsForTenant("prod")
		newest := candidates[len(candidates)-1]
		old.Node.Drain(false)
		for tries := 0; tries < 100; tries++ {
			if p.RequestMigrations(old.Node.Addr(), newest.Node.Addr(), math.MaxInt) == 0 &&
				old.Node.ConnCount() == 0 {
				break
			}
			clock.Sleep(10 * time.Millisecond)
		}
		orch.Tick() // reap the drained node
	}

	phase.Store(2)
	clock.Sleep(opts.Phase)
	close(stop)
	wg.Wait()

	res.Before = hists[0].Snapshot()
	res.During = hists[1].Snapshot()
	res.After = hists[2].Snapshot()
	res.QueriesBefore, res.QueriesDuring, res.QueriesAfter = counts[0], counts[1], counts[2]
	res.Migrations = p.Migrations()

	table := &Table{
		Title:   "Fig 9: rolling upgrade with connection migration (§6.4)",
		Columns: []string{"phase", "queries", "p50", "p99"},
	}
	table.Rows = append(table.Rows,
		[]string{"before", fmt.Sprintf("%d", res.QueriesBefore), fmtDur(res.Before.P50), fmtDur(res.Before.P99)},
		[]string{"during upgrade", fmt.Sprintf("%d", res.QueriesDuring), fmtDur(res.During.P50), fmtDur(res.During.P99)},
		[]string{"after", fmt.Sprintf("%d", res.QueriesAfter), fmtDur(res.After.P50), fmtDur(res.After.P99)},
		[]string{"migrations", fmt.Sprintf("%d", res.Migrations), "", ""},
		[]string{"errors", fmt.Sprintf("%d", res.Errors), "", ""},
	)
	return res, table, nil
}
