package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"crdbserverless"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/wire"
	wl "crdbserverless/internal/workload"
)

const (
	// numConns closed-loop connections on GOMAXPROCS(2): each waits for its
	// reply before sending again, as a SQL session does.
	numConns = 2
	// numSlices cuts the measured phase into equal op-count slices; connection
	// 0 runs srv.Tick between slices, outside any timed op.
	numSlices = 20
)

// phase is what the measured phase observed.
type phase struct {
	lat       [numConns][]time.Duration // per connection, in op order
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	counts    counters // deltas over the phase
	// overhead is the connections' time outside timed ops and ticks: op
	// generation, result checks and bookkeeping.
	overhead time.Duration
	heapWarm uint64 // live heap when the phase began
	heapEnd  uint64 // live heap when it ended
	// Observed by connection 0 at slice boundaries.
	warmPoolMin    int
	leaseTransfers int
}

// session is a deployment with the workload loaded and its connections open:
// everything setup_s pays for.
type session struct {
	srv   *crdbserverless.Serverless
	w     workload
	conns []*wire.Client
	work  []worker
}

// setUp builds a deployment, loads the workload and opens the connections.
func setUp(ctx context.Context, name string, seed int64, scale float64) (*session, time.Duration, error) {
	s := &session{}
	elapsed, err := timed(func() error {
		var err error
		if s.w, err = newWorkload(name, seed, scale); err != nil {
			return err
		}
		if s.srv, err = crdbserverless.New(crdbserverless.Options{}); err != nil {
			return err
		}
		if err = s.w.setup(ctx, s.srv); err != nil {
			return err
		}
		for c := 0; c < numConns; c++ {
			var db wl.DB
			if name != "cold_start" {
				conn, err := s.srv.Connect(tenantName, "")
				if err != nil {
					return err
				}
				s.conns = append(s.conns, conn)
				db = wireDB{conn}
			}
			s.work = append(s.work, s.w.worker(c, db))
		}
		return nil
	})
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return s, elapsed, nil
}

func (s *session) close() {
	for _, c := range s.conns {
		if err := c.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "closing connection:", err)
		}
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// snapshot is the program's public counts plus the harness's own.
func (s *session) snapshot() counters {
	c := snapshot(s.srv)
	c["client.payload_bytes"] = s.w.payloadBytes()
	c["client.retries"] = s.w.retries()
	return c
}

// leaseholders maps each range to the node holding its lease.
func leaseholders(c *kvserver.Cluster) map[kvserver.RangeID]kvserver.NodeID {
	out := map[kvserver.RangeID]kvserver.NodeID{}
	for _, r := range c.RangeLoads() {
		out[r.RangeID] = r.Leaseholder
	}
	return out
}

// runConns runs n ops on every connection at once and returns each
// connection's latencies. between, when non-nil, runs on connection 0 after
// each of its numSlices slices.
func (s *session) runConns(ctx context.Context, n int, ph *phase, between func() error) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var fatal error
	for c := range s.work {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, n)
			begin := realClock.Now()
			var accounted time.Duration
			defer func() {
				mu.Lock()
				ph.overhead += realClock.Since(begin) - accounted
				mu.Unlock()
			}()
			for slice := 0; slice < numSlices; slice++ {
				for i := slice * n / numSlices; i < (slice+1)*n/numSlices; i++ {
					d, aside, err := s.work[c].do(ctx)
					lat = append(lat, d)
					accounted += d + aside
					if err != nil {
						mu.Lock()
						ph.failed++
						if ph.firstErr == nil {
							ph.firstErr = err
						}
						mu.Unlock()
					}
				}
				if c == 0 && between != nil {
					d, err := timed(between)
					accounted += d
					if err != nil {
						mu.Lock()
						fatal = err
						mu.Unlock()
						return
					}
				}
			}
			ph.lat[c] = lat
		}(c)
	}
	wg.Wait()
	ph.attempted += n * len(s.work)
	return fatal
}

// measure warms up, then runs opsPerConn ops per connection and records what
// the client and the public counters saw.
func (s *session) measure(ctx context.Context, warmup, opsPerConn int) (*phase, error) {
	var warm phase
	if err := s.runConns(ctx, warmup, &warm, nil); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d ops failed, first: %w", warm.failed, warm.firstErr)
	}

	orch := s.srv.Orchestrator(region)
	ph := &phase{heapWarm: liveHeap(), warmPoolMin: orch.WarmCount()}
	leases := leaseholders(s.srv.Cluster())
	before := s.snapshot()
	start := realClock.Now()
	err := s.runConns(ctx, opsPerConn, ph, func() error {
		if err := s.srv.Tick(ctx); err != nil {
			return fmt.Errorf("tick: %w", err)
		}
		if n := orch.WarmCount(); n < ph.warmPoolMin {
			ph.warmPoolMin = n
		}
		now := leaseholders(s.srv.Cluster())
		for id, holder := range now {
			if was, ok := leases[id]; ok && was != holder {
				ph.leaseTransfers++
			}
		}
		leases = now
		return nil
	})
	ph.wall = realClock.Since(start)
	ph.counts = before.delta(s.snapshot())
	ph.heapEnd = liveHeap()
	return ph, err
}
