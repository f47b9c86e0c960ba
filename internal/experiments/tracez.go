package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"crdbserverless"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
)

// TracezResult is the observability demo's digest of the trace surface.
type TracezResult struct {
	// Roots is the number of finished root traces the recorder retained.
	Roots int
	// DeepestChain is the longest parent-child chain seen in any trace
	// (the full point-read path is proxy.conn -> proxy.exchange ->
	// sqlnode.query -> sql.exec -> txn.run -> dist.send -> kv.eval).
	DeepestChain int
	// AdmissionWaits counts kv.eval spans carrying the admission.wait
	// attribute; AdmissionWaitMax is the largest recorded wait.
	AdmissionWaits   int
	AdmissionWaitMax time.Duration
	// Tracez and Metrics are the rendered /debug/tracez and /debug/metrics
	// surfaces for the run.
	Tracez  string
	Metrics string
}

// TracezOptions size the observability demo.
type TracezOptions struct {
	Queries int
}

// tracezSeed seeds the demo's tracer.
const tracezSeed = 20250805

// Tracez runs a traced point-read workload through the full serving path —
// routing proxy, SQL node, transaction coordinator, DistSender, KV command
// evaluation under admission control — then reports what the tracing
// subsystem observed: trace count and depth, the admission-queue waits
// recorded on kv.eval spans, and the rendered debug surfaces.
func Tracez(opts TracezOptions) (*TracezResult, *Table, error) {
	if opts.Queries <= 0 {
		opts.Queries = 25
	}
	ctx := context.Background()
	srv, err := crdbserverless.New(crdbserverless.Options{TraceSeed: tracezSeed})
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	clock := timeutil.NewRealClock()

	if _, err := srv.CreateTenant(ctx, "obs", crdbserverless.TenantOptions{}); err != nil {
		return nil, nil, err
	}
	conn, err := srv.Connect("obs", "")
	if err != nil {
		return nil, nil, err
	}
	if _, err := conn.Query("CREATE TABLE t (a INT PRIMARY KEY, b INT)"); err != nil {
		conn.Close()
		return nil, nil, err
	}
	for i := 0; i < opts.Queries; i++ {
		if _, err := conn.Query(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i*i)); err != nil {
			conn.Close()
			return nil, nil, err
		}
		if _, err := conn.Query(fmt.Sprintf("SELECT b FROM t WHERE a = %d", i)); err != nil {
			conn.Close()
			return nil, nil, err
		}
	}
	conn.Close()

	// The connection's root span finishes asynchronously when the proxy
	// tears the session down; wait for it to land in the recorder.
	var roots []*trace.Span
	deadline := clock.Now().Add(2 * time.Second)
	for {
		roots = srv.Tracer().Recorder().RecentRoots()
		if hasOp(roots, "proxy.conn") || !clock.Now().Before(deadline) {
			break
		}
		clock.Sleep(5 * time.Millisecond)
	}
	if !hasOp(roots, "proxy.conn") {
		return nil, nil, fmt.Errorf("tracez: no proxy.conn root trace recorded (have %d roots)", len(roots))
	}

	res := &TracezResult{Roots: len(roots)}
	var walk func(s *trace.Span, depth int)
	walk = func(s *trace.Span, depth int) {
		if depth > res.DeepestChain {
			res.DeepestChain = depth
		}
		if s.Op() == "kv.eval" {
			if v, ok := s.Attr("admission.wait"); ok {
				if d, ok := v.(time.Duration); ok {
					res.AdmissionWaits++
					if d > res.AdmissionWaitMax {
						res.AdmissionWaitMax = d
					}
				}
			}
		}
		for _, c := range s.Children() {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 1)
	}

	h := srv.DebugHandler()
	var tz, mx strings.Builder
	if err := h.WriteTracez(&tz); err != nil {
		return nil, nil, err
	}
	if err := h.WriteMetrics(&mx); err != nil {
		return nil, nil, err
	}
	res.Tracez = tz.String()
	res.Metrics = mx.String()

	table := &Table{
		Title:   "Observability: end-to-end request traces (point reads under admission control)",
		Columns: []string{"measure", "value"},
		Rows: [][]string{
			{"root traces recorded", fmt.Sprintf("%d", res.Roots)},
			{"deepest span chain", fmt.Sprintf("%d", res.DeepestChain)},
			{"kv.eval spans with admission.wait", fmt.Sprintf("%d", res.AdmissionWaits)},
			{"max admission-queue wait", fmtDur(res.AdmissionWaitMax)},
		},
	}
	return res, table, nil
}

func hasOp(roots []*trace.Span, op string) bool {
	for _, r := range roots {
		if r.Op() == op {
			return true
		}
	}
	return false
}
