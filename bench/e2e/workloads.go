package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"crdbserverless"
	"crdbserverless/internal/randutil"
	"crdbserverless/internal/sql"
	"crdbserverless/internal/wire"
	wl "crdbserverless/internal/workload"
)

// tenantName is the tenant the three single-tenant workloads run in.
const tenantName = "bench"

// region is the one region of the default assembly.
const region crdbserverless.Region = "us-central1"

// wireDB adapts a wire client to the workload generators' DB interface.
type wireDB struct{ c *wire.Client }

func (w wireDB) Execute(_ context.Context, q string, args ...sql.Datum) (*sql.Result, error) {
	res, err := w.c.Query(q, args...)
	if err != nil {
		return nil, err
	}
	return &sql.Result{Columns: res.Columns, Rows: res.Rows, RowsAffected: res.RowsAffected}, nil
}

// workload is one of the four traffic mixes.
type workload interface {
	sizing() sizing
	// setup creates tenants, schema and data on a fresh deployment.
	setup(ctx context.Context, srv *crdbserverless.Serverless) error
	// worker returns connection c's closed-loop op source. db is where its
	// statements go; cold_start opens its own connections and ignores it.
	worker(c int, db wl.DB) worker
	// check verifies end-of-run invariants.
	check(ctx context.Context, srv *crdbserverless.Serverless) error
	// probe is a cheap single-row read of the workload's data, for timing a
	// session's first statement.
	probe() (string, []sql.Datum)
	// payloadBytes is the user payload the harness has written so far, and
	// retries the aborted attempts its clients have retried.
	payloadBytes() float64
	retries() float64
}

// defaults is what most workloads answer: nothing to check at the end beyond
// the per-op checks, no client-side retries.
type defaults struct{}

func (defaults) check(context.Context, *crdbserverless.Serverless) error { return nil }
func (defaults) retries() float64                                        { return 0 }

// sizing fixes a workload's op counts, all at scale 1.
type sizing struct {
	// rate is ops per second per connection at seed speed on the reference
	// sandbox; times -seconds it is the measured phase's op count, so a run
	// is a fixed amount of work and its counts repeat.
	rate float64
	// warmup is the per-connection warm-up, traceOps the traced run's ops
	// per rung.
	warmup, traceOps int
	// setups is how many times a run sets up; setup_s is their median. One
	// where a set-up costs more than a few seconds.
	setups int
}

// worker issues one connection's ops.
type worker interface {
	// do runs the next op, verifies its result, and returns the latency the
	// client observed, plus any time it spent in the program aside from that
	// (cold_start's suspend).
	do(ctx context.Context) (lat, aside time.Duration, err error)
}

// timed runs fn and returns how long it took.
func timed(fn func() error) (time.Duration, error) {
	start := realClock.Now()
	err := fn()
	return realClock.Since(start), err
}

func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}

func newWorkload(name string, seed int64, scale float64) (workload, error) {
	switch name {
	case "point_read":
		return &pointRead{seed: seed, rows: scaled(40000, scale, 200)}, nil
	case "new_order":
		return &newOrder{seed: seed, items: scaled(1000, scale, 20), customers: scaled(30, scale, 3)}, nil
	case "scan_agg":
		return &scanAgg{seed: seed, rows: scaled(2000, scale, 50)}, nil
	case "cold_start":
		return &coldStart{tenants: 2 * scaled(200, scale, 2)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"point_read", "new_order", "scan_agg", "cold_start"}

// createTenant provisions a tenant and opens a connection to it through the
// proxy.
func createTenant(ctx context.Context, srv *crdbserverless.Serverless, name string) (*wire.Client, error) {
	if _, err := srv.CreateTenant(ctx, name, crdbserverless.TenantOptions{}); err != nil {
		return nil, err
	}
	return srv.Connect(name, "")
}

// ---- point_read ----

const (
	pointReadSQL  = "SELECT v FROM usertable WHERE k = $1"
	pointRowBytes = 256
	loadBatchRows = 100
)

type pointRead struct {
	defaults
	seed   int64
	rows   int
	loaded float64
}

func (w *pointRead) sizing() sizing {
	return sizing{rate: 2500, warmup: 500, traceOps: 2000, setups: 1}
}
func (w *pointRead) payloadBytes() float64 { return w.loaded }
func (w *pointRead) probe() (string, []sql.Datum) {
	return pointReadSQL, []sql.Datum{sql.DInt(0)}
}

// rowValue is row k's value: a pure function of (seed, k), so every read is
// checked without the harness keeping the table.
func rowValue(seed, k int64) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ (uint64(k)+1)*0xbf58476d1ce4e5b9 | 1
	var b [pointRowBytes]byte
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = alphabet[x%uint64(len(alphabet))]
	}
	return string(b[:])
}

func (w *pointRead) setup(ctx context.Context, srv *crdbserverless.Serverless) error {
	c, err := createTenant(ctx, srv, tenantName)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Query("CREATE TABLE usertable (k INT PRIMARY KEY, v STRING)"); err != nil {
		return err
	}
	for base := 0; base < w.rows; base += loadBatchRows {
		n := w.rows - base
		if n > loadBatchRows {
			n = loadBatchRows
		}
		var q strings.Builder
		q.WriteString("INSERT INTO usertable VALUES ")
		args := make([]sql.Datum, 0, 2*n)
		for i := 0; i < n; i++ {
			if i > 0 {
				q.WriteString(", ")
			}
			fmt.Fprintf(&q, "($%d, $%d)", 2*i+1, 2*i+2)
			k := int64(base + i)
			args = append(args, sql.DInt(k), sql.DString(rowValue(w.seed, k)))
		}
		if _, err := c.Query(q.String(), args...); err != nil {
			return err
		}
		w.loaded += float64(n * (8 + pointRowBytes))
	}
	return nil
}

func (w *pointRead) worker(c int, db wl.DB) worker {
	rng := randutil.NewRand(w.seed*7919 + int64(c) + 1)
	return &pointReader{
		w: w, db: db,
		zipf: randutil.NewZipf(rng, uint64(w.rows), 0.99),
		// A per-seed rotation scatters the hot ranks over the key space, so
		// the hottest rows do not share sstable blocks.
		shift: uint64(rng.Int63n(int64(w.rows))),
	}
}

type pointReader struct {
	w     *pointRead
	db    wl.DB
	zipf  *randutil.Zipf
	shift uint64
}

func (r *pointReader) nextKey() int64 {
	// 2654435761 is prime and larger than any table here, so rank → key is a
	// bijection.
	return int64((r.zipf.Next()*2654435761 + r.shift) % uint64(r.w.rows))
}

func (r *pointReader) do(ctx context.Context) (lat, _ time.Duration, err error) {
	k := r.nextKey()
	var res *sql.Result
	lat, err = timed(func() (err error) {
		res, err = r.db.Execute(ctx, pointReadSQL, sql.DInt(k))
		return err
	})
	if err == nil && (len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].S != rowValue(r.w.seed, k)) {
		err = fmt.Errorf("point_read: wrong value for k=%d", k)
	}
	return lat, 0, err
}

// ---- new_order ----

const maxTxnAttempts = 5

type newOrder struct {
	seed      int64
	items     int
	customers int
	gens      [numConns]*wl.TPCC
	committed atomic.Int64
	retried   atomic.Int64
	written   atomic.Int64 // payload bytes, estimated per statement
}

func (w *newOrder) sizing() sizing {
	return sizing{rate: 2500.0 / 30, warmup: 50, traceOps: 300, setups: 3}
}
func (w *newOrder) payloadBytes() float64 { return float64(w.written.Load()) }
func (w *newOrder) retries() float64      { return float64(w.retried.Load()) }
func (w *newOrder) probe() (string, []sql.Datum) {
	return "SELECT w_name FROM warehouse WHERE w_id = $1", []sql.Datum{sql.DInt(1)}
}

func (w *newOrder) generator(seed int64) *wl.TPCC {
	g := wl.NewTPCC(numConns, seed)
	g.DistrictsPerWH = 10
	g.CustomersPerDistrict = w.customers
	g.Items = w.items
	return g
}

func (w *newOrder) setup(ctx context.Context, srv *crdbserverless.Serverless) error {
	c, err := createTenant(ctx, srv, tenantName)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := w.generator(w.seed).Setup(ctx, observingDB{wireDB{c}, w.observe}); err != nil {
		return err
	}
	// One generator per connection, each pinned to its own warehouse: the
	// connections then never contend on a district row, and order IDs stay
	// unique because a generator numbers its own warehouse's orders.
	for c := range w.gens {
		w.gens[c] = w.generator(w.seed*7919 + int64(c) + 1)
		w.gens[c].PinnedWarehouse = c + 1
	}
	return nil
}

// observe adds up the argument bytes of INSERT and UPDATE statements: the
// user payload write amplification is measured against.
func (w *newOrder) observe(q string, args []sql.Datum) {
	if strings.HasPrefix(q, "INSERT") || strings.HasPrefix(q, "UPDATE") {
		var n int64
		for _, a := range args {
			n += 8 + int64(len(a.S))
		}
		w.written.Add(n)
	}
}

func (w *newOrder) worker(c int, db wl.DB) worker {
	return &orderWorker{w: w, gen: w.gens[c], db: observingDB{db, w.observe}}
}

type orderWorker struct {
	w   *newOrder
	gen *wl.TPCC
	db  wl.DB
}

// retryable reports an abort the client is expected to retry. Over the wire
// the typed KV errors arrive as text, so the text is what is matched.
func retryable(err error) bool {
	msg := err.Error()
	for _, s := range []string{"too old; retry at", "conflicting intent", "aborted", "not leaseholder", "outside range bounds"} {
		if strings.Contains(msg, s) {
			return true
		}
	}
	return false
}

// do runs one new-order transaction, retrying a retryable abort with a fresh
// transaction. The latency covers every attempt.
func (o *orderWorker) do(ctx context.Context) (lat, _ time.Duration, err error) {
	lat, err = timed(func() error {
		var err error
		for attempt := 0; attempt < maxTxnAttempts; attempt++ {
			if err = o.gen.NewOrder(ctx, o.db); err == nil {
				o.w.committed.Add(1)
				return nil
			}
			if !retryable(err) {
				return err
			}
			o.w.retried.Add(1)
		}
		return fmt.Errorf("new_order: %d attempts exhausted: %w", maxTxnAttempts, err)
	})
	return lat, 0, err
}

func queryInt(ctx context.Context, db wl.DB, q string) (int64, error) {
	res, err := db.Execute(ctx, q)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("%q: want one value, got %d rows", q, len(res.Rows))
	}
	return res.Rows[0][0].I, nil
}

// check: every committed transaction left exactly one order, and every order
// line took exactly one unit of stock.
func (w *newOrder) check(ctx context.Context, srv *crdbserverless.Serverless) error {
	c, err := srv.Connect(tenantName, "")
	if err != nil {
		return err
	}
	defer c.Close()
	db := wireDB{c}
	orders, err := queryInt(ctx, db, "SELECT COUNT(*) FROM orders")
	if err != nil {
		return err
	}
	lines, err := queryInt(ctx, db, "SELECT COUNT(*) FROM order_line")
	if err != nil {
		return err
	}
	stock, err := queryInt(ctx, db, "SELECT SUM(s_quantity) FROM stock")
	if err != nil {
		return err
	}
	if want := w.committed.Load(); orders != want {
		return fmt.Errorf("new_order: %d orders for %d committed transactions", orders, want)
	}
	if taken := int64(100*numConns*w.items) - stock; taken != lines {
		return fmt.Errorf("new_order: %d units of stock taken by %d order lines", taken, lines)
	}
	return nil
}

// ---- scan_agg ----

type scanAgg struct {
	defaults
	seed   int64
	rows   int
	gen    *wl.TPCH
	want   map[string]*q1Group
	loaded float64
}

// q1Group is one l_returnflag group of Q1, computed from the generated rows.
type q1Group struct {
	sumQty   int64
	sumPrice float64
	count    int64
}

func (w *scanAgg) sizing() sizing {
	return sizing{rate: 350.0 / 30, warmup: 5, traceOps: 60, setups: 3}
}
func (w *scanAgg) payloadBytes() float64 { return w.loaded }
func (w *scanAgg) probe() (string, []sql.Datum) {
	return "SELECT l_quantity FROM lineitem WHERE l_key = $1", []sql.Datum{sql.DInt(1)}
}

// observe watches the generator's lineitem rows go by and aggregates them the
// way Q1 will, so the query's answer is known without trusting the database.
func (w *scanAgg) observe(q string, args []sql.Datum) {
	if !strings.HasPrefix(q, "INSERT INTO lineitem") || len(args) != 6 {
		return
	}
	w.loaded += float64(5*8 + len(args[4].S))
	if args[5].I > 2400 {
		return
	}
	g := w.want[args[4].S]
	if g == nil {
		g = &q1Group{}
		w.want[args[4].S] = g
	}
	g.sumQty += args[2].I
	g.sumPrice += args[3].F
	g.count++
}

// observingDB shows every statement to observe before passing it on.
type observingDB struct {
	wl.DB
	observe func(q string, args []sql.Datum)
}

func (o observingDB) Execute(ctx context.Context, q string, args ...sql.Datum) (*sql.Result, error) {
	o.observe(q, args)
	return o.DB.Execute(ctx, q, args...)
}

func (w *scanAgg) setup(ctx context.Context, srv *crdbserverless.Serverless) error {
	c, err := createTenant(ctx, srv, tenantName)
	if err != nil {
		return err
	}
	defer c.Close()
	w.want = map[string]*q1Group{}
	w.gen = wl.NewTPCH(w.rows, w.seed)
	return w.gen.Setup(ctx, observingDB{wireDB{c}, w.observe})
}

func (w *scanAgg) worker(_ int, db wl.DB) worker {
	return &scanWorker{w: w, db: db}
}

type scanWorker struct {
	w  *scanAgg
	db wl.DB
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func (s *scanWorker) do(ctx context.Context) (lat, _ time.Duration, err error) {
	var res *sql.Result
	lat, err = timed(func() (err error) {
		res, err = s.w.gen.Q1(ctx, s.db)
		return err
	})
	if err != nil {
		return lat, 0, err
	}
	if len(res.Rows) != len(s.w.want) {
		return lat, 0, fmt.Errorf("scan_agg: Q1 returned %d groups, want %d", len(res.Rows), len(s.w.want))
	}
	for _, row := range res.Rows {
		g := s.w.want[row[0].S]
		if g == nil || len(row) != 5 || row[1].I != g.sumQty || !closeTo(row[2].F, g.sumPrice) ||
			!closeTo(row[3].F, float64(g.sumQty)/float64(g.count)) || row[4].I != g.count {
			return lat, 0, fmt.Errorf("scan_agg: Q1 group %q is %v, want %+v", row[0].S, row, g)
		}
	}
	return lat, 0, nil
}

// ---- cold_start ----

type coldStart struct {
	defaults
	tenants int
	srv     *crdbserverless.Serverless
}

func (w *coldStart) sizing() sizing        { return sizing{rate: 200, warmup: 20, traceOps: 300, setups: 3} }
func (w *coldStart) payloadBytes() float64 { return float64(w.tenants * 2 * 16) }
func (w *coldStart) probe() (string, []sql.Datum) {
	return "SELECT COUNT(*) FROM t", nil
}

func coldTenant(i int) string { return fmt.Sprintf("cold-%03d", i) }

func (w *coldStart) setup(ctx context.Context, srv *crdbserverless.Serverless) error {
	w.srv = srv
	for i := 0; i < w.tenants; i++ {
		c, err := createTenant(ctx, srv, coldTenant(i))
		if err != nil {
			return err
		}
		_, err = c.Query("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
		if err == nil {
			_, err = c.Query("INSERT INTO t VALUES (1, 10), (2, 20)")
		}
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = srv.Suspend(ctx, coldTenant(i))
		}
		if err != nil {
			return fmt.Errorf("cold_start: tenant %d: %w", i, err)
		}
	}
	return nil
}

func (w *coldStart) worker(c int, _ wl.DB) worker {
	return &coldWorker{w: w, next: c}
}

// coldWorker cycles through the tenants congruent to its connection number,
// so two connections never resume the same tenant.
type coldWorker struct {
	w    *coldStart
	next int
}

// do times what a client of a scaled-to-zero tenant waits for: connect (the
// proxy resumes the tenant from the warm pool), first query, close. The
// suspend that re-arms the tenant is the control plane's, not the client's,
// and is timed apart.
func (cw *coldWorker) do(ctx context.Context) (lat, aside time.Duration, err error) {
	name := coldTenant(cw.next)
	cw.next = (cw.next + numConns) % cw.w.tenants
	var n int64
	lat, err = timed(func() error {
		c, err := cw.w.srv.Connect(name, "")
		if err != nil {
			return err
		}
		n, err = queryInt(ctx, wireDB{c}, "SELECT COUNT(*) FROM t")
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err == nil && n != 2 {
		err = fmt.Errorf("cold_start: %s has %d rows, want 2", name, n)
	}
	aside, serr := timed(func() error { return cw.w.srv.Suspend(ctx, name) })
	return lat, aside, errors.Join(err, serr)
}
