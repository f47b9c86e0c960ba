package crdbserverless

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"crdbserverless/internal/timeutil"
)

// pointReadSetup makes a tenant with a usertable of rows rows, as the
// benchmark's point_read workload has, on a deployment running on clock (nil
// is the real clock), and returns an open client on it and each row's value.
func pointReadSetup(tb testing.TB, clock timeutil.Clock, rows int) (*Client, []Datum) {
	tb.Helper()
	s, err := New(Options{KVNodesPerRegion: 1, Clock: clock})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	ctx := context.Background()
	if _, err := s.CreateTenant(ctx, "reader", TenantOptions{Password: "pw"}); err != nil {
		tb.Fatal(err)
	}
	c, err := s.Connect("reader", "pw")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	if _, err := c.Query("CREATE TABLE usertable (k INT PRIMARY KEY, v STRING)"); err != nil {
		tb.Fatal(err)
	}
	values := make([]Datum, rows)
	for k := range values {
		values[k] = DString(fmt.Sprintf("%0256d", k))
		if _, err := c.Query("INSERT INTO usertable VALUES ($1, $2)", DInt(int64(k)), values[k]); err != nil {
			tb.Fatal(err)
		}
	}
	return c, values
}

const pointReadSQL = "SELECT v FROM usertable WHERE k = $1"

// pointRead runs one point SELECT of row k and checks that it returns want.
func pointRead(tb testing.TB, c *Client, k int, want Datum) {
	res, err := c.Query(pointReadSQL, DInt(int64(k)))
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || !res.Rows[0][0].Equal(want) {
		tb.Fatalf("point read of %d: %v", k, res.Rows)
	}
}

// warmPointRead makes a 10-row usertable, reads every row 30 times, and
// returns the point read the allocation tests measure. The deployment runs
// on a manual clock that never moves, so its KV upkeep and autoscaler loops
// make no allocation while the tests count.
func warmPointRead(t *testing.T) func() {
	c, values := pointReadSetup(t, timeutil.NewManualClock(time.Unix(0, 0)), 10)
	for i := 0; i < 300; i++ {
		pointRead(t, c, i%10, values[i%10])
	}
	return func() { pointRead(t, c, 7, values[7]) }
}

// TestPointReadWholePathAllocs pins the allocations of one point SELECT
// through every layer in one process: the client's wire codec, the proxy's
// relay, the SQL node's session loop, parse-free execution from the
// statement cache, the transaction, DistSender and the KV node's evaluation
// and MVCC read. testdata/allocsites.golden names the function that makes
// each one left.
func TestPointReadWholePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const want = 17
	got := testing.AllocsPerRun(200, warmPointRead(t))
	t.Logf("point SELECT through proxy and SQL node: %v allocations", got)
	if got > want {
		t.Fatalf("point SELECT through proxy and SQL node makes %v allocations, want at most %v", got, want)
	}
}

// BenchmarkPointReadWholePath is a point SELECT through the client, proxy,
// SQL node and KV node of one deployment, as the benchmark's point_read
// workload runs it (one connection, no think time).
func BenchmarkPointReadWholePath(b *testing.B) {
	c, values := pointReadSetup(b, nil, 100)
	for i := 0; i < 300; i++ {
		pointRead(b, c, i%100, values[i%100])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pointRead(b, c, i%100, values[i%100])
	}
}

// Tenant signals go through handles that the pods resolved when they bound
// their tenants, and each connection runs its statements in its own
// scratch. This drives both from several goroutines at once, under the
// race detector in CI: two connections read one tenant's table, another
// tenant is resumed, queried and suspended over and over (each resume binds
// a new pod, which resolves the tenant's handles again), and /debug/tenantz
// renders beside them.
func TestTenantHandlesAndScratchConcurrent(t *testing.T) {
	s, err := New(Options{KVNodesPerRegion: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for _, name := range []string{"reader", "churn"} {
		if _, err := s.CreateTenant(ctx, name, TenantOptions{Password: "pw"}); err != nil {
			t.Fatal(err)
		}
	}
	setup, err := s.Connect("reader", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Query("CREATE TABLE usertable (k INT PRIMARY KEY, v STRING)"); err != nil {
		t.Fatal(err)
	}
	values := make([]Datum, 8)
	for k := range values {
		values[k] = DString(fmt.Sprintf("row-%d", k))
		if _, err := setup.Query("INSERT INTO usertable VALUES ($1, $2)", DInt(int64(k)), values[k]); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	const reads, cycles = 200, 8
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := s.Connect("reader", "pw")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < reads; i++ {
				k := (i + w) % len(values)
				res, err := c.Query(pointReadSQL, DInt(int64(k)))
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 1 || !res.Rows[0][0].Equal(values[k]) {
					errs <- fmt.Errorf("worker %d read %d: %v", w, k, res.Rows)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < cycles; i++ {
			c, err := s.Connect("churn", "pw")
			if err != nil {
				errs <- err
				return
			}
			_, qerr := c.Query("SHOW TABLES")
			c.Close()
			if qerr != nil {
				errs <- qerr
				return
			}
			if err := s.Suspend(ctx, "churn"); err != nil {
				errs <- err
				return
			}
		}
	}()
	done := make(chan struct{})
	var pages sync.WaitGroup
	pages.Add(1)
	go func() {
		defer pages.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var b strings.Builder
			now := s.opts.Clock.Now()
			if err := s.Obs().WriteTenantz(&b, now, 5); err != nil {
				errs <- err
				return
			}
			if err := s.Obs().WriteTenant(&b, "reader", now); err != nil {
				errs <- err
				return
			}
			if err := s.Obs().WriteSLO(&b, now); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	pages.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var page strings.Builder
	if err := s.Obs().WriteTenant(&page, "reader", s.opts.Clock.Now()); err != nil {
		t.Fatal(err)
	}
	// The setup's CREATE and INSERTs and the workers' reads, all ok.
	if want := fmt.Sprintf("queries ok=%d error=0", 1+len(values)+2*reads); !strings.Contains(page.String(), want) {
		t.Fatalf("reader's page lacks %q:\n%s", want, page.String())
	}
}

// A connection's SQL node refills the rows of one scratch Result for every
// SELECT. A DISTINCT filters those rows in place, and the next SELECT on the
// connection must still write each row into an array of its own: were two
// slots to share one, the earlier row would show the later one's values.
// The leading duplicate is the case that once left a shared array behind.
func TestScratchRowsAfterDistinctOnConnection(t *testing.T) {
	s, err := New(Options{KVNodesPerRegion: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.CreateTenant(ctx, "reader", TenantOptions{Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	c, err := s.Connect("reader", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("CREATE TABLE t (k INT PRIMARY KEY, v STRING)"); err != nil {
		t.Fatal(err)
	}
	for k, v := range []string{"x", "x", "y", "z", "y"} {
		if _, err := c.Query("INSERT INTO t VALUES ($1, $2)", DInt(int64(k)), DString(v)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(q, want string) {
		t.Helper()
		res, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, r := range res.Rows {
			var parts []string
			for _, d := range r {
				parts = append(parts, d.String())
			}
			rows = append(rows, strings.Join(parts, ","))
		}
		if got := strings.Join(rows, " "); got != want {
			t.Fatalf("%s: rows %q, want %q", q, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		check("SELECT DISTINCT v FROM t", "x y z")
		check("SELECT v FROM t", "x x y z y")
		check("SELECT DISTINCT v FROM t", "x y z")
		check("SELECT DISTINCT v FROM t LIMIT 2", "x y")
		check("SELECT k, v FROM t", "0,x 1,x 2,y 3,z 4,y")
		check("SELECT v FROM t WHERE k = 3", "z")
	}
}

// newOrderSetup makes a tenant "orders" with new_order's schema at a small
// scale (one warehouse, two districts, three customers each, items items,
// and their stock) on a deployment running on clock (nil is the real clock),
// and returns the deployment and an open client on it.
func newOrderSetup(tb testing.TB, clock timeutil.Clock, items int) (*Serverless, *Client) {
	tb.Helper()
	s, err := New(Options{KVNodesPerRegion: 1, Clock: clock})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	if _, err := s.CreateTenant(context.Background(), "orders", TenantOptions{Password: "pw"}); err != nil {
		tb.Fatal(err)
	}
	c, err := s.Connect("orders", "pw")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	exec := func(q string, args ...Datum) {
		tb.Helper()
		if _, err := c.Query(q, args...); err != nil {
			tb.Fatalf("%s: %v", q, err)
		}
	}
	exec("CREATE TABLE district (d_w_id INT, d_id INT, d_next_o_id INT, d_ytd FLOAT, PRIMARY KEY (d_w_id, d_id))")
	exec("CREATE TABLE customer (c_w_id INT, c_d_id INT, c_id INT, c_name STRING, c_balance FLOAT, PRIMARY KEY (c_w_id, c_d_id, c_id))")
	exec("CREATE TABLE item (i_id INT PRIMARY KEY, i_name STRING, i_price FLOAT)")
	exec("CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT, PRIMARY KEY (s_w_id, s_i_id))")
	exec("CREATE TABLE orders (o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, o_ol_cnt INT, PRIMARY KEY (o_w_id, o_d_id, o_id))")
	exec("CREATE TABLE order_line (ol_w_id INT, ol_d_id INT, ol_o_id INT, ol_number INT, ol_i_id INT, ol_amount FLOAT, PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number))")
	for d := 1; d <= 2; d++ {
		exec("INSERT INTO district VALUES (1, $1, 1, 0.0)", DInt(int64(d)))
		for cust := 1; cust <= 3; cust++ {
			exec("INSERT INTO customer VALUES (1, $1, $2, $3, 0.0)", DInt(int64(d)), DInt(int64(cust)), DString(fmt.Sprintf("cust-%d", cust)))
		}
	}
	for i := 1; i <= items; i++ {
		exec("INSERT INTO item VALUES ($1, $2, $3)", DInt(int64(i)), DString(fmt.Sprintf("item-%d", i)), DFloat(float64(i)))
		exec("INSERT INTO stock VALUES (1, $1, 1000000)", DInt(int64(i)))
	}
	return s, c
}

// newOrder runs order o as the benchmark's new_order workload runs a
// two-line order: BEGIN, read the customer and the district, take the
// district's next order ID, insert the order, then per line read the item,
// take one unit of its stock and insert the line, and COMMIT. It checks each
// statement's rows. A failed statement ends the transaction, and its error
// is returned.
func newOrder(c *Client, o, items int) error {
	wh, d, cust := DInt(1), DInt(int64(1+o%2)), DInt(int64(1+o%3))
	oid := DInt(int64(o))
	var err error
	exec := func(q string, wantRows int, args ...Datum) {
		if err != nil {
			return
		}
		var res *Result
		if res, err = c.Query(q, args...); err != nil {
			err = fmt.Errorf("order %d: %s: %w", o, q, err)
		} else if len(res.Rows) != wantRows {
			err = fmt.Errorf("order %d: %s: %d rows, want %d", o, q, len(res.Rows), wantRows)
		}
	}
	exec("BEGIN", 0)
	exec("SELECT c_balance FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3", 1, wh, d, cust)
	exec("SELECT d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2", 1, wh, d)
	exec("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = $1 AND d_id = $2", 0, wh, d)
	exec("INSERT INTO orders VALUES ($1, $2, $3, $4, $5)", 0, wh, d, oid, cust, DInt(2))
	for ln := 1; ln <= 2; ln++ {
		item := DInt(int64(1 + (2*o+ln)%items))
		exec("SELECT i_price FROM item WHERE i_id = $1", 1, item)
		exec("UPDATE stock SET s_quantity = s_quantity - 1 WHERE s_w_id = $1 AND s_i_id = $2", 0, wh, item)
		exec("INSERT INTO order_line VALUES ($1, $2, $3, $4, $5, $6)", 0, wh, d, oid, DInt(int64(ln)), item, DFloat(float64(ln)))
	}
	exec("COMMIT", 0)
	return err
}

// A transaction's own reads do not push its writes once its range's
// timestamp cache folds them into the low-water mark: after 4 200 inserts,
// a transaction that reads 4 000 rows takes the cache past the 4 096 keys it
// keeps, and its update of a row it read commits in its one attempt.
func TestWriteAfterOwnFoldedReadsCommits(t *testing.T) {
	const rows, reads = 4200, 4000
	c, values := pointReadSetup(t, nil, rows)
	exec := func(q string, args ...Datum) {
		t.Helper()
		if _, err := c.Query(q, args...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	exec("BEGIN")
	for k := 0; k < reads; k++ {
		pointRead(t, c, k, values[k])
	}
	exec("UPDATE usertable SET v = 'updated' WHERE k = $1", DInt(reads/2))
	exec("COMMIT")
	pointRead(t, c, reads/2, DString("updated"))
}

// warmNewOrder sets up new_order's schema with 10 items, runs 300 orders,
// and returns the next order, the operation the allocation tests measure;
// each call runs a new one. The deployment runs on a manual clock, as
// warmPointRead's does.
func warmNewOrder(t *testing.T) func() {
	const items = 10
	_, c := newOrderSetup(t, timeutil.NewManualClock(time.Unix(0, 0)), items)
	o := 0
	for ; o < 300; o++ {
		if err := newOrder(c, o, items); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		if err := newOrder(c, o, items); err != nil {
			t.Fatal(err)
		}
		o++
	}
}

// TestNewOrderWholePathAllocs pins the allocations of one new-order
// transaction through every layer in one process: the client's wire codec,
// the proxy's relay, the SQL node's session loop, the transaction's write
// buffer and its one-phase commit, DistSender, the leaseholder's evaluation
// and MVCC lookups, and the command's application on each replica.
// testdata/allocsites.golden names the function that makes each one left.
func TestNewOrderWholePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const want = 120
	got := testing.AllocsPerRun(200, warmNewOrder(t))
	t.Logf("new-order transaction through proxy and SQL node: %v allocations", got)
	if got > want {
		t.Fatalf("new-order transaction through proxy and SQL node makes %v allocations, want at most %v", got, want)
	}
}

// BenchmarkNewOrderWholePath is a new-order transaction through the client,
// proxy, SQL node and KV node of one deployment, as the benchmark's
// new_order workload runs it (one connection, no think time). Any error
// fails it.
func BenchmarkNewOrderWholePath(b *testing.B) {
	const items = 100
	_, c := newOrderSetup(b, nil, items)
	order := func(o int) {
		if err := newOrder(c, o, items); err != nil {
			b.Fatal(err)
		}
	}
	o := 0
	for ; o < 300; o++ {
		order(o)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order(o)
		o++
	}
}

// Each connection runs its transactions in its session's slot and its
// statements in its own scratch, and the leaseholder's batches share pooled
// lookups. Two connections run new orders at once, under the race detector
// in CI: connection w takes the orders o = 2j+w, so it has district 1+w and
// items of its own (newOrder's item mapping with 4 items), and no order
// conflicts with another. Every order, line and unit of stock must add up.
func TestNewOrdersConcurrent(t *testing.T) {
	const items, perConn = 4, 20
	s, setup := newOrderSetup(t, nil, items)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := s.Connect("orders", "pw")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perConn; j++ {
				if err := newOrder(c, 2*j+w, items); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, check := range []struct {
		q    string
		want int64
	}{
		{"SELECT COUNT(*) FROM orders", 2 * perConn},
		{"SELECT COUNT(*) FROM order_line", 4 * perConn},
		{"SELECT SUM(s_quantity) FROM stock", items*1000000 - 4*perConn},
		{"SELECT SUM(d_next_o_id) FROM district", 2 + 2*perConn},
	} {
		res, err := setup.Query(check.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I != check.want {
			t.Fatalf("%s = %v, want %d", check.q, res.Rows, check.want)
		}
	}
}
