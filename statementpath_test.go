package crdbserverless

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// pointReadSetup makes a tenant with a usertable of rows rows, as the
// benchmark's point_read workload has, and returns an open client on it and
// each row's value.
func pointReadSetup(tb testing.TB, rows int) (*Client, []Datum) {
	tb.Helper()
	s, err := New(Options{KVNodesPerRegion: 1})
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

// TestPointReadWholePathAllocs pins the allocations of one point SELECT
// through every layer in one process: the client's wire codec, the proxy's
// relay, the SQL node's session loop, parse-free execution from the
// statement cache, the transaction, DistSender and the KV node's evaluation
// and MVCC read. DESIGN.md §8's "Allocation budget of a point read" names
// each one left.
func TestPointReadWholePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	c, values := pointReadSetup(t, 10)
	for i := 0; i < 300; i++ {
		pointRead(t, c, i%10, values[i%10])
	}
	const want = 20
	got := testing.AllocsPerRun(200, func() { pointRead(t, c, 7, values[7]) })
	t.Logf("point SELECT through proxy and SQL node: %v allocations", got)
	if got > want {
		t.Fatalf("point SELECT through proxy and SQL node makes %v allocations, want at most %v", got, want)
	}
}

// BenchmarkPointReadWholePath is a point SELECT through the client, proxy,
// SQL node and KV node of one deployment, as the benchmark's point_read
// workload runs it (one connection, no think time).
func BenchmarkPointReadWholePath(b *testing.B) {
	c, values := pointReadSetup(b, 100)
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
