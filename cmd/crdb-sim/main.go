// Command crdb-sim starts a local Serverless deployment and offers an
// interactive SQL shell against it: a quick way to see cluster
// virtualization, scale-to-zero, and cold starts working. The deployment
// runs its own control loops, so a tenant left idle scales to zero on its
// own once the autoscaler's five-minute windows pass (paper §4.2.3), and its
// next connection is a cold start; \suspend does the same at once.
//
// Usage:
//
//	crdb-sim                      # shell on tenant "demo"
//	crdb-sim -tenant acme         # shell on a different tenant
//	crdb-sim -exec "SHOW TABLES"  # one-shot statements (';'-separated)
//	crdb-sim -debug-addr :8081    # serve /debug/tracez, /debug/metrics,
//	                              # /debug/tenantz, and /debug/slo
//	crdb-sim -exec "..." -debug-dump   # dump the debug surfaces before exiting
//
// Shell meta-commands:
//
//	\tenants        list virtual clusters
//	\suspend NAME   scale a tenant to zero
//	\pods           show SQL pods per tenant
//	\tracez         dump request traces (per-op percentiles + recent trees)
//	\metrics        dump the metric registries in exposition format
//	\tenantz [T]    per-tenant top-k tables, or one tenant's drill-down
//	\slo            per-tenant SLO objectives and burn rates
//	\q              quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"crdbserverless"
	"crdbserverless/internal/wire"
)

func main() {
	var (
		tenant    = flag.String("tenant", "demo", "tenant (virtual cluster) to connect to")
		exec      = flag.String("exec", "", "run ';'-separated statements and exit")
		traceSeed = flag.Int64("trace-seed", 1, "seed for trace/span IDs (same seed + same workload => identical traces)")
		debugAddr = flag.String("debug-addr", "", "serve the /debug surfaces on this address")
		debugDump = flag.Bool("debug-dump", false, "print the /debug surfaces before exiting")
	)
	flag.Parse()

	srv, err := crdbserverless.New(crdbserverless.Options{TraceSeed: *traceSeed})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	debug := srv.DebugHandler()
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, debug.HTTPHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "crdb-sim: debug server:", err)
			}
		}()
		fmt.Printf("crdb-sim: debug surfaces at http://%s/debug/{tracez,metrics,tenantz,slo}\n", *debugAddr)
	}
	ctx := context.Background()
	if _, err := srv.CreateTenant(ctx, *tenant, crdbserverless.TenantOptions{}); err != nil {
		fatal(err)
	}
	conn, err := srv.Connect(*tenant, "")
	if err != nil {
		fatal(err)
	}
	defer conn.Close()

	if *exec != "" {
		for _, stmt := range strings.Split(*exec, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			if err := runStatement(conn, stmt); err != nil {
				fatal(err)
			}
		}
		if *debugDump {
			// The connection's root span finishes asynchronously when the
			// proxy tears the session down; close and wait for it to land
			// in the recorder so the dump includes the full trace tree.
			conn.Close()
			for i := 0; i < 400 && len(srv.Tracer().Recorder().RecentRoots()) == 0; i++ {
				//lint:allow directtime CLI waits on wall time for the proxy's async teardown
				time.Sleep(5 * time.Millisecond)
			}
			if err := debug.WriteTracez(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
			if err := debug.WriteMetrics(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
			if err := debug.WriteTenantz(os.Stdout, "", 0); err != nil {
				fatal(err)
			}
			fmt.Println()
			if err := debug.WriteSLO(os.Stdout); err != nil {
				fatal(err)
			}
		}
		return
	}

	fmt.Printf("crdb-sim: connected to virtual cluster %q (type \\q to quit)\n", *tenant)
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("sql> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
		case line == `\q`:
			return
		case line == `\tenants`:
			// A tenant is suspended in a region where it runs no pods.
			for _, t := range srv.Registry().List() {
				fmt.Printf("  %-16s id=%d", t.Name, t.ID)
				if t.Dropped {
					fmt.Print(" dropped")
				}
				for _, r := range t.Regions {
					fmt.Printf(" %s:%d pod(s)", r, len(srv.Orchestrator(r).PodsForTenant(t.Name)))
				}
				fmt.Println()
			}
		case line == `\pods`:
			for _, t := range srv.Registry().List() {
				pods := srv.Orchestrator("us-central1").PodsForTenant(t.Name)
				fmt.Printf("  %-16s %d pod(s)\n", t.Name, len(pods))
			}
		case line == `\tracez`:
			if err := debug.WriteTracez(os.Stdout); err != nil {
				fmt.Println("error:", err)
			}
		case line == `\metrics`:
			if err := debug.WriteMetrics(os.Stdout); err != nil {
				fmt.Println("error:", err)
			}
		case line == `\tenantz` || strings.HasPrefix(line, `\tenantz `):
			name := strings.TrimSpace(strings.TrimPrefix(line, `\tenantz`))
			if err := debug.WriteTenantz(os.Stdout, name, 0); err != nil {
				fmt.Println("error:", err)
			}
		case line == `\slo`:
			if err := debug.WriteSLO(os.Stdout); err != nil {
				fmt.Println("error:", err)
			}
		case strings.HasPrefix(line, `\suspend `):
			name := strings.TrimSpace(strings.TrimPrefix(line, `\suspend`))
			if err := srv.Suspend(ctx, name); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("%s suspended (scaled to zero)\n", name)
			}
		default:
			if err := runStatement(conn, line); err != nil {
				fmt.Println("error:", err)
				// A dropped backend (e.g. after suspend) needs a reconnect —
				// which is itself a cold start.
				if c2, cerr := srv.Connect(*tenant, ""); cerr == nil {
					conn.Close()
					conn = c2
					fmt.Println("(reconnected — cold start)")
				}
			}
		}
		fmt.Print("sql> ")
	}
}

func runStatement(conn *crdbserverless.Client, stmt string) error {
	res, err := conn.Query(stmt)
	if err != nil {
		return err
	}
	printResult(res)
	return nil
}

func printResult(res *wire.Result) {
	if len(res.Columns) == 0 {
		fmt.Printf("OK (%d row(s) affected)\n", res.RowsAffected)
		return
	}
	fmt.Println(strings.Join(res.Columns, " | "))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, d := range row {
			parts[i] = d.String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("(%d row(s))\n", len(res.Rows))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crdb-sim:", err)
	os.Exit(1)
}
