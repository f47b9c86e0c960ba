package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The harness's metric lists and BENCHMARK.json are two copies of one
// contract: names, units, bounds, workloads.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the harness has %q", i, w.Name, workloadNames[i])
		}
	}
	compare := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Bound != want[i].bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, m, want[i])
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEndMetrics)
	compare("per_layer", file.PerLayer, perLayerMetrics)
}

// smokeOptions is every workload's -scale 0.01 run: hundreds of ops, not
// hundreds of thousands.
func smokeOptions(workload string, seed int64) options {
	return options{workload: workload, seed: seed, seconds: 15, scale: 0.01}
}

// Every workload runs end to end, traced run included, verifies its answers,
// and reports every metric of the contract.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			opts := smokeOptions(name, 1)
			opts.trace = true
			opts.traceOut = filepath.Join(t.TempDir(), "spans.json")
			res, err := run(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("attempted %d failed %d correct %v: %v", res.attempted, res.failed, res.correct, res.problems)
			}
			for _, m := range endToEndMetrics {
				if v, ok := res.endToEnd[m.name]; !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v)
				}
			}
			for _, m := range perLayerMetrics {
				if v, ok := res.perLayer[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", m.name, v, ok)
				}
			}
			if res.perLayer["ladder.r0_ms"] <= 0 {
				t.Errorf("the traced run's top rung is %v ms", res.perLayer["ladder.r0_ms"])
			}
			var spans []span
			data, err := os.ReadFile(opts.traceOut)
			if err == nil {
				err = json.Unmarshal(data, &spans)
			}
			if err != nil || len(spans) == 0 {
				t.Errorf("trace-out: %d spans, err %v", len(spans), err)
			}
			// The ladder closes on what the run reports: the self times add
			// up to the top rung.
			closes := func(terms ...string) {
				var total float64
				for _, name := range terms {
					total += res.perLayer[name]
				}
				if r0 := res.perLayer["ladder.r0_ms"]; math.Abs(total-r0) > 1e-9 {
					t.Errorf("%v sum to %v ms, the top rung is %v ms", terms, total, r0)
				}
			}
			// The predictions the README makes for the seed.
			switch name {
			case "point_read", "scan_agg":
				closes("proxy.self_ms", "server.self_ms", "sql.self_ms", "txn.self_ms", "ladder.replay_gap_ms",
					"dist.self_ms", "kv.self_ms", "mvcc.self_ms", "lsm.read_ms")
				if res.perLayer["raft.entries_per_op"] != 0 || res.perLayer["lsm.wal_bytes_per_op"] != 0 {
					t.Errorf("a read-only measured phase wrote: raft %v entries/op, WAL %v B/op",
						res.perLayer["raft.entries_per_op"], res.perLayer["lsm.wal_bytes_per_op"])
				}
				// At this scale the table fits the memtable; see
				// TestPointReadDataSitsBelowTheMemtable for the full-size table.
				if res.perLayer["lsm.read_amp"] < 1 {
					t.Errorf("lsm.read_amp = %v, want at least the memtable", res.perLayer["lsm.read_amp"])
				}
			case "new_order":
				closes("proxy.self_ms", "server.self_ms", "sql.self_ms", "txn.self_ms", "ladder.seam_ms")
				if res.perLayer["raft.entries_per_op"] <= 0 || res.perLayer["lsm.wal_bytes_per_op"] <= 0 {
					t.Errorf("new_order wrote nothing: raft %v entries/op, WAL %v B/op",
						res.perLayer["raft.entries_per_op"], res.perLayer["lsm.wal_bytes_per_op"])
				}
			case "cold_start":
				if res.perLayer["orchestrator.cold_resumes_per_op"] != 1 {
					t.Errorf("cold resumes per cycle = %v, want 1", res.perLayer["orchestrator.cold_resumes_per_op"])
				}
			}
		})
	}
}

// point_read's full-size table is past the memtable, the block cache and the
// hot-key cache, so a read consults at least two sorted runs: the README's
// prediction for the seed. Loading 40 000 rows takes about 14 s, more than
// the rest of the tests together, so this one runs only when asked for:
// E2E_FULL=1 go test -C bench -run DataSitsBelow ./...
func TestPointReadDataSitsBelowTheMemtable(t *testing.T) {
	if os.Getenv("E2E_FULL") == "" {
		t.Skip("set E2E_FULL=1 to load the full-size table")
	}
	res, err := run(context.Background(), options{workload: "point_read", seed: 1, seconds: 1, scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Fatal(res.problems)
	}
	if got := res.perLayer["lsm.read_amp"]; got < 2 {
		t.Errorf("lsm.read_amp = %v, want >= 2", got)
	}
}

// The same seed gives the same op stream: identical keys, identical KV
// traffic, and allocation counts that agree within half a percent.
func TestSameSeedSameRun(t *testing.T) {
	keys := func(seed int64) []int64 {
		w := &pointRead{seed: seed, rows: 1000}
		r := w.worker(0, nil).(*pointReader)
		out := make([]int64, 200)
		for i := range out {
			out[i] = r.nextKey()
		}
		return out
	}
	a, b, other := keys(7), keys(7), keys(8)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 gave key %d then %d at op %d", a[i], b[i], i)
		}
		if a[i] == other[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 gave the same key stream")
	}

	var runs [2]*result
	for i := range runs {
		opts := smokeOptions("new_order", 3)
		opts.trace = true
		var err error
		if runs[i], err = run(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"sql.kv_batches_per_op", "sql.kv_reqs_per_op", "proxy.requests_per_op", "wire.bytes_out_per_op"} {
		if x, y := runs[0].perLayer[name], runs[1].perLayer[name]; x != y || x == 0 {
			t.Errorf("%s: %v then %v, want equal and non-zero", name, x, y)
		}
	}
	x, y := runs[0].endToEnd["allocs_per_op"], runs[1].endToEnd["allocs_per_op"]
	if math.Abs(x-y) > 0.005*x {
		t.Errorf("allocs_per_op: %v then %v, more than 0.5%% apart", x, y)
	}
}
