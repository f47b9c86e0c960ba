package main

import (
	"runtime"
	"time"
)

// perLayerMetrics lists every per-layer metric, layer by layer. Counts are
// deltas of public counters over the measured phase; timings (marked traced)
// come from the traced run and exist only with -trace 1. A timing that a
// workload cannot measure is reported as 0.
var perLayerMetrics = []metricDef{
	// client: the harness itself.
	{name: "client.lat_p99_ms", unit: "ms"},
	{name: "client.lat_max_ms", unit: "ms"},
	{name: "client.overhead_us", unit: "us"},
	{name: "client.failed_frac", unit: "ratio"},
	// wire (traced)
	{name: "wire.codec_us", unit: "us"},
	{name: "wire.bytes_out_per_op", unit: "B"},
	{name: "wire.bytes_in_per_op", unit: "B"},
	// proxy (traced)
	{name: "proxy.self_ms", unit: "ms"},
	{name: "proxy.connect_ms", unit: "ms"},
	{name: "proxy.requests_per_op", unit: "count"},
	// server: the SQL node (traced)
	{name: "server.self_ms", unit: "ms"},
	// sql
	{name: "sql.self_ms", unit: "ms"},
	{name: "sql.parse_us", unit: "us"},
	{name: "sql.kv_batches_per_op", unit: "count"},
	{name: "sql.kv_reqs_per_op", unit: "count"},
	{name: "sql.rows_scanned_per_row", unit: "ratio"},
	{name: "sql.first_query_ms", unit: "ms"},
	{name: "sql.queries_per_op", unit: "count"},
	// txn
	{name: "txn.self_ms", unit: "ms"},
	{name: "txn.retries_per_op", unit: "count"},
	{name: "txn.commit_ms", unit: "ms"},
	{name: "txn.stmt_read_ms", unit: "ms"},
	{name: "txn.stmt_write_ms", unit: "ms"},
	// dist: the DistSender
	{name: "dist.self_ms", unit: "ms"},
	{name: "dist.send_ms", unit: "ms"},
	{name: "dist.batches_per_op", unit: "count"},
	// kv: node evaluation
	{name: "kv.self_ms", unit: "ms"},
	{name: "kv.batches_per_op", unit: "count"},
	{name: "kv.lease_transfers", unit: "count"},
	{name: "kv.range_splits", unit: "count"},
	// raft
	{name: "raft.propose_ms", unit: "ms"},
	{name: "raft.entries_per_op", unit: "count"},
	{name: "raft.batch_size_mean", unit: "count"},
	// mvcc (traced)
	{name: "mvcc.self_ms", unit: "ms"},
	// lsm
	{name: "lsm.read_ms", unit: "ms"},
	{name: "lsm.apply_ms", unit: "ms"},
	{name: "lsm.get_per_op", unit: "count"},
	{name: "lsm.tables_probed_per_op", unit: "count"},
	{name: "lsm.bloom_filtered_frac", unit: "ratio"},
	{name: "lsm.block_hit_frac", unit: "ratio"},
	{name: "lsm.hot_hit_frac", unit: "ratio"},
	{name: "lsm.read_amp", unit: "count"},
	{name: "lsm.wal_bytes_per_op", unit: "B"},
	{name: "lsm.wal_fsyncs_per_op", unit: "count"},
	{name: "lsm.flush_bytes_per_op", unit: "B"},
	{name: "lsm.compact_bytes_per_op", unit: "B"},
	{name: "lsm.write_amp", unit: "ratio"},
	{name: "lsm.space_amp", unit: "ratio"},
	{name: "lsm.flushes", unit: "count"},
	{name: "lsm.compactions", unit: "count"},
	// orchestrator
	{name: "orchestrator.resume_ms", unit: "ms"},
	{name: "orchestrator.suspend_ms", unit: "ms"},
	{name: "orchestrator.pods_created_per_op", unit: "count"},
	{name: "orchestrator.cold_resumes_per_op", unit: "count"},
	{name: "orchestrator.warm_pool_min", unit: "count"},
	// runtime
	{name: "runtime.gc_cpu_frac", unit: "ratio"},
	{name: "runtime.gc_cycles_per_kop", unit: "count"},
	{name: "runtime.heap_growth_b_per_op", unit: "B"},
	{name: "runtime.goroutines_end", unit: "count"},
	// trace: the program's own spans, as a cross-check of the ladder (traced)
	{name: "trace.proxy.exchange.self_ms", unit: "ms"},
	{name: "trace.sqlnode.query.self_ms", unit: "ms"},
	{name: "trace.sql.exec.self_ms", unit: "ms"},
	{name: "trace.txn.run.self_ms", unit: "ms"},
	{name: "trace.dist.send.self_ms", unit: "ms"},
	{name: "trace.kv.eval.self_ms", unit: "ms"},
	// ladder: the top rung; the live time below the txn.Sender seam and what
	// it exceeds its replay by; and how far the top rung sits from the
	// measured median (one connection instead of two) (traced)
	{name: "ladder.r0_ms", unit: "ms"},
	{name: "ladder.seam_ms", unit: "ms"},
	{name: "ladder.replay_gap_ms", unit: "ms"},
	{name: "ladder.gap_ms", unit: "ms"},
}

// counterMetrics derives the per-layer metrics that need no traced run.
func counterMetrics(s *session, ph *phase) map[string]float64 {
	c := ph.counts
	ops := float64(ph.attempted)
	all := sortedCopy(flatten(ph.lat[:]))
	stores := float64(len(s.srv.Cluster().Nodes()))
	storeBytes, readAmp := storeState(s.srv)
	written := c["store.wal_bytes"] + c["store.flush_bytes"] + c["store.compact_bytes"]
	hitFrac := func(hits, misses string) float64 { return ratio(c[hits], c[hits]+c[misses]) }
	var maxLat time.Duration
	if len(all) > 0 {
		maxLat = all[len(all)-1]
	}
	return map[string]float64{
		"client.lat_p99_ms":   ms(quantile(all, 0.99)),
		"client.lat_max_ms":   ms(maxLat),
		"client.overhead_us":  us(ph.overhead) / ops,
		"client.failed_frac":  float64(ph.failed) / ops,
		"sql.queries_per_op":  c["sql.tenant_queries"] / ops,
		"txn.retries_per_op":  (c["client.retries"] + c["txn.tenant_retries"]) / ops,
		"dist.batches_per_op": c["dist.tenant_batches"] / ops,
		"kv.batches_per_op":   c["kv.batches"] / ops,
		"kv.lease_transfers":  float64(ph.leaseTransfers),
		"kv.range_splits":     c["kv.ranges"],

		"raft.entries_per_op":  c["raft.commit.entries"] / ops,
		"raft.batch_size_mean": ratio(c["raft.commit.entries"], c["raft.commit.batches"]),

		"lsm.get_per_op":           c["lsm.reads"] / ops,
		"lsm.tables_probed_per_op": c["lsm.tables.probed"] / ops,
		"lsm.bloom_filtered_frac":  hitFrac("lsm.bloom.filtered", "lsm.tables.probed"),
		"lsm.block_hit_frac":       hitFrac("lsm.cache.block.hits", "lsm.cache.block.misses"),
		"lsm.hot_hit_frac":         hitFrac("lsm.cache.hot.hits", "lsm.cache.hot.misses"),
		"lsm.read_amp":             readAmp,
		"lsm.wal_bytes_per_op":     c["store.wal_bytes"] / ops,
		"lsm.wal_fsyncs_per_op":    c["lsm.wal.fsyncs"] / stores / ops,
		"lsm.flush_bytes_per_op":   c["store.flush_bytes"] / ops,
		"lsm.compact_bytes_per_op": c["store.compact_bytes"] / ops,
		"lsm.write_amp":            ratio(written, c["client.payload_bytes"]),
		"lsm.space_amp":            ratio(storeBytes, s.w.payloadBytes()),
		"lsm.flushes":              c["store.flushes"],
		"lsm.compactions":          c["store.compactions"],

		"orchestrator.pods_created_per_op": c["orchestrator.pods_created"] / ops,
		"orchestrator.cold_resumes_per_op": c["orchestrator.cold_resumes"] / ops,
		"orchestrator.warm_pool_min":       float64(ph.warmPoolMin),

		"runtime.gc_cpu_frac":          ratio(c["runtime.gc_cpu_s"], c["process.cpu_s"]),
		"runtime.gc_cycles_per_kop":    1e3 * c["runtime.gc_cycles"] / ops,
		"runtime.heap_growth_b_per_op": (float64(ph.heapEnd) - float64(ph.heapWarm)) / ops,
		"runtime.goroutines_end":       float64(runtime.NumGoroutine()),
	}
}
