package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by nearest rank: the smallest
// sample with at least a fraction q of the samples at or below it.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// p50 is the median of xs (0 when empty).
func p50(xs []time.Duration) time.Duration { return quantile(sortedCopy(xs), 0.5) }

func flatten(perConn [][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, c := range perConn {
		all = append(all, c...)
	}
	return all
}

// numWindows is W for the windowed tail: as many equal op-count windows as
// leave 100 ops (so five samples beyond the p95) in each, at most 20.
func numWindows(totalOps int) int {
	w := totalOps / 100
	if w > 20 {
		w = 20
	}
	if w < 1 {
		w = 1
	}
	return w
}

// windowedQuantile cuts every connection's latency sequence into windows
// equal op-count windows, pools window i of all connections, takes that
// pool's q-quantile, and returns the median over the windows. One machine
// stall then lands in one window instead of setting the reported tail.
func windowedQuantile(perConn [][]time.Duration, windows int, q float64) time.Duration {
	var tails []time.Duration
	for w := 0; w < windows; w++ {
		var pool []time.Duration
		for _, c := range perConn {
			lo, hi := w*len(c)/windows, (w+1)*len(c)/windows
			pool = append(pool, c[lo:hi]...)
		}
		if len(pool) > 0 {
			tails = append(tails, quantile(sortedCopy(pool), q))
		}
	}
	return p50(tails)
}

// ladder holds the p50 of each rung of the traced run, top entry point
// first. A rung that a workload cannot replay stays at its zero value.
type ladder struct {
	r0, r1, r2 time.Duration // proxy, SQL node, session
	seam       time.Duration // time below the txn.Sender seam, per op, live during r2
	txnPath    time.Duration // the op's recorded reads replayed through RunTxn/Txn.Send
	rawPath    time.Duration // the same reads replayed straight into the DistSender
	r3, r4, r5 time.Duration // replayed into Cluster.Batch, mvcc, the engine iterator
	live       bool          // r1, r2 and the seam were measured (all but cold_start)
	below      bool          // r3..r5 were replayed (the read-only workloads)
}

// selfTimes turns adjacent rungs into per-layer self times. With every rung
// present they sum to r0 by construction: each is the difference between
// neighbours and the last is r5 itself. The live seam and its replay are
// neighbours too: their difference, ladder.replay_gap_ms, is what the same KV
// reads cost more inside a live op than replayed alone. Without the replayed
// rungs the sum closes with the live seam time (ladder.seam_ms) instead.
func (l ladder) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{
		"proxy.self_ms": 0, "server.self_ms": 0, "sql.self_ms": 0, "txn.self_ms": 0,
		"dist.self_ms": 0, "kv.self_ms": 0, "mvcc.self_ms": 0, "lsm.read_ms": 0,
		"ladder.replay_gap_ms": 0,
	}
	if !l.live {
		return out
	}
	txnSelf := l.txnPath - l.rawPath
	out["proxy.self_ms"] = l.r0 - l.r1
	out["server.self_ms"] = l.r1 - l.r2
	out["sql.self_ms"] = l.r2 - l.seam - txnSelf
	out["txn.self_ms"] = txnSelf
	if l.below {
		out["ladder.replay_gap_ms"] = l.seam - l.rawPath
		out["dist.self_ms"] = l.rawPath - l.r3
		out["kv.self_ms"] = l.r3 - l.r4
		out["mvcc.self_ms"] = l.r4 - l.r5
		out["lsm.read_ms"] = l.r5
	}
	return out
}

// counters is a snapshot of monotonic counts by name.
type counters map[string]float64

// delta returns after − before for every name in after.
func (before counters) delta(after counters) counters {
	out := make(counters, len(after))
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
