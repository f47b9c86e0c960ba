package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"crdbserverless/internal/wire"
)

func durations(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, v := range ms {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := durations(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.0, 1}, {1.0, 10}, {0.01, 1}} {
		if got := quantile(sorted, c.q); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("quantile(%v) = %v, want %dms", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestNumWindows(t *testing.T) {
	for _, c := range []struct{ ops, want int }{
		{150000, 20}, {2500, 20}, {350, 3}, {6000, 20}, {199, 1}, {0, 1},
	} {
		if got := numWindows(c.ops); got != c.want {
			t.Errorf("numWindows(%d) = %d, want %d", c.ops, got, c.want)
		}
	}
}

// One stall confined to one window must not set the windowed tail, while a
// plain p95 over the same samples would report it.
func TestWindowedQuantileIgnoresOneStall(t *testing.T) {
	const perConn = 400
	conns := make([][]time.Duration, 2)
	for c := range conns {
		for i := 0; i < perConn; i++ {
			d := time.Millisecond
			if i%20 == 19 {
				d = 3 * time.Millisecond // the steady tail: 5 % of ops
			}
			if i >= 100 && i < 160 {
				d = 50 * time.Millisecond // a stall, all inside window 1 of 4
			}
			conns[c] = append(conns[c], d)
		}
	}
	if got := windowedQuantile(conns, 4, 0.95); got != time.Millisecond {
		t.Errorf("windowed p95 = %v, want the steady 1ms", got)
	}
	if plain := quantile(sortedCopy(flatten(conns)), 0.95); plain != 50*time.Millisecond {
		t.Errorf("plain p95 = %v, want the stall's 50ms", plain)
	}
}

func TestWindowedQuantilePoolsConnections(t *testing.T) {
	// Connection 0 is fast, connection 1 slow: each window pools both, so the
	// p50 of a window is the fast connection's and the p95 the slow one's.
	conns := [][]time.Duration{durations(1, 1, 1, 1), durations(9, 9, 9, 9)}
	if got := windowedQuantile(conns, 2, 0.5); got != time.Millisecond {
		t.Errorf("windowed p50 = %v, want 1ms", got)
	}
	if got := windowedQuantile(conns, 2, 0.95); got != 9*time.Millisecond {
		t.Errorf("windowed p95 = %v, want 9ms", got)
	}
}

func sum(m map[string]time.Duration) time.Duration {
	var total time.Duration
	for _, d := range m {
		total += d
	}
	return total
}

func TestLadderSumsToTopRung(t *testing.T) {
	full := ladder{
		r0: 440 * time.Microsecond, r1: 250 * time.Microsecond, r2: 100 * time.Microsecond,
		seam: 60 * time.Microsecond, txnPath: 58 * time.Microsecond, rawPath: 55 * time.Microsecond,
		r3: 50 * time.Microsecond, r4: 4 * time.Microsecond, r5: 3 * time.Microsecond,
		live: true, below: true,
	}
	self := full.selfTimes()
	if got := sum(self); got != full.r0 {
		t.Errorf("full ladder sums to %v, want r0 = %v", got, full.r0)
	}
	want := map[string]time.Duration{
		"proxy.self_ms":        190 * time.Microsecond,
		"server.self_ms":       150 * time.Microsecond,
		"sql.self_ms":          37 * time.Microsecond,
		"txn.self_ms":          3 * time.Microsecond,
		"ladder.replay_gap_ms": 5 * time.Microsecond,
		"dist.self_ms":         5 * time.Microsecond,
		"kv.self_ms":           46 * time.Microsecond,
		"mvcc.self_ms":         1 * time.Microsecond,
		"lsm.read_ms":          3 * time.Microsecond,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("%s = %v, want %v", name, self[name], d)
		}
	}

	// Without the replayed rungs (new_order) the layers above the seam plus
	// the live seam time make up r0.
	upper := full
	upper.below = false
	self = upper.selfTimes()
	if got := sum(self) + upper.seam; got != upper.r0 {
		t.Errorf("upper ladder + seam sums to %v, want r0 = %v", got, upper.r0)
	}
	if self["kv.self_ms"] != 0 || self["lsm.read_ms"] != 0 {
		t.Errorf("unreplayed rungs must read 0, got %v", self)
	}

	// cold_start has only the top rung: nothing is attributed.
	if got := sum(ladder{r0: time.Millisecond}.selfTimes()); got != 0 {
		t.Errorf("top rung alone attributes %v, want 0", got)
	}
}

func TestCounterDelta(t *testing.T) {
	before := counters{"lsm.reads": 10, "raft.commit.entries": 5}
	after := counters{"lsm.reads": 25, "raft.commit.entries": 5, "kv.batches": 7}
	d := before.delta(after)
	if d["lsm.reads"] != 15 || d["raft.commit.entries"] != 0 || d["kv.batches"] != 7 || len(d) != 3 {
		t.Errorf("delta = %v", d)
	}
	if ratio(3, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Errorf("ratio: %v %v", ratio(3, 0), ratio(3, 4))
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which the
// driver uses for the spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// Frames are counted from their headers, however the stream is cut into
// writes: whole, byte by byte, or in pieces that straddle a header.
func TestFrameCounterFollowsHeaders(t *testing.T) {
	var stream bytes.Buffer
	msgs := []any{&wire.Startup{Params: map[string]string{"tenant": "t"}}, &wire.Query{SQL: "SELECT 12345"}, &wire.Query{}, &wire.Terminate{}}
	for _, m := range msgs {
		if err := wire.WriteMessage(&stream, wire.MsgQuery, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, chunk := range []int{stream.Len(), 1, 5, 7} {
		var f frameCounter
		for b := stream.Bytes(); len(b) > 0; {
			n := min(chunk, len(b))
			f.feed(b[:n])
			b = b[n:]
		}
		if f.frames != int64(len(msgs)) || f.body != 0 || f.have != 0 {
			t.Errorf("chunks of %d: %d frames (body %d, header %d), want %d complete", chunk, f.frames, f.body, f.have, len(msgs))
		}
	}
}
