package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"crdbserverless/internal/lsm"
	"crdbserverless/internal/raftlite"
	"crdbserverless/internal/randutil"
	"crdbserverless/internal/sql"
	"crdbserverless/internal/wire"
)

// repeat times fn n times and returns the latencies.
func repeat(n int, fn func(i int) error) ([]time.Duration, error) {
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		d, err := timed(func() error { return fn(i) })
		if err != nil {
			return nil, err
		}
		lat = append(lat, d)
	}
	return lat, nil
}

// standAlone times single layers standing alone, called through their public
// functions, and fills in the metrics no rung can isolate. The suspend and
// resume cycles come last: suspending the tenant stops its SQL node and with
// it every connection the session still holds.
func (t *tracer) standAlone(ctx context.Context, rec *stmtRecorder, out map[string]float64) error {
	srv := t.s.srv
	probeSQL, probeArgs := t.s.w.probe()

	// The statements the workload sent on R0; cold_start sends only its probe.
	var samples []stmtSample
	if rec != nil {
		samples = rec.samples
	}
	if len(samples) == 0 {
		sess, err := srv.SQLSession(t.tenant)
		if err != nil {
			return err
		}
		res, err := sess.Execute(ctx, probeSQL, probeArgs...)
		if err != nil {
			return err
		}
		samples = []stmtSample{{probeSQL, probeArgs, res}}
	}

	// sql.parse_us: sql.Parse over those statements, in the order sent.
	lat, err := repeat(2000, func(i int) error {
		_, err := sql.Parse(samples[i%len(samples)].q)
		return err
	})
	if err != nil {
		return err
	}
	out["sql.parse_us"] = us(p50(lat))

	// wire.codec_us: one request and one reply of median size, framed,
	// written, read back and decoded through a buffer.
	sort.SliceStable(samples, func(i, j int) bool { return sampleSize(samples[i]) < sampleSize(samples[j]) })
	mid := samples[len(samples)/2]
	query := &wire.Query{SQL: mid.q, Args: mid.args}
	reply := &wire.Result{Columns: mid.res.Columns, Rows: mid.res.Rows, RowsAffected: mid.res.RowsAffected}
	var buf bytes.Buffer
	roundTrip := func(typ byte, msg, into any) error {
		buf.Reset()
		if err := wire.WriteMessage(&buf, typ, msg); err != nil {
			return err
		}
		_, payload, err := wire.ReadMessage(&buf)
		if err != nil {
			return err
		}
		return wire.Decode(payload, into)
	}
	lat, err = repeat(2000, func(int) error {
		if err := roundTrip(wire.MsgQuery, query, &wire.Query{}); err != nil {
			return err
		}
		return roundTrip(wire.MsgResult, reply, &wire.Result{})
	})
	if err != nil {
		return err
	}
	out["wire.codec_us"] = us(p50(lat))

	// sql.first_query_ms: what a fresh session's first statement costs over
	// its second — the catalog load a cold start pays.
	var extra []time.Duration
	for i := 0; i < 40; i++ {
		fresh, err := srv.SQLSession(t.tenant)
		if err != nil {
			return err
		}
		pair, err := repeat(2, func(int) error {
			_, err := fresh.Execute(ctx, probeSQL, probeArgs...)
			return err
		})
		if err != nil {
			return err
		}
		extra = append(extra, pair[0]-pair[1])
	}
	out["sql.first_query_ms"] = ms(p50(extra))

	// raft.propose_ms: one proposer, 1 KiB commands, a standalone group of
	// three replicas that apply nothing.
	group, err := raftlite.NewGroup(
		raftlite.Config{RangeID: 1, Clock: realClock, LeaseDuration: time.Hour},
		[]raftlite.NodeID{1, 2, 3},
		[]raftlite.StateMachine{nopSM{}, nopSM{}, nopSM{}},
	)
	if err != nil {
		return err
	}
	if err := group.AcquireLease(1); err != nil {
		return err
	}
	payload := randutil.RandBytes(randutil.NewRand(1), 1<<10)
	lat, err = repeat(2000, func(int) error { return group.Propose(1, payload) })
	if err != nil {
		return err
	}
	out["raft.propose_ms"] = ms(p50(lat))

	// lsm.apply_ms: one 1 KiB entry per batch into a standalone engine with
	// the assembly's cache sizes; 6 MiB in all, so a memtable flush is among
	// the samples as it is in a run.
	eng := lsm.New(lsm.Options{BlockCacheBytes: 8 << 20, HotKeyCacheSize: 4096})
	lat, err = repeat(6000, func(i int) error {
		key := []byte(fmt.Sprintf("key-%08d", i))
		return eng.ApplyBatch([]lsm.Entry{{Key: key, Value: payload}})
	})
	eng.Close()
	if err != nil {
		return err
	}
	out["lsm.apply_ms"] = ms(p50(lat))

	// proxy.connect_ms: connect and close to the running tenant.
	connectClose := func(int) error {
		c, err := srv.Connect(t.tenant, "")
		if err != nil {
			return err
		}
		return c.Close()
	}
	if err := connectClose(0); err != nil {
		return err
	}
	lat, err = repeat(200, connectClose)
	if err != nil {
		return err
	}
	warm := p50(lat)
	out["proxy.connect_ms"] = ms(warm)

	// orchestrator.suspend_ms, and resume_ms: the same connect and close
	// against the tenant scaled to zero, less the warm connect.
	var suspends, colds []time.Duration
	for i := 0; i < 60; i++ {
		d, err := timed(func() error { return srv.Suspend(ctx, t.tenant) })
		if err != nil {
			return err
		}
		suspends = append(suspends, d)
		if d, err = timed(func() error { return connectClose(i) }); err != nil {
			return err
		}
		colds = append(colds, d)
	}
	out["orchestrator.suspend_ms"] = ms(p50(suspends))
	out["orchestrator.resume_ms"] = ms(p50(colds) - warm)
	return nil
}

// sampleSize orders statements by how much they put on the wire.
func sampleSize(s stmtSample) int {
	n := len(s.q)
	for _, a := range s.args {
		n += 8 + len(a.S)
	}
	for _, row := range s.res.Rows {
		for _, d := range row {
			n += 8 + len(d.S)
		}
	}
	return n
}

// nopSM is a replica state machine that applies nothing.
type nopSM struct{}

func (nopSM) Apply(uint64, []byte) error { return nil }
