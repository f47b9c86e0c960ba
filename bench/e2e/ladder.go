package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/mvcc"
	"crdbserverless/internal/sql"
	"crdbserverless/internal/trace"
	"crdbserverless/internal/txn"
	"crdbserverless/internal/wire"
	wl "crdbserverless/internal/workload"
)

// span is one interval the harness timed around a call into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Op     int    `json:"op"`     // op index within its rung
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name string, op, parent int, start time.Time, d time.Duration) int {
	id := len(l.spans) + 1
	from := start.Sub(l.t0)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(from), End: int64(from + d)})
	return id
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// frameCounter counts the wire frames in a byte stream by following their
// 5-byte headers (type, big-endian body length), however the stream is cut
// into writes.
type frameCounter struct {
	frames int64
	hdr    [5]byte
	have   int   // header bytes collected so far
	body   int64 // body bytes of the current frame still to pass
}

func (f *frameCounter) feed(p []byte) {
	for len(p) > 0 {
		if f.body > 0 {
			n := min(int64(len(p)), f.body)
			f.body -= n
			p = p[n:]
			continue
		}
		n := copy(f.hdr[f.have:], p)
		f.have += n
		p = p[n:]
		if f.have == len(f.hdr) {
			f.frames++
			f.body = int64(binary.BigEndian.Uint32(f.hdr[1:]))
			f.have = 0
		}
	}
}

// countingConn counts the bytes a wire client moves and the frames it sends.
type countingConn struct {
	net.Conn
	in, out int64
	sent    frameCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out += int64(n)
	c.sent.feed(p[:n])
	return n, err
}

// stmtSample is one statement as the client sent it and the result it got.
type stmtSample struct {
	q    string
	args []sql.Datum
	res  *sql.Result
}

// stmtRecorder sits between a worker and its connection: it times each
// statement by class, keeps the first statements for the codec and parse
// micro-benchmarks, and counts rows returned to the client.
type stmtRecorder struct {
	db                  wl.DB
	commit, read, write []time.Duration
	samples             []stmtSample
	rows                int
}

const maxRecordedStmts = 256

func (r *stmtRecorder) Execute(ctx context.Context, q string, args ...sql.Datum) (*sql.Result, error) {
	start := realClock.Now()
	res, err := r.db.Execute(ctx, q, args...)
	d := realClock.Since(start)
	if err == nil && len(r.samples) < maxRecordedStmts {
		r.samples = append(r.samples, stmtSample{q, args, res})
	}
	switch {
	case strings.HasPrefix(q, "COMMIT"):
		r.commit = append(r.commit, d)
	case strings.HasPrefix(q, "SELECT"):
		r.read = append(r.read, d)
	case strings.HasPrefix(q, "UPDATE"), strings.HasPrefix(q, "INSERT"):
		r.write = append(r.write, d)
	}
	if res != nil {
		r.rows += len(res.Rows)
	}
	return res, err
}

// opRecord is what crossed the txn.Sender seam during one op.
type opRecord struct {
	seam                  time.Duration
	batches, reqs, kvRows int
	reads                 [][]kvpb.Request // the op's read-only batches, for replay
	sendStarts            []time.Time
	sendDurations         []time.Duration
}

// seamSender is the timing and recording txn.Sender placed between the
// coordinator and the DistSender on rung R2.
type seamSender struct {
	inner txn.Sender
	cur   *opRecord
	sends []time.Duration
}

func cloneRequests(reqs []kvpb.Request) []kvpb.Request {
	out := make([]kvpb.Request, len(reqs))
	for i, r := range reqs {
		out[i] = r
		out[i].Key = r.Key.Clone()
		out[i].EndKey = r.EndKey.Clone()
		out[i].Filter = append([]byte(nil), r.Filter...)
	}
	return out
}

func (s *seamSender) Send(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	readOnly := ba.IsReadOnly()
	var reads []kvpb.Request
	if readOnly {
		reads = cloneRequests(ba.Requests)
	}
	start := realClock.Now()
	resp, err := s.inner.Send(ctx, ba)
	d := realClock.Since(start)
	s.sends = append(s.sends, d)
	if op := s.cur; op != nil {
		op.seam += d
		op.batches++
		op.reqs += len(ba.Requests)
		op.sendStarts = append(op.sendStarts, start)
		op.sendDurations = append(op.sendDurations, d)
		if readOnly {
			op.reads = append(op.reads, reads)
		}
		if resp != nil {
			for _, r := range resp.Responses {
				op.kvRows += len(r.Rows)
				if r.Exists {
					op.kvRows++
				}
			}
		}
	}
	return resp, err
}

// sessionDB adapts an in-process session to the generators' DB interface.
type sessionDB struct{ s *sql.Session }

func (d sessionDB) Execute(ctx context.Context, q string, args ...sql.Datum) (*sql.Result, error) {
	return d.s.Execute(ctx, q, args...)
}

// tracer is the traced run's state.
type tracer struct {
	s        *session
	n        int // ops per rung
	log      *spanLog
	lastTick time.Time
	tenant   string
	tenantID keys.TenantID
}

// rung is one entry point of the ladder: run times op i entered there.
type rung struct {
	name string
	run  func(i int) (time.Duration, error)
}

// workerRung enters through a worker, which times its own ops.
func workerRung(ctx context.Context, name string, w worker) rung {
	return rung{name, func(int) (time.Duration, error) {
		d, _, err := w.do(ctx)
		return d, err
	}}
}

// climb runs ops 0..n-1 on every rung, interleaved op by op so that heap
// state and machine drift are common to the rungs whose medians are
// subtracted, and returns each rung's p50. srv.Tick runs between ops at the
// measured phase's cadence, keeping leases renewed outside any timed call.
func (t *tracer) climb(ctx context.Context, rungs []rung) (map[string]time.Duration, error) {
	lat := map[string][]time.Duration{}
	for i := 0; i < t.n; i++ {
		if realClock.Since(t.lastTick) >= time.Second {
			t.lastTick = realClock.Now()
			if err := t.s.srv.Tick(ctx); err != nil {
				return nil, err
			}
		}
		for _, r := range rungs {
			start := realClock.Now()
			d, err := r.run(i)
			if err != nil {
				return nil, fmt.Errorf("rung %s op %d: %w", r.name, i, err)
			}
			t.log.add(r.name, i, 0, start, d)
			lat[r.name] = append(lat[r.name], d)
		}
	}
	out := map[string]time.Duration{}
	for _, r := range rungs {
		out[r.name] = p50(lat[r.name])
	}
	return out, nil
}

// tracedRun replays the seeded op stream with one connection at successively
// lower public entry points, then times single layers standing alone. It
// returns the per-layer metrics that need timing; the counters came from the
// measured phase.
func (s *session) tracedRun(ctx context.Context, opts options, ph *phase) (map[string]float64, error) {
	t := &tracer{
		s: s, n: scaled(s.w.sizing().traceOps, opts.scale, 10),
		log: &spanLog{t0: realClock.Now()}, lastTick: realClock.Now(), tenant: tenantName,
	}
	cold, isCold := s.w.(*coldStart)
	if isCold {
		t.tenant = coldTenant(0)
	}
	var err error
	if t.tenantID, err = s.srv.TenantID(t.tenant); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var lad ladder
	var rec *stmtRecorder

	if isCold {
		// Only the top rung exists: a cycle passes each layer once, and the
		// stand-alone timings below split it.
		p, err := t.climb(ctx, []rung{workerRung(ctx, "R0", cold.worker(0, nil))})
		if err != nil {
			return nil, err
		}
		lad.r0 = p["R0"]
	} else if rec, err = t.rungs(ctx, &lad, out); err != nil {
		return nil, err
	}
	for name, d := range lad.selfTimes() {
		out[name] = ms(d)
	}
	out["ladder.r0_ms"] = ms(lad.r0)
	out["ladder.seam_ms"] = ms(lad.seam)
	out["ladder.gap_ms"] = ms(lad.r0 - p50(flatten(ph.lat[:])))

	if err := t.standAlone(ctx, rec, out); err != nil {
		return nil, err
	}
	if opts.traceOut != "" {
		if err := t.log.write(opts.traceOut); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rungs climbs the ladder for the single-tenant workloads: R0 to R2 live,
// then the reads recorded at the seam replayed from R2t down to R5.
func (t *tracer) rungs(ctx context.Context, lad *ladder, out map[string]float64) (*stmtRecorder, error) {
	s := t.s
	params := map[string]string{"tenant": t.tenant, "user": "app", "password": ""}

	// R0: through the proxy, as Serverless.Connect does, over a counting
	// net.Conn.
	r0Start := realClock.Now()
	raw, err := net.Dial("tcp", s.srv.Proxy(region).Addr())
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: raw}
	c0, err := wire.ConnectOn(cc, params)
	if err != nil {
		return nil, err
	}
	rec := &stmtRecorder{db: wireDB{c0}}
	handshake := *cc

	// R1: straight to the tenant's SQL node.
	pods := s.srv.Orchestrator(region).PodsForTenant(t.tenant)
	if len(pods) == 0 {
		return nil, errors.New("rung R1: tenant has no SQL node")
	}
	c1, err := wire.Connect(pods[0].Node.Addr(), params)
	if err != nil {
		return nil, err
	}

	// R2: an in-process session assembled like Serverless.SQLSession, with
	// the recording seam between the coordinator and the DistSender.
	cluster := s.srv.Cluster()
	ds := kvserver.NewDistSender(cluster, kvserver.Identity{Tenant: t.tenantID}, kvserver.Config{Obs: s.srv.Obs()})
	seam := &seamSender{inner: ds}
	coord := txn.NewCoordinator(seam, cluster.Clock(), t.tenantID)
	coord.SetObs(s.srv.Obs())
	exec := sql.NewExecutor(sql.NewCatalog(coord, t.tenantID), coord, sql.ExecutorConfig{Obs: s.srv.Obs()})
	rowsDB := &stmtRecorder{db: sessionDB{sql.NewSession(exec, "app")}}
	w2 := s.w.worker(0, rowsDB)
	// One untimed op loads the fresh catalog, as the warm-up did for the
	// connections above.
	if _, _, err := w2.do(ctx); err != nil {
		return nil, fmt.Errorf("rung R2 warm-up: %w", err)
	}
	rowsBefore := rowsDB.rows
	ops := make([]*opRecord, t.n)
	r2 := workerRung(ctx, "R2", w2)

	// On the read-only workloads every worker(0, …) is its own identically
	// seeded stream, so op i is the same statement on every rung. new_order's
	// three workers share connection 0's generator, whose private order
	// counter is what keeps order IDs unique: there op i is three consecutive
	// transactions, and the rungs are equal in distribution (2–4 order lines,
	// uniformly), not op for op.
	live, err := t.climb(ctx, []rung{
		workerRung(ctx, "R0", s.w.worker(0, rec)),
		workerRung(ctx, "R1", s.w.worker(0, wireDB{c1})),
		{"R2", func(i int) (time.Duration, error) {
			ops[i] = &opRecord{}
			seam.cur = ops[i]
			defer func() { seam.cur = nil }()
			return r2.run(i)
		}},
	})
	for _, c := range []*wire.Client{c0, c1} {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	lad.r0, lad.r1, lad.r2, lad.live = live["R0"], live["R1"], live["R2"], true

	n := float64(t.n)
	out["wire.bytes_out_per_op"] = float64(cc.out-handshake.out) / n
	out["wire.bytes_in_per_op"] = float64(cc.in-handshake.in) / n
	// The terminate frame is the one frame that is not a request.
	out["proxy.requests_per_op"] = float64(cc.sent.frames-handshake.sent.frames-1) / n
	if _, ok := s.w.(*newOrder); ok {
		// Only new_order has statements inside explicit transactions.
		out["txn.commit_ms"] = ms(p50(rec.commit))
		out["txn.stmt_read_ms"] = ms(p50(rec.read))
		out["txn.stmt_write_ms"] = ms(p50(rec.write))
	}
	for name, d := range t.programSpans(r0Start) {
		out[name] = ms(d)
	}

	var seamLat []time.Duration
	var batches, reqs, kvRows float64
	r2Spans := map[int]int{}
	for _, sp := range t.log.spans {
		if sp.Name == "R2" {
			r2Spans[sp.Op] = sp.ID
		}
	}
	for i, op := range ops {
		seamLat = append(seamLat, op.seam)
		batches += float64(op.batches)
		reqs += float64(op.reqs)
		kvRows += float64(op.kvRows)
		for j, st := range op.sendStarts {
			t.log.add("seam.send", i, r2Spans[i], st, op.sendDurations[j])
		}
	}
	lad.seam = p50(seamLat)
	out["dist.send_ms"] = ms(p50(seam.sends))
	out["sql.kv_batches_per_op"] = batches / n
	out["sql.kv_reqs_per_op"] = reqs / n
	out["sql.rows_scanned_per_row"] = ratio(kvRows, float64(rowsDB.rows-rowsBefore))

	// The replayed rungs. R2t: the op's recorded reads through the
	// coordinator, and straight into the DistSender; the difference is what a
	// transaction costs around them.
	plain := txn.NewCoordinator(ds, cluster.Clock(), t.tenantID)
	batchFor := func(reqs []kvpb.Request) *kvpb.BatchRequest {
		return &kvpb.BatchRequest{Tenant: t.tenantID, Timestamp: cluster.Clock().Now(), Requests: reqs}
	}
	replays := []rung{
		{"R2t.txn", func(i int) (time.Duration, error) {
			return timed(func() error {
				return plain.RunTxn(ctx, func(ctx context.Context, tx *txn.Txn) error {
					for _, reqs := range ops[i].reads {
						if _, err := tx.Send(ctx, reqs...); err != nil {
							return err
						}
					}
					return nil
				})
			})
		}},
		{"R2t.raw", func(i int) (time.Duration, error) {
			return timed(func() error {
				for _, reqs := range ops[i].reads {
					if _, err := ds.Send(ctx, batchFor(reqs)); err != nil {
						return err
					}
				}
				return nil
			})
		}},
	}

	_, writes := s.w.(*newOrder)
	if !writes {
		// R3 to R5 replay reads only: replaying recorded writes would meet
		// WriteTooOld. new_order's write path is covered by R0–R2, the
		// statement timings, the seam, and the stand-alone raft and engine
		// timings.
		replays = append(replays, t.lowerRungs(ctx, ops, batchFor)...)
	}
	replayed, err := t.climb(ctx, replays)
	if err != nil {
		return nil, err
	}
	lad.txnPath, lad.rawPath = replayed["R2t.txn"], replayed["R2t.raw"]
	if !writes {
		lad.r3, lad.r4, lad.r5 = replayed["R3"], replayed["R4"], replayed["R5"]
		lad.below = true
	}
	return rec, nil
}

// lowerRungs are the entry points below the DistSender, each replaying the
// recorded read batches on the leaseholder: R3 the KV node's Batch, R4 mvcc
// reads on its engine, R5 a bare engine iterator over the same bounds.
func (t *tracer) lowerRungs(ctx context.Context, ops []*opRecord, batchFor func([]kvpb.Request) *kvpb.BatchRequest) []rung {
	cluster := t.s.srv.Cluster()
	id := kvserver.Identity{Tenant: t.tenantID}
	holder := map[kvserver.RangeID]kvserver.NodeID{}
	nodeFor := func(key keys.Key) (*kvserver.Node, kvserver.RangeID, error) {
		desc, err := cluster.LookupRange(key)
		if err != nil {
			return nil, 0, err
		}
		if _, ok := holder[desc.RangeID]; !ok {
			holder[desc.RangeID] = leaseholders(cluster)[desc.RangeID]
		}
		node, ok := cluster.Node(holder[desc.RangeID])
		if !ok {
			return nil, 0, fmt.Errorf("range %d has no leaseholder", desc.RangeID)
		}
		return node, desc.RangeID, nil
	}
	// eachRead times fn over the op's read batches; fn gets the leaseholder.
	eachRead := func(i int, fn func(node *kvserver.Node, rangeID kvserver.RangeID, reqs []kvpb.Request) error) (time.Duration, error) {
		var total time.Duration
		for _, reqs := range ops[i].reads {
			node, rangeID, err := nodeFor(reqs[0].Key)
			if err != nil {
				return 0, err
			}
			d, err := timed(func() error { return fn(node, rangeID, reqs) })
			if err != nil {
				return 0, err
			}
			total += d
		}
		return total, nil
	}
	touched := 0
	return []rung{
		{"R3", func(i int) (time.Duration, error) {
			return eachRead(i, func(node *kvserver.Node, rangeID kvserver.RangeID, reqs []kvpb.Request) error {
				_, err := cluster.Batch(ctx, node.ID(), id, batchFor(reqs))
				var moved *kvpb.NotLeaseholderError
				if errors.As(err, &moved) {
					// The lease moved since it was looked up: forget it, so the
					// next op finds the new holder. This op fails the run only
					// if the redirect fails too.
					delete(holder, rangeID)
					_, err = cluster.Batch(ctx, moved.Leaseholder, id, batchFor(reqs))
				}
				return err
			})
		}},
		{"R4", func(i int) (time.Duration, error) {
			return eachRead(i, func(node *kvserver.Node, _ kvserver.RangeID, reqs []kvpb.Request) error {
				eng, ts := node.Engine(), cluster.Clock().Now()
				for _, r := range reqs {
					var err error
					switch r.Method {
					case kvpb.Get:
						_, _, err = mvcc.Get(eng, r.Key, ts, 0)
					case kvpb.Scan:
						_, err = mvcc.Scan(eng, r.Span(), ts, 0, r.MaxKeys)
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
		}},
		{"R5", func(i int) (time.Duration, error) {
			return eachRead(i, func(node *kvserver.Node, _ kvserver.RangeID, reqs []kvpb.Request) error {
				before := touched
				for _, r := range reqs {
					lo, hi := mvcc.EngineSpan(r.Span())
					for it := node.Engine().NewIter(lo, hi); it.Valid(); it.Next() {
						touched += len(it.Key()) + len(it.Value())
					}
				}
				if touched == before {
					return errors.New("the engine iterator found nothing under the recorded keys")
				}
				return nil
			})
		}},
	}
}

// programSpans is the cross-check: the median self time (duration minus
// children) of the spans the program already records, read from the root the
// R0 connection left in the tracer's ring. The proxy files that root when it
// sees the connection close, so it is polled for.
func (t *tracer) programSpans(since time.Time) map[string]time.Duration {
	names := []string{"proxy.exchange", "sqlnode.query", "sql.exec", "txn.run", "dist.send", "kv.eval"}
	out := map[string]time.Duration{}
	for _, name := range names {
		out["trace."+name+".self_ms"] = 0
	}
	var root *trace.Span
	for wait := 0; wait < 200 && root == nil; wait++ {
		for _, r := range t.s.srv.Tracer().Recorder().RecentRoots() {
			if r.Op() == "proxy.conn" && !r.Start().Before(since) {
				root = r
			}
		}
		if root == nil {
			realClock.Sleep(5 * time.Millisecond)
		}
	}
	if root == nil {
		return out
	}
	self := map[string][]time.Duration{}
	var walk func(sp *trace.Span)
	walk = func(sp *trace.Span) {
		d := sp.Duration()
		for _, child := range sp.Children() {
			d -= child.Duration()
			walk(child)
		}
		self[sp.Op()] = append(self[sp.Op()], d)
	}
	walk(root)
	for _, name := range names {
		out["trace."+name+".self_ms"] = p50(self[name])
	}
	return out
}
