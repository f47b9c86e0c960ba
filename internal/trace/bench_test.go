package trace

import (
	"context"
	"testing"
	"time"

	"crdbserverless/internal/hlc"
)

// statementTrace mints what one point read mints on its way from the proxy
// to the KV node (DESIGN.md §7): six spans, eight attributes, two events,
// through the same constructors and with the same kinds of value.
func statementTrace(tr *Tracer, conn *Span, txnID uint64, ts hlc.Timestamp, wait time.Duration) {
	exchange := conn.StartChild("proxy.exchange")
	query := tr.StartRemote(exchange.TraceID(), exchange.SpanID(), "sqlnode.query")
	query.SetAttr("sqlnode.instance", 3)
	ctx := ContextWithSpan(context.Background(), query)
	ctx, exec := StartSpan(ctx, "sql.exec")
	exec.SetAttr("sql.stmt", "Select")
	ctx, txn := StartSpan(ctx, "txn.run")
	txn.SetAttr("txn.id", txnID)
	txn.Eventf("begin txn=%d ts=%v attempt=%d", txnID, ts, 0)
	ctx, send := StartSpan(ctx, "dist.send")
	send.SetAttr("dist.requests", 1)
	_, eval := StartSpan(ctx, "kv.eval")
	eval.SetAttr("kv.node", 1)
	eval.SetAttr("kv.range", 7)
	eval.SetAttr("admission.wait", wait)
	eval.Finish()
	send.Finish()
	txn.Eventf("commit txn=%d", txnID)
	txn.SetAttr("txn.attempts", 1)
	txn.Finish()
	exec.Finish()
	query.Finish()
	exchange.Finish()
}

// Values a statement carries: too large for the runtime's small-integer
// boxes, as a transaction ID and a wait are.
const (
	benchTxnID = uint64(1) << 40
	benchWait  = 1500 * time.Nanosecond
)

var benchTs = hlc.Timestamp{WallTime: 1_700_000_000_123_456_789, Logical: 2}

// warmTracer returns a tracer whose per-operation histograms have stopped
// growing: they keep exact samples for an operation's first 4 096 spans,
// which a process pays once and a short benchmark would read as bytes per op.
func warmTracer() *Tracer {
	tr := New(Options{})
	conn := tr.StartRoot("proxy.conn")
	for i := 0; i < 1<<13; i++ {
		statementTrace(tr, conn, benchTxnID, benchTs, benchWait)
	}
	conn.Finish()
	return tr
}

func BenchmarkStatementTrace(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		tr := warmTracer()
		conn := tr.StartRoot("proxy.conn")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			statementTrace(tr, conn, benchTxnID, benchTs, benchWait)
		}
	})
	// One tracer, a connection per goroutine: what tenants sharing a process
	// share is the tracer.
	b.Run("parallel", func(b *testing.B) {
		tr := warmTracer()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			conn := tr.StartRoot("proxy.conn")
			for pb.Next() {
				statementTrace(tr, conn, benchTxnID, benchTs, benchWait)
			}
		})
	})
}

// What the always-on tracer costs a statement, pinned: a span is one
// allocation whatever it hangs from, and the statement's tree is 14 — six
// spans, the SQL node's context node, one block each for txn.run's events
// and kv.eval's third attribute, and five boxed values.
func TestSpanAllocations(t *testing.T) {
	tr := New(Options{})
	conn := tr.StartRoot("proxy.conn")
	ctx := ContextWithSpan(context.Background(), conn)
	if n := testing.AllocsPerRun(200, func() {
		_, s := StartSpan(ctx, "op")
		s.Finish()
	}); n != 1 {
		t.Errorf("StartSpan+Finish allocates %v objects, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		statementTrace(tr, conn, benchTxnID, benchTs, benchWait)
	}); n > 14 {
		t.Errorf("a statement's trace allocates %v objects, budget 14", n)
	}
}
