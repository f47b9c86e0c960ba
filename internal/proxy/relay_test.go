package proxy

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"crdbserverless/internal/core"
	"crdbserverless/internal/wire"
)

// rawConn is a client speaking the protocol by hand, so a test can send part
// of a frame.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	rd   *wire.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rc := &rawConn{t: t, conn: conn, rd: wire.NewReader(conn)}
	t.Cleanup(func() {
		conn.Close()
		rc.rd.Release()
	})
	rc.write(rc.encode(wire.MsgStartup, &wire.Startup{Params: map[string]string{"tenant": "acme", "user": "app"}}))
	var auth wire.Auth
	if typ := rc.read(&auth); typ != wire.MsgAuth || !auth.OK {
		t.Fatalf("startup answered %c %+v", typ, auth)
	}
	return rc
}

func (rc *rawConn) encode(typ byte, msg interface{}) []byte {
	rc.t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteMessage(&buf, typ, msg); err != nil {
		rc.t.Fatal(err)
	}
	return buf.Bytes()
}

func (rc *rawConn) write(b []byte) {
	rc.t.Helper()
	if _, err := rc.conn.Write(b); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawConn) read(out interface{}) byte {
	rc.t.Helper()
	frame, err := rc.rd.Next()
	if err != nil {
		rc.t.Fatal(err)
	}
	if err := wire.Decode(frame[wire.HeaderSize:], out); err != nil {
		rc.t.Fatal(err)
	}
	return frame[0]
}

func (rc *rawConn) query(sql string) *wire.Result {
	rc.t.Helper()
	rc.write(rc.encode(wire.MsgQuery, &wire.Query{SQL: sql}))
	var res wire.Result
	if typ := rc.read(&res); typ != wire.MsgResult || res.Err != "" {
		rc.t.Fatalf("%s answered %c %+v", sql, typ, res)
	}
	return &res
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The relay reads the client itself, so a migration request interrupts a
// read that has half a frame: the migration runs, and the frame, finished
// later, goes to the new node.
func TestRelayMigratesWithHalfAFrameBuffered(t *testing.T) {
	e := newEnv(t)
	acme, err := e.reg.CreateTenant(context.Background(), "acme", core.TenantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n1 := e.addNode(t, acme)
	p := startProxy(t, Config{Directory: e})

	rc := dialRaw(t, p.Addr())
	rc.query("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	rc.query("INSERT INTO t VALUES (1, 10)")

	frame := rc.encode(wire.MsgQuery, &wire.Query{SQL: "SELECT b FROM t WHERE a = 1"})
	rc.write(frame[:3])
	n2 := e.addNode(t, acme)
	n1.Drain()
	if n := p.RequestMigrations(n1.Addr(), n2.Addr()); n != 1 {
		t.Fatalf("requested %d migrations, want 1", n)
	}
	waitFor(t, "the migration", func() bool { return p.Migrations() == 1 })
	rc.write(frame[3:])

	var res wire.Result
	if typ := rc.read(&res); typ != wire.MsgResult || res.Err != "" || len(res.Rows) != 1 || res.Rows[0][0].I != 10 {
		t.Fatalf("the finished query answered %c %+v", typ, res)
	}
	if n1.ConnCount() != 0 || n2.ConnCount() != 1 {
		t.Fatalf("conns n1 %d, n2 %d; want the session on n2", n1.ConnCount(), n2.ConnCount())
	}
}

// A proxied connection runs on the one goroutine that serves it, and Close
// waits for those: with migrations still pending, nothing is left behind.
func TestRelayLeavesNoGoroutineAfterClose(t *testing.T) {
	e := newEnv(t)
	acme, err := e.reg.CreateTenant(context.Background(), "acme", core.TenantOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n1 := e.addNode(t, acme)
	n2 := e.addNode(t, acme)
	before := runtime.NumGoroutine()

	p := New(Config{Directory: e})
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	var clients []*wire.Client
	for i := 0; i < 4; i++ {
		c, err := wire.Connect(p.Addr(), map[string]string{"tenant": "acme"})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	p.RequestMigrations(n1.Addr(), n2.Addr())
	p.RequestMigrations(n2.Addr(), n1.Addr())
	p.Close()
	for _, c := range clients {
		c.Close()
	}
	waitFor(t, "the proxy's goroutines exiting", func() bool { return runtime.NumGoroutine() <= before })
}

// Before any authentication, a client can send a header claiming a 16 MiB
// frame and stall. The proxy pays for the bytes that arrive, not the claim.
func TestProxyHostileHeaderAllocatesLittle(t *testing.T) {
	p := startProxy(t, Config{Directory: newEnv(t)})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{wire.MsgStartup, 0x01, 0x00, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	conn.Close()
	// Close waits for the connection's handler to return.
	p.Close()
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("a bare 16 MiB header cost the proxy %d bytes", n)
	}
}
