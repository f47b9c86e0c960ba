package proxy

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"crdbserverless/internal/trace"
	"crdbserverless/internal/wire"
)

// proxiedConn is one client connection pinned to a backend SQL node. The
// proxy relays whole frames; because the protocol is strict request/response,
// the moments between a response and the next request are exactly the idle
// windows in which a session may migrate (§4.2.4: migration happens when the
// client session is idle).
type proxiedConn struct {
	proxy *Proxy
	// id is the proxy-assigned accept sequence number; iteration over the
	// connection set sorts by it so migration and shutdown visit
	// connections in a deterministic order.
	id         uint64
	client     net.Conn
	tenantName string
	startup    wire.Startup
	// span is the connection's root trace span (nil when tracing is off).
	span *trace.Span

	// clientRd and backendRd read the two connections. Only the goroutine
	// serving the connection touches them, so they sit outside mu; backendRd
	// is swapped along with backend.
	clientRd  *wire.Reader
	backendRd *wire.Reader

	mu      sync.Mutex
	backend net.Conn
	baddr   string

	migrateCh chan string
}

// route connects the session to a backend of its tenant: it looks the
// tenant up (for a suspended tenant, the cold start), picks the least-loaded
// backend other than exclude when there is another, and dials it with the
// client's startup. A backend that fails the dial or the handshake without
// refusing the client (connection refused or reset, EOF, a draining node)
// is excluded and the tenant routed once more, which may be a cold start. A
// refusal of the client's credentials is a *wire.AuthError, never retried.
// route returns the backend the session is now on.
func (pc *proxiedConn) route(ctx context.Context, exclude string) (Backend, error) {
	for retried := false; ; retried = true {
		backends, err := pc.proxy.cfg.Directory.Lookup(ctx, pc.tenantName)
		if err != nil {
			return Backend{}, err
		}
		b, err := pc.proxy.pickBackend(backends, exclude)
		if err != nil {
			return Backend{}, err
		}
		if err = pc.dial(b.Addr, wire.MsgStartup, &pc.startup); err == nil {
			return b, nil
		}
		pc.proxy.releaseBackend(b.Addr)
		var authErr *wire.AuthError
		if retried || errors.As(err, &authErr) {
			return Backend{}, err
		}
		trace.SpanFromContext(ctx).Eventf("backend %s refused the session: %v", b.Addr, err)
		exclude = b.Addr
	}
}

// dial opens a connection to the SQL node at addr with a Startup or Restore
// message and, once the node accepts it, makes it the session's backend in
// place of the one before.
func (pc *proxiedConn) dial(addr string, typ byte, msg interface{}) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	rd := wire.NewReader(conn)
	if err = wire.WriteMessage(conn, typ, msg); err == nil {
		err = readAuth(rd)
	}
	if err != nil {
		conn.Close()
		rd.Release()
		return err
	}
	pc.setBackend(conn, rd, addr)
	return nil
}

// readAuth reads the node's answer to a Startup or Restore.
func readAuth(rd *wire.Reader) error {
	frame, err := rd.Next()
	if err != nil {
		return err
	}
	if frame[0] != wire.MsgAuth {
		return fmt.Errorf("proxy: unexpected handshake response %c", frame[0])
	}
	var auth wire.Auth
	if err := wire.Decode(frame[wire.HeaderSize:], &auth); err != nil {
		return err
	}
	switch {
	case auth.OK:
		return nil
	case auth.Msg == wire.RefusedDraining:
		return errDraining
	}
	return &wire.AuthError{Msg: auth.Msg}
}

// setBackend makes conn, read through rd, the session's backend at addr, and
// closes and releases the backend it replaces.
func (pc *proxiedConn) setBackend(conn net.Conn, rd *wire.Reader, addr string) {
	pc.mu.Lock()
	old, oldAddr := pc.backend, pc.baddr
	pc.backend, pc.baddr = conn, addr
	pc.mu.Unlock()
	if old != nil {
		old.Close()
		pc.backendRd.Release()
		pc.proxy.releaseBackend(oldAddr)
	}
	pc.backendRd = rd
}

func (pc *proxiedConn) backendAddr() string {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.baddr
}

// close closes the client and the current backend connection. Any goroutine
// may call it, more than once; a relay blocked on either wakes with an error.
func (pc *proxiedConn) close() {
	pc.client.Close()
	pc.mu.Lock()
	if pc.backend != nil {
		pc.backend.Close()
	}
	pc.mu.Unlock()
}

// aLongTimeAgo is a read deadline already past: setting it fails a blocked
// Read at once.
var aLongTimeAgo = time.Unix(1, 0)

// requestMigration queues a migration to toAddr unless one is already
// pending, then wakes a relay blocked reading an idle client by setting a
// read deadline in the past. The request is queued before the deadline is
// set, and the relay clears the deadline before draining the queue, so no
// request is left waiting behind a cleared deadline.
func (pc *proxiedConn) requestMigration(toAddr string) bool {
	select {
	case pc.migrateCh <- toAddr:
	default:
		return false
	}
	// An error means the connection is closed, and the relay is leaving.
	_ = pc.client.SetReadDeadline(aLongTimeAgo)
	return true
}

// relay runs the request/response pump on the connection's one goroutine
// until either side closes. It reads the client itself; a migration request
// interrupts that read, and the migration runs there — between exchanges,
// while the client is idle. A frame the client had half sent stays in
// clientRd and is finished after the migration, on the new backend.
func (pc *proxiedConn) relay() {
	for {
		req, err := pc.clientRd.Next()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			if err := pc.client.SetReadDeadline(time.Time{}); err != nil {
				return
			}
			select {
			case to := <-pc.migrateCh:
				// Migration failure must not disturb the client; the session
				// simply stays where it is.
				_ = pc.migrate(to)
			default:
			}
			continue
		}
		if err != nil {
			return
		}
		if req[0] == wire.MsgTerminate {
			pc.mu.Lock()
			if pc.backend != nil {
				wire.WriteMessage(pc.backend, wire.MsgTerminate, &wire.Terminate{})
			}
			pc.mu.Unlock()
			return
		}
		if pc.proxy.cfg.Faults.Should("proxy.backend.kill") {
			// Injected SQL-node death between exchanges. Session state cannot
			// be captured from a dead node, so the session re-routes with a
			// fresh startup while the client's connection survives; only if
			// no backend can be reached does it die with the node.
			dead := pc.backendAddr()
			pc.setBackend(nil, nil, "")
			if _, err := pc.route(context.Background(), dead); err != nil {
				return
			}
			pc.span.Eventf("backend %s died; session re-routed to %s", dead, pc.backendAddr())
			pc.proxy.backendReconnects.Inc(1)
		}
		if err := pc.exchange(req); err != nil {
			return
		}
	}
}

// exchange forwards one request frame and pumps its response back, both as
// the bytes read: once the tenant is routed the proxy is a byte pipe (§4.2).
// On a traced connection a query's payload is stamped in place with a fresh
// exchange span's IDs, so the SQL node continues the trace under it.
func (pc *proxiedConn) exchange(req []byte) error {
	pc.mu.Lock()
	backend := pc.backend
	pc.mu.Unlock()
	if backend == nil {
		return errors.New("proxy: no backend")
	}
	if pc.span != nil && req[0] == wire.MsgQuery {
		sp := pc.span.StartChild("proxy.exchange")
		defer sp.Finish()
		// A payload too short to stamp is no Query; the node rejects it.
		wire.StampQueryTrace(req[wire.HeaderSize:], sp.TraceID(), sp.SpanID())
	}
	if _, err := backend.Write(req); err != nil {
		return err
	}
	resp, err := pc.backendRd.Next()
	if err != nil {
		return err
	}
	_, err = pc.client.Write(resp)
	return err
}

// migrate executes the session-migration protocol: serialize on the old
// node, restore on the new one, swap connections (§4.2.4). The client never
// observes the swap.
func (pc *proxiedConn) migrate(toAddr string) error {
	pc.mu.Lock()
	old := pc.backend
	oldAddr := pc.baddr
	pc.mu.Unlock()
	if old == nil {
		return errors.New("proxy: no backend to migrate from")
	}
	if oldAddr == toAddr {
		return nil
	}
	sp := pc.span.StartChild("proxy.migrate")
	defer sp.Finish()
	sp.SetAttr("proxy.from", oldAddr)
	sp.SetAttr("proxy.to", toAddr)
	err := pc.runMigration(sp, old, oldAddr, toAddr)
	if err != nil {
		sp.Eventf("migration failed: %v", err)
	}
	return err
}

// runMigration performs the migration handshake, recording each step on
// sp.
func (pc *proxiedConn) runMigration(sp *trace.Span, old net.Conn, oldAddr, toAddr string) error {
	// 1. Capture the session. The node refuses if the session is not idle
	// (open transaction), in which case we simply don't migrate now.
	if err := wire.WriteMessage(old, wire.MsgSerialize, &wire.Serialize{}); err != nil {
		return err
	}
	frame, err := pc.backendRd.Next()
	if err != nil || frame[0] != wire.MsgSerialized {
		return fmt.Errorf("proxy: serialize handshake failed: %v", err)
	}
	var ser wire.Serialized
	if err := wire.Decode(frame[wire.HeaderSize:], &ser); err != nil {
		return err
	}
	if ser.Err != "" {
		return errors.New(ser.Err)
	}
	sp.Eventf("session serialized on %s (%d bytes)", oldAddr, len(ser.Data))

	// 2. Restore on the new node using the revival token inside the blob —
	// no client re-authentication — and swap. A failed restore leaves the
	// session on the old node, which still serves it.
	if err := pc.dial(toAddr, wire.MsgRestore, &wire.Restore{Data: ser.Data}); err != nil {
		return fmt.Errorf("proxy: restore failed: %w", err)
	}
	sp.Eventf("session restored on %s", toAddr)
	pc.proxy.mu.Lock()
	pc.proxy.mu.connsPerBackend[toAddr]++
	pc.proxy.mu.Unlock()
	pc.proxy.migrations.Inc(1)
	return nil
}
