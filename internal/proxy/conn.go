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
	origin     string
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

// connectBackend dials the SQL node and forwards the startup handshake.
func (pc *proxiedConn) connectBackend(addr string, startup *wire.Startup) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	rd := wire.NewReader(conn)
	if err := handshake(conn, rd, wire.MsgStartup, startup); err != nil {
		conn.Close()
		rd.Release()
		return err
	}
	pc.mu.Lock()
	pc.backend = conn
	pc.baddr = addr
	pc.mu.Unlock()
	pc.backendRd = rd
	return nil
}

// handshake opens a backend connection with a Startup or Restore message and
// reads the node's Auth answer through rd.
func handshake(conn net.Conn, rd *wire.Reader, typ byte, msg interface{}) error {
	if err := wire.WriteMessage(conn, typ, msg); err != nil {
		return err
	}
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
	if !auth.OK {
		return &wire.AuthError{Msg: auth.Msg}
	}
	return nil
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
			// Injected SQL-node death between exchanges. The session must
			// re-route to a healthy backend; only if no backend can be
			// reached does the client connection die with it.
			if err := pc.killBackendAndReconnect(); err != nil {
				return
			}
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

// killBackendAndReconnect severs the current backend connection (modeling a
// SQL-node crash mid-session) and re-routes the session to a healthy node via
// the directory. Unlike the idle-window serialize/restore path, session state
// cannot be captured from a dead node: a fresh startup handshake re-establishes
// the session, while the client's TCP connection survives untouched.
func (pc *proxiedConn) killBackendAndReconnect() error {
	pc.mu.Lock()
	old := pc.backend
	oldAddr := pc.baddr
	pc.backend = nil
	pc.mu.Unlock()
	if old != nil {
		old.Close()
	}
	pc.backendRd.Release()
	pc.proxy.releaseBackend(oldAddr)
	backends, err := pc.proxy.cfg.Directory.Lookup(context.Background(), pc.tenantName)
	if err != nil {
		return err
	}
	// Prefer a node other than the one that just died; fall back to it only
	// when it is the sole backend (the directory may have restarted it).
	candidates := backends[:0:0]
	for _, b := range backends {
		if b.Addr != oldAddr {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		candidates = backends
	}
	backend, err := pc.proxy.pickBackend(candidates)
	if err != nil {
		return err
	}
	startup := pc.startup
	if err := pc.connectBackend(backend.Addr, &startup); err != nil {
		pc.proxy.releaseBackend(backend.Addr)
		return err
	}
	pc.span.Eventf("backend %s died; session re-routed to %s", oldAddr, backend.Addr)
	pc.proxy.noteBackendReconnect()
	return nil
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

// runMigration performs the three-step migration handshake, recording
// each step on sp.
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
	// no client re-authentication.
	conn, err := net.Dial("tcp", toAddr)
	if err != nil {
		return err
	}
	rd := wire.NewReader(conn)
	if err := handshake(conn, rd, wire.MsgRestore, &wire.Restore{Data: ser.Data}); err != nil {
		conn.Close()
		rd.Release()
		return fmt.Errorf("proxy: restore failed: %w", err)
	}
	sp.Eventf("session restored on %s", toAddr)

	// 3. Swap.
	pc.mu.Lock()
	pc.backend = conn
	pc.baddr = toAddr
	pc.mu.Unlock()
	old.Close()
	pc.backendRd.Release()
	pc.backendRd = rd
	pc.proxy.releaseBackend(oldAddr)
	pc.proxy.mu.Lock()
	pc.proxy.mu.connsPerBackend[toAddr]++
	pc.proxy.mu.Unlock()
	pc.proxy.noteMigration()
	return nil
}
