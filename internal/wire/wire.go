// Package wire implements the client/server protocol spoken between SQL
// clients, the routing proxy, and SQL nodes. It is a compact analogue of the
// PostgreSQL wire protocol (§4.2.2): a startup message carries routing
// parameters (tenant, user, password) so the proxy can identify the tenant
// before any query flows, and dedicated control messages support the session
// serialization handshake used by connection migration (§4.2.4).
//
// Framing: 1 type byte, 4-byte big-endian payload length, payload. Each
// message type has a fixed binary payload layout (codec.go) built from uvarint
// counts, length-prefixed strings and sql.AppendDatum values; a Query leads
// with its fixed-width trace IDs so the proxy can stamp them in place.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"crdbserverless/internal/sql"
)

// Message type bytes.
const (
	// MsgStartup opens a connection: params include tenant, user, password.
	MsgStartup = byte('S')
	// MsgAuth answers a startup or restore attempt.
	MsgAuth = byte('R')
	// MsgQuery carries one SQL statement with arguments.
	MsgQuery = byte('Q')
	// MsgResult carries a statement's result (or error).
	MsgResult = byte('D')
	// MsgTerminate closes the connection gracefully.
	MsgTerminate = byte('X')
	// MsgSerialize asks a SQL node to serialize an idle session (proxy to
	// node, during migration).
	MsgSerialize = byte('M')
	// MsgSerialized returns the serialized session blob.
	MsgSerialized = byte('m')
	// MsgRestore opens a connection resuming a serialized session.
	MsgRestore = byte('r')
)

// maxFrame bounds a frame payload (16 MiB).
const maxFrame = 16 << 20

// Startup is the first message on a client connection.
type Startup struct {
	// Params carries routing and authentication data. Recognized keys:
	// "tenant" (cluster name), "user", "password", "database".
	Params map[string]string
}

// Auth is the server's response to Startup or Restore.
type Auth struct {
	OK  bool
	Msg string
}

// Query is one SQL statement with bound arguments.
type Query struct {
	SQL  string
	Args []sql.Datum
	// TraceID/SpanID propagate the request trace across the hop from the
	// proxy to the SQL node: the proxy stamps its exchange span here and
	// the node continues the trace under it. Zero means untraced.
	TraceID uint64
	SpanID  uint64
}

// Result is a statement outcome.
type Result struct {
	Columns      []string
	Rows         [][]sql.Datum
	RowsAffected int
	Err          string
}

// Serialize asks the node to capture the connection's session.
type Serialize struct{}

// Serialized carries the captured session.
type Serialized struct {
	Data []byte
	Err  string
}

// Restore resumes a migrated session on a new node.
type Restore struct {
	Data []byte
}

// Terminate closes the connection.
type Terminate struct{}

// HeaderSize is the length of the frame header: the type byte and the
// big-endian payload length.
const HeaderSize = 5

// framePool holds frame buffers between writes. A buffer that grew past
// maxPooledFrame for one large result is dropped rather than kept.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const maxPooledFrame = 64 << 10

// WriteMessage frames one message and writes it with a single Write, so the
// peer wakes once per frame. The payload's layout follows from msg's type
// (one of the message structs above, by pointer), not from typ.
func WriteMessage(w io.Writer, typ byte, msg interface{}) error {
	bp := framePool.Get().(*[]byte)
	frame, err := appendPayload(append((*bp)[:0], typ, 0, 0, 0, 0), msg)
	if n := len(frame) - HeaderSize; err != nil {
		err = fmt.Errorf("wire: encoding %c: %w", typ, err)
	} else if n > maxFrame {
		err = fmt.Errorf("wire: frame too large (%d bytes)", n)
	} else {
		binary.BigEndian.PutUint32(frame[1:], uint32(n))
		_, err = w.Write(frame)
	}
	if cap(frame) <= maxPooledFrame {
		*bp = frame[:0]
		framePool.Put(bp)
	}
	return err
}

// ReadFrame reads one whole frame, header included, into a buffer of its own:
// frame[0] is the type and frame[HeaderSize:] the payload. A relay forwards
// the frame as it stands with one Write.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	frame := make([]byte, HeaderSize+int(n))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[HeaderSize:]); err != nil {
		return nil, err
	}
	return frame, nil
}

// ReadMessage reads one frame, returning its type and raw payload.
func ReadMessage(r io.Reader) (byte, []byte, error) {
	frame, err := ReadFrame(r)
	if err != nil {
		return 0, nil, err
	}
	return frame[0], frame[HeaderSize:], nil
}

// Client is a SQL client connection.
type Client struct {
	conn net.Conn
}

// Connect dials addr and performs the startup handshake.
func Connect(addr string, params map[string]string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ConnectOn(conn, params)
}

// ConnectOn performs the startup handshake on an existing connection.
func ConnectOn(conn net.Conn, params map[string]string) (*Client, error) {
	if err := WriteMessage(conn, MsgStartup, &Startup{Params: params}); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if typ != MsgAuth {
		conn.Close()
		return nil, fmt.Errorf("wire: expected auth response, got %c", typ)
	}
	var auth Auth
	if err := Decode(payload, &auth); err != nil {
		conn.Close()
		return nil, err
	}
	if !auth.OK {
		conn.Close()
		return nil, &AuthError{Msg: auth.Msg}
	}
	return &Client{conn: conn}, nil
}

// AuthError reports a rejected startup.
type AuthError struct{ Msg string }

// Error implements error.
func (e *AuthError) Error() string { return "wire: authentication failed: " + e.Msg }

// Query runs one statement and returns its result.
func (c *Client) Query(sqlText string, args ...sql.Datum) (*Result, error) {
	if err := WriteMessage(c.conn, MsgQuery, &Query{SQL: sqlText, Args: args}); err != nil {
		return nil, err
	}
	typ, payload, err := ReadMessage(c.conn)
	if err != nil {
		return nil, err
	}
	if typ != MsgResult {
		return nil, fmt.Errorf("wire: expected result, got %c", typ)
	}
	var res Result
	if err := Decode(payload, &res); err != nil {
		return nil, err
	}
	if res.Err != "" {
		return &res, fmt.Errorf("wire: %s", res.Err)
	}
	return &res, nil
}

// Close terminates the connection gracefully.
func (c *Client) Close() error {
	_ = WriteMessage(c.conn, MsgTerminate, &Terminate{})
	return c.conn.Close()
}
