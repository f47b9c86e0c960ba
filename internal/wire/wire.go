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
	"slices"
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

// payloadLen returns the payload length a frame header declares, refusing a
// length past maxFrame before anything is read for it.
func payloadLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr[1:HeaderSize])
	if n > maxFrame {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	return int(n), nil
}

// grow makes room in b, which holds the start of a frame whose first want
// bytes are needed. It at most doubles b's capacity and never grows it past
// want, so memory follows the bytes that have arrived, not the length a
// header claims.
func grow(b []byte, want int) []byte {
	return slices.Grow(b, min(max(len(b), 512), want-len(b)))
}

// ReadMessage reads exactly one frame from r, and not a byte past it,
// returning its type and its payload in a buffer of its own. It suits a
// one-shot read; a connection that reads frame after frame uses a Reader.
func ReadMessage(r io.Reader) (byte, []byte, error) {
	frame := make([]byte, HeaderSize)
	if _, err := io.ReadFull(r, frame); err != nil {
		return 0, nil, err
	}
	n, err := payloadLen(frame)
	if err != nil {
		return 0, nil, err
	}
	for want := HeaderSize + n; len(frame) < want; {
		have := len(frame)
		frame = grow(frame, want)
		frame = frame[:min(cap(frame), want)]
		if _, err := io.ReadFull(r, frame[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
	return frame[0], frame[HeaderSize:], nil
}

// Reader reads frames from one end of a connection. It reads whatever the
// connection has ready into one pooled buffer, so a frame that arrives in one
// segment costs one Read and nothing is allocated per frame. Since it may
// read past the frame it returns, every read on the connection goes through
// its Reader from the first byte. A Reader is for one goroutine.
type Reader struct {
	r io.Reader
	// buf[:used] is the frame Next returned last and buf[used:] the bytes
	// read past it.
	buf  []byte
	used int
	// err is the last Read's error, held while the bytes read beside it may
	// still complete a frame.
	err error
	// pooled is the framePool entry buf came from; nil once released.
	pooled *[]byte
}

// NewReader returns a Reader over r with a buffer from the frame pool.
func NewReader(r io.Reader) *Reader {
	bp := framePool.Get().(*[]byte)
	return &Reader{r: r, buf: (*bp)[:0], pooled: bp}
}

// Next returns the next whole frame, header included: frame[0] is the type
// and frame[HeaderSize:] the payload, which a relay forwards with one Write.
// The frame points into the Reader's buffer and is valid until the next call.
//
// The stream ending between frames is io.EOF and inside one
// io.ErrUnexpectedEOF. Any other Read error, such as a passed deadline, comes
// back with the bytes read so far kept, so a later call resumes the frame
// where this one stopped.
func (r *Reader) Next() ([]byte, error) {
	if r.used > 0 {
		r.buf = r.buf[:copy(r.buf, r.buf[r.used:])]
		r.used = 0
	}
	for {
		want := HeaderSize
		if len(r.buf) >= HeaderSize {
			n, err := payloadLen(r.buf)
			if err != nil {
				return nil, err
			}
			if want = HeaderSize + n; len(r.buf) >= want {
				r.used = want
				return r.buf[:want:want], nil
			}
		}
		if err := r.err; err != nil {
			r.err = nil
			if err == io.EOF && len(r.buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(r.buf) == cap(r.buf) {
			r.buf = grow(r.buf, want)
		}
		n, err := r.r.Read(r.buf[len(r.buf):cap(r.buf)])
		r.buf = r.buf[:len(r.buf)+n]
		r.err = err
	}
}

// Release returns the Reader's buffer to the frame pool once its connection
// is closed and no frame from Next is still in use. A buffer that grew past
// maxPooledFrame is dropped instead.
func (r *Reader) Release() {
	if r.pooled != nil && cap(r.buf) <= maxPooledFrame {
		*r.pooled = r.buf[:0]
		framePool.Put(r.pooled)
	}
	r.pooled, r.buf, r.used = nil, nil, 0
}

// Client is a SQL client connection.
type Client struct {
	conn net.Conn
	rd   *Reader
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
	c := &Client{conn: conn, rd: NewReader(conn)}
	if err := c.startup(params); err != nil {
		conn.Close()
		c.rd.Release()
		return nil, err
	}
	return c, nil
}

func (c *Client) startup(params map[string]string) error {
	if err := WriteMessage(c.conn, MsgStartup, &Startup{Params: params}); err != nil {
		return err
	}
	frame, err := c.rd.Next()
	if err != nil {
		return err
	}
	if frame[0] != MsgAuth {
		return fmt.Errorf("wire: expected auth response, got %c", frame[0])
	}
	var auth Auth
	if err := Decode(frame[HeaderSize:], &auth); err != nil {
		return err
	}
	if !auth.OK {
		return &AuthError{Msg: auth.Msg}
	}
	return nil
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
	frame, err := c.rd.Next()
	if err != nil {
		return nil, err
	}
	if frame[0] != MsgResult {
		return nil, fmt.Errorf("wire: expected result, got %c", frame[0])
	}
	var res Result
	if err := Decode(frame[HeaderSize:], &res); err != nil {
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
	err := c.conn.Close()
	c.rd.Release()
	return err
}
