package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"testing/iotest"
	"time"
)

// frames encodes msgs back to back, as a peer would send them.
func frames(t testing.TB, msgs ...interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range msgs {
		typ := MsgQuery
		if _, ok := m.(*Result); ok {
			typ = MsgResult
		}
		if err := WriteMessage(&buf, typ, m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// readAll drains rd, returning copies of its frames and the error that ended
// the stream.
func readAll(rd *Reader) ([][]byte, error) {
	var out [][]byte
	for {
		frame, err := rd.Next()
		if err != nil {
			return out, err
		}
		out = append(out, append([]byte(nil), frame...))
	}
}

// countingReader counts the Reads that reach r.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

var sampleMsgs = []interface{}{
	&Query{SQL: "SELECT v FROM t WHERE k = 1", TraceID: 7, SpanID: 9},
	&Result{Columns: []string{"v"}},
	&Query{SQL: "COMMIT"},
}

func TestReaderOneByteReads(t *testing.T) {
	stream := frames(t, sampleMsgs...)
	got, err := readAll(NewReader(iotest.OneByteReader(bytes.NewReader(stream))))
	if err != io.EOF {
		t.Fatalf("stream ended with %v, want io.EOF", err)
	}
	if !bytes.Equal(bytes.Join(got, nil), stream) || len(got) != len(sampleMsgs) {
		t.Fatalf("%d frames %x, want %d frames %x", len(got), bytes.Join(got, nil), len(sampleMsgs), stream)
	}
}

// Frames that arrive together are read together: one Read for all three,
// then one more that finds the end of the stream.
func TestReaderSeveralFramesInOneRead(t *testing.T) {
	stream := frames(t, sampleMsgs...)
	src := &countingReader{r: bytes.NewReader(stream)}
	rd := NewReader(src)
	for i := range sampleMsgs {
		frame, err := rd.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if src.reads != 1 {
			t.Fatalf("frame %d took %d Reads in all, want 1", i, src.reads)
		}
		if want := frames(t, sampleMsgs[i]); !bytes.Equal(frame, want) {
			t.Fatalf("frame %d = %x, want %x", i, frame, want)
		}
	}
	if _, err := rd.Next(); err != io.EOF || src.reads != 2 {
		t.Fatalf("end = %v after %d Reads, want io.EOF after 2", err, src.reads)
	}
}

// header returns a frame header declaring an n-byte payload.
func header(typ byte, n uint32) []byte {
	return binary.BigEndian.AppendUint32([]byte{typ}, n)
}

func TestReaderFrameLimit(t *testing.T) {
	full := append(header(MsgQuery, maxFrame), make([]byte, maxFrame)...)
	frame, err := NewReader(bytes.NewReader(full)).Next()
	if err != nil || len(frame) != HeaderSize+maxFrame {
		t.Fatalf("a %d-byte payload: %d-byte frame, %v", maxFrame, len(frame), err)
	}
	if typ, payload, err := ReadMessage(bytes.NewReader(full)); err != nil || typ != MsgQuery || len(payload) != maxFrame {
		t.Fatalf("ReadMessage of a %d-byte payload: %d bytes, %v", maxFrame, len(payload), err)
	}
	over := header(MsgQuery, maxFrame+1)
	if _, err := NewReader(bytes.NewReader(over)).Next(); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a %d-byte payload: %v, want the limit refused", maxFrame+1, err)
	}
	if _, _, err := ReadMessage(bytes.NewReader(over)); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadMessage of a %d-byte payload: %v, want the limit refused", maxFrame+1, err)
	}
}

func TestReaderEOF(t *testing.T) {
	stream := frames(t, sampleMsgs[0])
	for _, c := range []struct {
		name string
		cut  int
		want error
	}{
		{"nothing", 0, io.EOF},
		{"inside the header", 3, io.ErrUnexpectedEOF},
		{"inside the payload", len(stream) - 1, io.ErrUnexpectedEOF},
	} {
		if _, err := NewReader(bytes.NewReader(stream[:c.cut])).Next(); err != c.want {
			t.Errorf("EOF %s: %v, want %v", c.name, err, c.want)
		}
		if _, _, err := ReadMessage(bytes.NewReader(stream[:c.cut])); err != c.want {
			t.Errorf("ReadMessage, EOF %s: %v, want %v", c.name, err, c.want)
		}
	}
	// The last byte of the frame arriving with EOF still completes it.
	rd := NewReader(iotest.DataErrReader(bytes.NewReader(stream)))
	if frame, err := rd.Next(); err != nil || !bytes.Equal(frame, stream) {
		t.Fatalf("frame read beside EOF = %x, %v", frame, err)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after the frame: %v, want io.EOF", err)
	}
}

// A deadline that passes mid-frame loses nothing: the next call finishes the
// same frame.
func TestReaderResumesAfterDeadline(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	stream := frames(t, sampleMsgs[0])
	rd := NewReader(server)
	defer rd.Release()

	// A pipe's Write returns once the reader has taken the bytes.
	wrote := make(chan error, 1)
	go func() {
		_, err := client.Write(stream[:7])
		wrote <- err
	}()
	server.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := rd.Next(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("half a frame before the deadline: %v, want a timeout", err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	server.SetReadDeadline(time.Time{})
	go func() {
		_, err := client.Write(stream[7:])
		wrote <- err
	}()
	frame, err := rd.Next()
	if err != nil || !bytes.Equal(frame, stream) {
		t.Fatalf("resumed frame = %x, %v; want %x", frame, err, stream)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}

// hostileHeader sends a header claiming the largest payload allowed, stalls,
// and closes: what a client can do before any authentication.
func hostileHeader(t *testing.T, conn net.Conn) {
	t.Helper()
	go func() {
		defer conn.Close()
		if _, err := conn.Write(header(MsgStartup, maxFrame)); err != nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}()
}

// allocatedBy returns the bytes the process allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestReaderHostileHeaderAllocatesLittle(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	var err error
	if n := allocatedBy(func() {
		hostileHeader(t, client)
		rd := NewReader(server)
		_, err = rd.Next()
		rd.Release()
	}); n >= 64<<10 {
		t.Fatalf("a bare 16 MiB header allocated %d bytes", n)
	}
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("header then close: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReadMessageHostileHeaderAllocatesLittle(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	var err error
	if n := allocatedBy(func() {
		hostileHeader(t, client)
		_, _, err = ReadMessage(server)
	}); n >= 64<<10 {
		t.Fatalf("a bare 16 MiB header allocated %d bytes", n)
	}
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("header then close: %v, want io.ErrUnexpectedEOF", err)
	}
}

// repeatReader serves the same bytes forever.
type repeatReader struct {
	b   []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

func TestReaderNextDoesNotAllocate(t *testing.T) {
	rd := NewReader(&repeatReader{b: frames(t, sampleMsgs...)})
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Next allocates %v objects per frame, want 0", n)
	}
}

// The message struct stays on the caller's stack: the encoder does not hand
// it to fmt.
func TestWriteMessageDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() {
		if err := WriteMessage(io.Discard, MsgQuery, &Query{SQL: "SELECT 1", TraceID: 1, SpanID: 2}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("WriteMessage allocates %v objects, want 0", n)
	}
}

// chunkReader hands out data in reads of at most sizes[i]+1 bytes in turn,
// and EOF beside the last bytes when eofWithData is set.
type chunkReader struct {
	data        []byte
	sizes       []byte
	i           int
	eofWithData bool
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.sizes) > 0 {
		n = min(n, int(c.sizes[c.i%len(c.sizes)])+1)
		c.i++
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	if len(c.data) == 0 && c.eofWithData {
		return n, io.EOF
	}
	return n, nil
}

// errClass folds an error to what a caller acts on.
func errClass(err error) string {
	switch err {
	case io.EOF:
		return "EOF"
	case io.ErrUnexpectedEOF:
		return "unexpected EOF"
	default:
		return "refused"
	}
}

// FuzzFrameReader: for any bytes and any chunking of them, a Reader returns
// the frames a loop of ReadMessage returns, and ends with the same class of
// error.
func FuzzFrameReader(f *testing.F) {
	stream := frames(f, sampleMsgs...)
	f.Add(stream, []byte{0}, false)
	f.Add(stream, []byte{2, 200, 6}, true)
	f.Add(stream[:len(stream)-4], []byte{}, true)
	f.Add(append(frames(f, sampleMsgs[0]), header(MsgQuery, maxFrame+1)...), []byte{5}, false)
	f.Fuzz(func(t *testing.T, data, sizes []byte, eofWithData bool) {
		var want [][]byte
		src := bytes.NewReader(data)
		var wantErr error
		for {
			typ, payload, err := ReadMessage(src)
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, append([]byte{typ}, payload...))
		}
		rd := NewReader(&chunkReader{data: data, sizes: sizes, eofWithData: eofWithData})
		got, err := readAll(rd)
		if len(got) != len(want) {
			t.Fatalf("Reader: %d frames, ReadMessage: %d", len(got), len(want))
		}
		for i := range got {
			if got[i][0] != want[i][0] || !bytes.Equal(got[i][HeaderSize:], want[i][1:]) {
				t.Fatalf("frame %d: Reader %x, ReadMessage %x", i, got[i], want[i])
			}
		}
		if errClass(err) != errClass(wantErr) {
			t.Fatalf("Reader ended with %v, ReadMessage with %v", err, wantErr)
		}
	})
}
