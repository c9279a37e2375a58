package server

// The line framing, held against the bufio.Scanner it replaced (same lines,
// same terminal condition, whatever the chunking), and what it exists for:
// a connection keeps nothing of a long line once the line is served.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
)

// chunkReader delivers data in pieces of at most n bytes (0 = as asked
// for), then fails with err.
type chunkReader struct {
	data []byte
	n    int
	err  error
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	if r.n > 0 && len(p) > r.n {
		p = p[:r.n]
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

var errBroken = errors.New("connection broke")

// scanLines is the reference: a Scanner whose buffer may grow to max, as
// serveProtocol and client.Client held one before LineReader.
func scanLines(r io.Reader, max int) ([][]byte, error) {
	var lines [][]byte
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, max)
	for sc.Scan() {
		lines = append(lines, append([]byte{}, sc.Bytes()...))
	}
	return lines, sc.Err()
}

// readLines reads r to its end through a LineReader; buf > 0 shrinks the
// reader's buffer from its 64 KiB (bufio makes it at least 16), so that a
// fuzz input of a few hundred bytes is a line of many buffers.
func readLines(r io.Reader, max, buf int) ([][]byte, error) {
	var lines [][]byte
	lr := NewLineReader(r, max)
	if buf > 0 {
		lr.br = bufio.NewReaderSize(r, buf)
	}
	for {
		line, err := lr.ReadLine()
		if err != nil {
			if again, err2 := lr.ReadLine(); again != nil || err2 != err {
				return nil, fmt.Errorf("error %v is not sticky: then %d bytes, %v", err, len(again), err2)
			}
			return lines, err
		}
		lines = append(lines, append([]byte{}, line...))
	}
}

// checkAgainstScanner reads one stream both ways.
func checkAgainstScanner(t *testing.T, data []byte, chunk, max, buf int, broken bool) {
	t.Helper()
	end := io.EOF
	if broken {
		end = errBroken
	}
	want, wantErr := scanLines(&chunkReader{data: data, n: chunk, err: end}, max)
	got, gotErr := readLines(&chunkReader{data: data, n: chunk, err: end}, max, buf)
	if len(got) != len(want) {
		t.Fatalf("chunk %d cap %d buffer %d: %d lines, Scanner %d (ends %v, Scanner %v)", chunk, max, buf, len(got), len(want), gotErr, wantErr)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("chunk %d cap %d buffer %d: line %d has %d bytes, Scanner's %d, or differs in content", chunk, max, buf, i, len(got[i]), len(want[i]))
		}
	}
	switch {
	case wantErr == nil: // Scanner's way of saying EOF
		if gotErr != io.EOF {
			t.Fatalf("chunk %d cap %d buffer %d: ends with %v, Scanner with EOF", chunk, max, buf, gotErr)
		}
	case wantErr == bufio.ErrTooLong:
		if gotErr != (LineTooLong{max}) {
			t.Fatalf("chunk %d cap %d buffer %d: ends with %v, Scanner with %v", chunk, max, buf, gotErr, wantErr)
		}
	case gotErr != wantErr:
		t.Fatalf("chunk %d cap %d buffer %d: ends with %v, Scanner with %v", chunk, max, buf, gotErr, wantErr)
	}
}

// lineStreams are FuzzReadLine's seeds: every way a line can end, the
// lengths around the 64 KiB buffer and around the cap, and a request
// pipelined behind a long one.
func lineStreams() []struct {
	data string
	max  int
} {
	x := func(n int) string { return strings.Repeat("x", n) }
	const ping = `{"id":2,"cmd":"ping"}` + "\n"
	return []struct {
		data string
		max  int
	}{
		{"{\"cmd\":\"ping\"}\r\n{\"cmd\":\"stats\"}\n", 1 << 20},
		{"a\rb\n\r\n\r", 1 << 20}, // a CR inside a line, an empty CRLF line, a lone CR before EOF
		{"\n\n\r\n" + ping + "\n", 1 << 20},
		{`{"cmd":"ping"}`, 1 << 20}, // no final newline
		{"", 1 << 20},
		{x(64<<10-1) + "\n" + ping, 1 << 20},
		{x(64<<10) + "\n" + ping, 1 << 20},
		{x(64<<10+1) + "\n" + ping, 1 << 20},
		{x(64<<10-1) + "\r\n" + ping, 1 << 20}, // the CR is the buffer's last byte
		{x(99) + "\n" + ping, 100},             // at the cap with its newline
		{x(100) + "\n" + ping, 100},            // one past
		{x(98) + "\r\n" + ping, 100},
		{x(99) + "\r\n" + ping, 100},
		{x(99), 100}, // unterminated, one below the cap
		{x(100), 100},
		{x(100<<10-1) + "\n" + ping, 100 << 10}, // the cap above the buffer size
		{x(100<<10) + "\n" + ping, 100 << 10},
		{x(70<<10) + "\n" + ping, 64 << 10}, // the newline arrives, but past the cap
		{x(300<<10) + "\n" + ping + ping, 1 << 20},
	}
}

func FuzzReadLine(f *testing.F) {
	for _, s := range lineStreams() {
		f.Add([]byte(s.data), uint16(0), uint32(s.max), uint8(0), false)
		f.Add([]byte(s.data), uint16(1000), uint32(s.max), uint8(0), true)
	}
	// The same shapes at a 16-byte buffer, where the fuzzer can afford them.
	f.Add([]byte("0123456789abcde\n"+"0123456789abcdef\n"+"0123456789abcdefg\n"+"0123456789abcde\r\nping\n"), uint16(5), uint32(40), uint8(16), false)
	f.Add([]byte(strings.Repeat("x", 39)+"\n"+strings.Repeat("y", 40)+"\nping\n"), uint16(0), uint32(40), uint8(16), true)
	f.Add([]byte(strings.Repeat("x", 100)+"\nping\nping"), uint16(3), uint32(1000), uint8(16), false)
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16, max uint32, buf uint8, broken bool) {
		checkAgainstScanner(t, data, int(chunk), 1+int(max%(1<<20)), int(buf), broken)
	})
}

// TestReadLineChunkings runs the seed streams byte by byte, in odd pieces
// and whole; the fuzz target's seed pass alone covers two chunkings.
func TestReadLineChunkings(t *testing.T) {
	for _, s := range lineStreams() {
		for _, chunk := range []int{1, 7, 4096, 64 << 10, 0} {
			if chunk == 1 && len(s.data) > 128<<10 {
				continue
			}
			checkAgainstScanner(t, []byte(s.data), chunk, s.max, 0, false)
			checkAgainstScanner(t, []byte(s.data), chunk, s.max, 16, true)
		}
	}
}

// pipeHost serves one net.Pipe connection through a Host and returns the
// client end with a line reader on it.
func pipeHost(t *testing.T, cfg ProtocolConfig, handle func(*Request) Response) (net.Conn, *LineReader) {
	t.Helper()
	cfg.Logf = func(string, ...interface{}) {}
	h := NewHost(cfg, func() (func(*Request) Response, func()) { return handle, nil })
	cs, ss := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); h.ServeConn(ss) }()
	t.Cleanup(func() { cs.Close(); <-done })
	return cs, NewLineReader(cs, 64<<20)
}

func roundTrip(t *testing.T, conn net.Conn, in *LineReader, line string) Response {
	t.Helper()
	errc := make(chan error, 1)
	go func() { _, err := io.WriteString(conn, line); errc <- err }()
	reply, err := in.ReadLine()
	if err != nil {
		t.Fatalf("no reply to a %d-byte line: %v", len(line), err)
	}
	var resp Response
	if err := json.Unmarshal(reply, &resp); err != nil {
		t.Fatalf("reply %q: %v", reply, err)
	}
	<-errc // the write ends when the server took the line or closed
	return resp
}

// TestOversizedLineGetsAnAnswer: a request over MaxLineBytes is refused in
// words — it used to be a log line and a silent close — and then the
// connection closes; a line just under the cap is served.
func TestOversizedLineGetsAnAnswer(t *testing.T) {
	pong := func(*Request) Response { return Response{Pong: true} }
	for _, size := range []int{1 << 10, 2 << 10, 200 << 10} {
		conn, in := pipeHost(t, ProtocolConfig{MaxLineBytes: 1 << 10}, pong)
		if resp := roundTrip(t, conn, in, `{"id":1,"cmd":"ping"}`+"\n"); !resp.Pong || resp.ID != 1 {
			t.Fatalf("ping before the long line = %+v", resp)
		}
		under := `{"id":2,"cmd":"ping","data":"` + strings.Repeat("x", 1<<10-32) + `"}`
		if len(under) != 1<<10-1 {
			t.Fatalf("test line is %d bytes", len(under))
		}
		if resp := roundTrip(t, conn, in, under+"\n"); !resp.Pong || resp.ID != 2 {
			t.Fatalf("a line one byte under the cap = %+v", resp)
		}
		resp := roundTrip(t, conn, in, `{"id":3,"cmd":"ping","data":"`+strings.Repeat("x", size)+`"}`+"\n")
		if resp.OK || resp.ID != 0 || resp.Error != "bad request: line exceeds 1024 bytes" {
			t.Fatalf("%d-byte line: reply %+v, want the refusal with id 0", size, resp)
		}
		if _, err := in.ReadLine(); err != io.EOF {
			t.Fatalf("%d-byte line: after the refusal the connection gives %v, want EOF", size, err)
		}
	}
}

// TestOversizedLineToADeafPeer: a peer that is still writing its line and
// never reads cannot pin the session's goroutine with the refusal it does
// not take. Over net.Pipe the write below ends only when the server closes
// its end — without a deadline on the refusal, never.
func TestOversizedLineToADeafPeer(t *testing.T) {
	conn, _ := pipeHost(t, ProtocolConfig{MaxLineBytes: 1 << 10}, func(*Request) Response { return Response{} })
	if _, err := io.WriteString(conn, strings.Repeat("x", 200<<10)+"\n"); err == nil {
		t.Fatal("the whole over-long line was taken")
	}
}

// commentedLoad is a load line of about size bytes whose graph is tiny: the
// bulk is a comment the text reader skips, so nothing of it may stay.
func commentedLoad(id, size int) string {
	data, _ := json.Marshal("# " + strings.Repeat("x", size) + "\ngraph 1\nn 0 person\n")
	return fmt.Sprintf(`{"id":%d,"cmd":"load","data":%s}`, id, data) + "\n"
}

func heapInuse() int64 {
	runtime.GC()
	runtime.GC() // the second empties sync.Pool's victim cache (encoding/json's buffers)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapInuse)
}

// TestSessionKeepsNoLine pins what the framing is for. A session that was
// sent one 4 MiB line holds, a hundred pings later, what it held before:
// with the Scanner it kept an 8 MiB buffer for the life of the connection.
func TestSessionKeepsNoLine(t *testing.T) {
	srv := New(Config{Logf: func(string, ...interface{}) {}})
	cs, ss := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeConn(ss) }()
	defer func() { cs.Close(); <-done }()
	in := NewLineReader(cs, 64<<20)

	if resp := roundTrip(t, cs, in, commentedLoad(1, 1<<10)); !resp.OK || resp.Nodes != 1 {
		t.Fatalf("small load = %+v", resp)
	}
	before := heapInuse()
	load := commentedLoad(2, 4<<20)
	if resp := roundTrip(t, cs, in, load); !resp.OK || resp.Nodes != 1 {
		t.Fatalf("4 MiB load = %+v", resp)
	}
	load = ""
	for i := 0; i < 100; i++ {
		if resp := roundTrip(t, cs, in, fmt.Sprintf(`{"id":%d,"cmd":"ping"}`+"\n", 3+i)); !resp.Pong {
			t.Fatalf("ping %d = %+v", i, resp)
		}
	}
	if grown := heapInuse() - before; grown > 1<<20 {
		t.Fatalf("the session holds %d KiB more than before its 4 MiB line", grown>>10)
	}
}

// TestLineReaderBuffer is the white-box half: the reader's own buffer is
// 64 KiB before and after a long line, the long line does not live in it,
// and a line that fits is read without allocating.
func TestLineReaderBuffer(t *testing.T) {
	long := strings.Repeat("x", 4<<20)
	short := `{"id":7,"cmd":"match","pattern":"qgp\nn xo person *\nn z person\ne xo z follow >=3\n","limit":10}`
	short += strings.Repeat(" ", 200-len(short))
	lr := NewLineReader(strings.NewReader(long+"\n"+short+"\n"), 64<<20)
	line, err := lr.ReadLine()
	if err != nil || len(line) != len(long) {
		t.Fatalf("long line: %d bytes, %v", len(line), err)
	}
	if cap(line) > len(long)+1 {
		t.Errorf("a %d-byte line sits in a buffer of %d", len(long), cap(line))
	}
	if line, err = lr.ReadLine(); err != nil || string(line) != short {
		t.Fatalf("line behind the long one = %q, %v", line, err)
	}
	if lr.br.Size() != 64<<10 || cap(line) > 64<<10 {
		t.Errorf("after a 4 MiB line the reader's buffer is %d bytes and a short line's view has cap %d; want 64 KiB", lr.br.Size(), cap(line))
	}

	stream := &repeatReader{line: []byte(short + "\n")}
	lr = NewLineReader(stream, 64<<20)
	if allocs := testing.AllocsPerRun(1000, func() {
		if line, err := lr.ReadLine(); err != nil || len(line) != 200 {
			t.Fatalf("%d bytes, %v", len(line), err)
		}
	}); allocs != 0 {
		t.Errorf("reading a 200-byte line allocates %v times", allocs)
	}
}

// repeatReader is an endless stream of one line.
type repeatReader struct {
	line []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.line[r.off:])
		n += c
		r.off = (r.off + c) % len(r.line)
	}
	return n, nil
}

var lineSink int

// BenchmarkServeLine is the framing's cost per request: nothing allocated
// for a line that fits the buffer, and at most 2.5 bytes per byte of a
// line that does not (its pieces, then one exact copy).
func BenchmarkServeLine(b *testing.B) {
	for _, size := range []int{200, 4 << 20} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			lr := NewLineReader(&repeatReader{line: []byte(strings.Repeat("x", size-1) + "\n")}, 64<<20)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				line, err := lr.ReadLine()
				if err != nil {
					b.Fatal(err)
				}
				lineSink += len(line)
			}
			b.StopTimer()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
			if float64(bytes) > 2.5*float64(size)*float64(b.N) {
				b.Fatalf("%d B/op for a %d-byte line", bytes/uint64(b.N), size)
			}
			// The runtime's own few allocations are not the reader's.
			if size <= 64<<10 && mallocs > 2+uint64(b.N)/1000 {
				b.Fatalf("%d allocations reading %d lines that fit the buffer", mallocs, b.N)
			}
		})
	}
}
