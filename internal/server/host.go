package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"
)

// ProtocolConfig tunes a Host.
type ProtocolConfig struct {
	// MaxLineBytes bounds one request line (default 64 MiB).
	MaxLineBytes int
	// IdleTimeout closes connections with no request for this long
	// (default 5 minutes).
	IdleTimeout time.Duration
	// Logf receives diagnostics; nil means log.Printf.
	Logf func(format string, args ...interface{})
	// Name prefixes log lines ("server", "cluster frontend", ...).
	Name string
}

func (c *ProtocolConfig) fill() {
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 64 << 20
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Host is the listener lifecycle qgpd and qgpcluster share: the accept
// loop, connection tracking, Shutdown and the per-connection request
// loop, so neither lifecycle nor protocol framing can diverge between
// them. What differs between the two servers is only what a connection
// means, which open supplies.
type Host struct {
	pcfg ProtocolConfig
	// open is called once per connection and returns its request handler
	// and an optional cleanup run after the connection closes, graceful or
	// abrupt.
	open func() (handle func(*Request) Response, onClose func())

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]bool
	shutdown bool
	wg       sync.WaitGroup
}

// NewHost returns a host serving connections through open; cfg's zero
// values take the documented defaults.
func NewHost(cfg ProtocolConfig, open func() (handle func(*Request) Response, onClose func())) *Host {
	cfg.fill()
	return &Host{pcfg: cfg, open: open, conns: make(map[net.Conn]bool)}
}

// Logf writes one diagnostic line to the host's configured sink.
func (h *Host) Logf(format string, args ...interface{}) { h.pcfg.Logf(format, args...) }

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error; after Shutdown the error is net.ErrClosed.
func (h *Host) Serve(ln net.Listener) error {
	h.mu.Lock()
	if h.shutdown {
		h.mu.Unlock()
		return net.ErrClosed
	}
	h.ln = ln
	h.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		h.mu.Lock()
		if h.shutdown {
			h.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		h.conns[conn] = true
		h.wg.Add(1)
		h.mu.Unlock()
		go func() {
			defer h.wg.Done()
			h.ServeConn(conn)
			h.mu.Lock()
			delete(h.conns, conn)
			h.mu.Unlock()
		}()
	}
}

// ServeConn serves the protocol on one established connection and blocks
// until it closes. It lets a server be embedded without a listener — the
// cluster's in-process transport pairs it with a buffered in-memory
// connection. Connections served this way are not tracked by Shutdown;
// close them directly.
func (h *Host) ServeConn(conn net.Conn) {
	handle, onClose := h.open()
	if onClose != nil {
		defer onClose()
	}
	h.serveProtocol(conn, handle)
}

// Shutdown stops accepting, closes the listener and all connections, and
// waits for in-flight handlers (or the context).
func (h *Host) Shutdown(ctx context.Context) error {
	h.mu.Lock()
	h.shutdown = true
	if h.ln != nil {
		h.ln.Close()
	}
	for c := range h.conns {
		c.Close()
	}
	h.mu.Unlock()

	done := make(chan struct{})
	go func() {
		h.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// state reports the number of tracked connections and whether Shutdown
// has begun.
func (h *Host) state() (conns int, shuttingDown bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.conns), h.shutdown
}

// LineReader is the protocol's line framing, shared by server and client:
// '\n'- or "\r\n"-terminated lines, and a final unterminated one, read
// through a fixed 64 KiB buffer. A line that fits is a view into that
// buffer, valid until the next ReadLine; a longer one is assembled in a
// buffer of its own that the reader does not keep, so a connection holds
// 64 KiB between requests, not the largest line it ever carried. Bytes
// after the line stay buffered for the next call.
type LineReader struct {
	br  *bufio.Reader
	max int
	err error // sticky: a reader that failed once is finished
}

// LineTooLong is ReadLine's error once Max bytes arrived without a '\n'.
type LineTooLong struct{ Max int }

func (e LineTooLong) Error() string { return fmt.Sprintf("line exceeds %d bytes", e.Max) }

// NewLineReader reads lines from r and refuses one of max bytes or more.
func NewLineReader(r io.Reader, max int) *LineReader {
	return &LineReader{br: bufio.NewReaderSize(r, 64<<10), max: max}
}

// ReadLine returns the next line without its terminator, empty ones
// included. The cap is enforced while a line is assembled: no more than max
// bytes of a refused one are ever held. A read error ends the stream once
// the bytes that preceded it were served as a last line.
func (lr *LineReader) ReadLine() ([]byte, error) {
	if lr.err != nil {
		return nil, lr.err
	}
	line, err := lr.br.ReadSlice('\n')
	var chunks [][]byte // the buffer-sized pieces of a line that outgrew the buffer
	n := len(line)
	for err == bufio.ErrBufferFull && n < lr.max {
		chunks = append(chunks, append([]byte(nil), line...))
		line, err = lr.br.ReadSlice('\n')
		n += len(line)
	}
	if err == nil {
		n-- // the '\n' does not count
	}
	if n >= lr.max {
		lr.err = LineTooLong{lr.max}
		return nil, lr.err
	}
	if chunks != nil {
		// One exact-size copy: the line costs twice its length while it is
		// put together and nothing once its handler returns.
		long := make([]byte, 0, n+1)
		for _, c := range chunks {
			long = append(long, c...)
		}
		line = append(long, line...)
	}
	if err != nil {
		lr.err = err
		if len(line) == 0 {
			return nil, err
		}
	}
	line = bytes.TrimSuffix(line, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r")), nil
}

// LineWriter is the protocol's line writing, shared by server and client:
// the codec (codec.go) encodes each envelope into one buffer, written with
// its newline in one Write. The buffer is kept for the next line only up to
// keptLineBytes, so a connection holds the line in flight, not the largest
// line it ever sent.
type LineWriter struct {
	w   io.Writer
	buf []byte
}

const keptLineBytes = 64 << 10

// NewLineWriter writes lines to w.
func NewLineWriter(w io.Writer) *LineWriter { return &LineWriter{w: w} }

// WriteRequest writes r as one line.
func (lw *LineWriter) WriteRequest(r *Request) error {
	return lw.write(func(b []byte) ([]byte, error) { return AppendRequest(b, r) })
}

// WriteResponse writes r as one line.
func (lw *LineWriter) WriteResponse(r *Response) error {
	return lw.write(func(b []byte) ([]byte, error) { return AppendResponse(b, r) })
}

func (lw *LineWriter) write(encode func([]byte) ([]byte, error)) error {
	line, err := encode(lw.buf[:0])
	if err != nil {
		return err
	}
	_, err = lw.w.Write(append(line, '\n'))
	lw.buf = nil
	if cap(line) <= keptLineBytes {
		lw.buf = line
	}
	return err
}

// serveProtocol runs the newline-delimited JSON request loop on one
// connection, dispatching each decoded request to handle and writing its
// response with the ID/OK/Error envelope filled in. It closes conn and
// returns when the peer disconnects, a line exceeds MaxLineBytes (the peer
// is told so first), or the connection idles out.
func (h *Host) serveProtocol(conn net.Conn, handle func(*Request) Response) {
	cfg := &h.pcfg
	defer conn.Close()
	in := NewLineReader(conn, cfg.MaxLineBytes)
	out := NewLineWriter(conn)

	var req Request // one for the connection: no handler keeps its request
	for {
		conn.SetReadDeadline(time.Now().Add(cfg.IdleTimeout))
		line, err := in.ReadLine()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				cfg.Logf("%s: %v: read: %v", cfg.Name, conn.RemoteAddr(), err)
			}
			if _, tooLong := err.(LineTooLong); tooLong {
				// A peer still writing its line is not reading, and what a
				// connection buffers is bounded (an in-memory one's 64 KiB,
				// a socket's window): the refusal gets a second, not
				// forever. Whether it arrives or not, the connection closes.
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				_ = out.WriteResponse(&Response{Error: fmt.Sprintf("bad request: %v", err)})
			}
			return
		}
		if len(line) == 0 {
			continue
		}
		req = Request{}
		resp := Response{}
		if err := DecodeRequest(line, &req); err != nil {
			resp.Error = fmt.Sprintf("bad request: %v", err)
		} else {
			resp = handle(&req)
		}
		resp.ID = req.ID
		resp.OK = resp.Error == ""
		if err := out.WriteResponse(&resp); err != nil {
			cfg.Logf("%s: %v: write: %v", cfg.Name, conn.RemoteAddr(), err)
			return
		}
	}
}
