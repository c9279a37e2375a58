package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
// cluster's in-process transport pairs it with net.Pipe. Connections
// served this way are not tracked by Shutdown; close them directly.
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

// serveProtocol runs the newline-delimited JSON request loop on one
// connection, dispatching each decoded request to handle and writing its
// response with the ID/OK/Error envelope filled in. It closes conn and
// returns when the peer disconnects, a line exceeds MaxLineBytes, or the
// connection idles out.
func (h *Host) serveProtocol(conn net.Conn, handle func(*Request) Response) {
	cfg := &h.pcfg
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), cfg.MaxLineBytes)
	out := bufio.NewWriter(conn)
	enc := json.NewEncoder(out)

	for {
		conn.SetReadDeadline(time.Now().Add(cfg.IdleTimeout))
		if !sc.Scan() {
			if err := sc.Err(); err != nil && !errors.Is(err, net.ErrClosed) {
				cfg.Logf("%s: %v: read: %v", cfg.Name, conn.RemoteAddr(), err)
			}
			return
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		resp := Response{}
		if err := json.Unmarshal(line, &req); err != nil {
			resp.Error = fmt.Sprintf("bad request: %v", err)
		} else {
			resp = handle(&req)
		}
		resp.ID = req.ID
		resp.OK = resp.Error == ""
		if err := enc.Encode(&resp); err != nil {
			cfg.Logf("%s: %v: write: %v", cfg.Name, conn.RemoteAddr(), err)
			return
		}
		if err := out.Flush(); err != nil {
			return
		}
	}
}
