package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"

	"repro/internal/server"
)

// fakeServer answers each request line using fn, over a net.Pipe.
func fakeServer(t *testing.T, fn func(req server.Request) server.Response) *Client {
	t.Helper()
	cs, ss := net.Pipe()
	go func() {
		sc := bufio.NewScanner(ss)
		enc := json.NewEncoder(ss)
		for sc.Scan() {
			var req server.Request
			if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
				return
			}
			if err := enc.Encode(fn(req)); err != nil {
				return
			}
		}
	}()
	c := NewClient(cs)
	t.Cleanup(func() { c.Close(); ss.Close() })
	return c
}

func TestDoRoundTrip(t *testing.T) {
	c := fakeServer(t, func(req server.Request) server.Response {
		return server.Response{ID: req.ID, OK: true, Pong: req.Cmd == "ping"}
	})
	if _, err := c.Do(&server.Request{Cmd: "ping"}); err != nil {
		t.Fatal(err)
	}
	// IDs increment per request.
	resp, err := c.Do(&server.Request{Cmd: "ping"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 2 {
		t.Errorf("second request id = %d, want 2", resp.ID)
	}
}

func TestDoServerError(t *testing.T) {
	c := fakeServer(t, func(req server.Request) server.Response {
		return server.Response{ID: req.ID, OK: false, Error: "boom"}
	})
	_, err := c.Do(&server.Request{Cmd: "match"})
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ServerError", err)
	}
	if se.Error() != "server: boom" {
		t.Errorf("message = %q", se.Error())
	}
	// The connection keeps working after a command error.
	if _, err := c.Do(&server.Request{Cmd: "ping"}); err == nil {
		t.Log("fake always errors; expected error again")
	}
}

func TestDoIDMismatch(t *testing.T) {
	c := fakeServer(t, func(req server.Request) server.Response {
		return server.Response{ID: req.ID + 41, OK: true}
	})
	if _, err := c.Do(&server.Request{Cmd: "ping"}); err == nil {
		t.Fatal("mismatched response id accepted")
	}
}

func TestDoClosedConnection(t *testing.T) {
	cs, ss := net.Pipe()
	ss.Close()
	c := NewClient(cs)
	defer c.Close()
	if _, err := c.Do(&server.Request{Cmd: "ping"}); err == nil {
		t.Fatal("write to closed pipe succeeded")
	}
}

// TestDoWritesTheMarshalledLine: encoding straight onto the connection
// sends the bytes json.Marshal plus a newline sent, escapes included.
func TestDoWritesTheMarshalledLine(t *testing.T) {
	cs, ss := net.Pipe()
	c := NewClient(cs)
	defer c.Close()
	got := make(chan []byte, 1)
	go func() {
		line, _ := bufio.NewReader(ss).ReadBytes('\n')
		got <- line
		ss.Close()
	}()
	req := &server.Request{Cmd: "fragment", Format: "text", Data: "graph 1\nn 0 \"<a&b>\"\n", Owned: server.IDList{0, 2, 5},
		Updates: server.Batch{{Op: "addEdge", From: 1, To: 2, Label: "follow"}}}
	if _, err := c.Do(req); err == nil {
		t.Fatal("Do succeeded against a server that hung up")
	}
	want, err := json.Marshal(req) // req.ID is the one Do assigned
	if err != nil {
		t.Fatal(err)
	}
	if line := <-got; string(line) != string(want)+"\n" {
		t.Fatalf("wire line %q\nMarshal   %q", line, want)
	}
}

// hostClient serves one net.Pipe connection through a server.Host running
// handle and returns a client on the other end.
func hostClient(t *testing.T, handle func(*server.Request) server.Response) *Client {
	t.Helper()
	h := server.NewHost(server.ProtocolConfig{Logf: func(string, ...interface{}) {}},
		func() (func(*server.Request) server.Response, func()) { return handle, nil })
	cs, ss := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); h.ServeConn(ss) }()
	c := NewClient(cs)
	t.Cleanup(func() { c.Close(); <-done })
	return c
}

// TestResponseOverTheCap: a response line over the client's cap is named
// as that, cap included, the way the server names a request over its own.
func TestResponseOverTheCap(t *testing.T) {
	c := hostClient(t, func(req *server.Request) server.Response {
		return server.Response{Session: strings.Repeat("x", req.Size)}
	})
	c.in = server.NewLineReader(c.conn, 1<<10) // the 64 MiB of NewClient, scaled down
	if _, err := c.Do(&server.Request{Cmd: "ping", Size: 100}); err != nil {
		t.Fatalf("short response: %v", err)
	}
	_, err := c.Do(&server.Request{Cmd: "ping", Size: 2 << 10})
	var long server.LineTooLong
	if !errors.As(err, &long) || err.Error() != "client: read: line exceeds 1024 bytes" {
		t.Fatalf("2 KiB response under a 1 KiB cap: %v", err)
	}
}

// TestClientKeepsNoLine: after one 4 MiB response and a hundred pings the
// client holds what it held before — not, as with the Scanner, a buffer of
// twice the longest response for as long as the connection lives. The
// server end of the pipe is in the same heap, so this pins both.
func TestClientKeepsNoLine(t *testing.T) {
	c := hostClient(t, func(req *server.Request) server.Response {
		return server.Response{Pong: true, Session: strings.Repeat("x", req.Size)}
	})
	heapInuse := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties sync.Pool's victim cache (encoding/json's buffers)
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapInuse)
	}
	if _, err := c.Do(&server.Request{Cmd: "ping"}); err != nil {
		t.Fatal(err)
	}
	before := heapInuse()
	resp, err := c.Do(&server.Request{Cmd: "ping", Size: 4 << 20})
	if err != nil || len(resp.Session) != 4<<20 {
		t.Fatalf("4 MiB response: %v", err)
	}
	resp = nil
	for i := 0; i < 100; i++ {
		if _, err := c.Do(&server.Request{Cmd: "ping"}); err != nil {
			t.Fatal(err)
		}
	}
	if grown := heapInuse() - before; grown > 1<<20 {
		t.Fatalf("the client holds %d KiB more than before its 4 MiB response", grown>>10)
	}
}
