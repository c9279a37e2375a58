package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
)

// TestTransportErrorPaths distinguishes the two failure classes a
// transport surfaces, for both the TCP (Dial) and embedded (InProcess)
// transports:
//
//   - protocol-level: the worker is alive and replies with an error
//     response — a *client.ServerError, the connection stays usable,
//     and the cluster layer must NOT fail the worker over;
//   - connection-level: the worker dies mid-request — any other error,
//     which is exactly what triggers failover.
func TestTransportErrorPaths(t *testing.T) {
	silent := func(string, ...interface{}) {}
	transports := []struct {
		name string
		// make returns a connected transport and a function that kills
		// the server side abruptly.
		make func(t *testing.T) (Transport, func())
	}{
		{
			name: "dial",
			make: func(t *testing.T) (Transport, func()) {
				t.Helper()
				srv := server.New(server.Config{Logf: silent})
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go srv.Serve(ln)
				tr, err := Dial(ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				drop := func() {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					srv.Shutdown(ctx)
				}
				return tr, drop
			},
		},
		{
			name: "inprocess",
			make: func(t *testing.T) (Transport, func()) {
				t.Helper()
				srv := server.New(server.Config{Logf: silent})
				clientEnd, serverEnd := net.Pipe()
				go srv.ServeConn(serverEnd)
				return client.NewClient(clientEnd), func() { serverEnd.Close() }
			},
		},
	}
	modes := []struct {
		name string
		run  func(t *testing.T, tr Transport, drop func())
	}{
		{
			name: "protocol-error",
			run: func(t *testing.T, tr Transport, drop func()) {
				_, err := tr.Do(&server.Request{Cmd: "bogus"})
				if err == nil {
					t.Fatal("unknown command succeeded")
				}
				var se *client.ServerError
				if !errors.As(err, &se) {
					t.Fatalf("worker error response surfaced as %T (%v), want *client.ServerError", err, err)
				}
				// The session survives a command error: the very same
				// connection must keep answering.
				resp, err := tr.Do(&server.Request{Cmd: "ping"})
				if err != nil || !resp.Pong {
					t.Fatalf("ping after protocol error: resp=%+v err=%v", resp, err)
				}
			},
		},
		{
			name: "connection-drop",
			run: func(t *testing.T, tr Transport, drop func()) {
				if _, err := tr.Do(&server.Request{Cmd: "ping"}); err != nil {
					t.Fatalf("ping before drop: %v", err)
				}
				drop()
				_, err := tr.Do(&server.Request{Cmd: "ping"})
				if err == nil {
					t.Fatal("request against a dead worker succeeded")
				}
				var se *client.ServerError
				if errors.As(err, &se) {
					t.Fatalf("connection drop surfaced as a protocol error: %v", err)
				}
			},
		},
	}
	for _, tc := range transports {
		for _, mode := range modes {
			tc, mode := tc, mode
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				tr, drop := tc.make(t)
				t.Cleanup(func() { tr.Close() })
				mode.run(t, tr, drop)
			})
		}
	}
}

// tampered lets a test rewrite a worker's match replies after the real
// worker produced them.
type tampered struct {
	Transport
	rewrite func(*server.Response)
}

func (t *tampered) Do(req *server.Request) (*server.Response, error) {
	resp, err := t.Transport.Do(req)
	if err == nil && req.Cmd == "match" && t.rewrite != nil {
		t.rewrite(resp)
	}
	return resp, err
}

// TestWorkerReplyIsOutsideInput: the coordinator does not trust what a
// worker sends. An id outside the fragment fails the match with an error
// naming the worker; a reply out of order, or one claiming a node another
// worker also answers for, still merges into the exact ascending answer.
func TestWorkerReplyIsOutsideInput(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(300, 3))
	q := mustParse(t, testPatterns[0])
	cases := []struct {
		name   string
		worker int
		// rewrite returns an error when the fixture cannot show the case.
		rewrite func(c *Coordinator, clean []graph.NodeID, resp *server.Response) error
		wantErr string
	}{
		{
			name:   "local id past the fragment",
			worker: 1,
			rewrite: func(c *Coordinator, _ []graph.NodeID, resp *server.Response) error {
				resp.Matches = append(resp.Matches, 1<<20)
				return nil
			},
			wantErr: "cluster: worker 1 returned local node 1048576 outside [0, ",
		},
		{
			name:   "negative local id",
			worker: 0,
			rewrite: func(c *Coordinator, _ []graph.NodeID, resp *server.Response) error {
				resp.Matches = append(server.IDList{-7}, resp.Matches...)
				return nil
			},
			wantErr: "cluster: worker 0 returned local node -7 outside [0, ",
		},
		{
			name:   "reply not ascending",
			worker: 0,
			rewrite: func(c *Coordinator, _ []graph.NodeID, resp *server.Response) error {
				if len(resp.Matches) < 2 {
					return errors.New("worker 0 answers fewer than two nodes: nothing to reorder")
				}
				slices.Reverse(resp.Matches)
				return nil
			},
		},
		{
			name:   "node claimed by two workers",
			worker: 0,
			rewrite: func(c *Coordinator, clean []graph.NodeID, resp *server.Response) error {
				for _, v := range clean {
					if lv, held := c.workers[0].ids.local(v); held && c.workers[1].ids.owns(v) {
						resp.Matches = append(resp.Matches, int64(lv))
						return nil
					}
				}
				return errors.New("no answer of worker 1 is materialized at worker 0")
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := InProcessN(2, server.Config{})
			t.Cleanup(func() { CloseAll(ts) })
			tamper := &tampered{Transport: ts[tc.worker]}
			ts[tc.worker] = tamper
			c, err := New(g.Clone(), ts, Config{D: 2})
			if err != nil {
				t.Fatalf("cluster.New: %v", err)
			}
			clean, err := c.Match(q)
			if err != nil {
				t.Fatalf("Match before tampering: %v", err)
			}
			var fixtureErr error // written by the fan-out goroutine Match waits for
			tamper.rewrite = func(resp *server.Response) { fixtureErr = tc.rewrite(c, clean.Matches, resp) }
			got, err := c.Match(q)
			if fixtureErr != nil {
				t.Fatal(fixtureErr)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
					t.Fatalf("Match = %v, want an error starting %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Match: %v", err)
			}
			if !reflect.DeepEqual(got.Matches, clean.Matches) {
				t.Fatalf("merged answer %v, want the untampered %v", got.Matches, clean.Matches)
			}
		})
	}
}

// TestMalformedIDBlock: a packed id list that does not decode is an error
// on the hop that decodes it, in both directions, and the connection is
// still in step afterwards. Towards the worker it is a protocol error (the
// server answers "bad request"); from the worker it is the client's decode
// error, which the coordinator treats like any unreadable reply.
func TestMalformedIDBlock(t *testing.T) {
	// "gA==" is the single byte 0x80: a varint that never ends.
	blocks := []string{`"gA=="`, `"not base64!"`, `"AAQ"`, `"` + strings.Repeat("/", 16) + `"`}

	t.Run("request", func(t *testing.T) {
		clientEnd, serverEnd := net.Pipe()
		go server.New(server.Config{Logf: func(string, ...interface{}) {}}).ServeConn(serverEnd)
		defer clientEnd.Close()
		rd := bufio.NewReader(clientEnd)
		for i, block := range blocks {
			fmt.Fprintf(clientEnd, `{"id":%d,"cmd":"update","owned":%s}`+"\n", i+1, block)
			line, err := rd.ReadString('\n')
			if err != nil {
				t.Fatalf("block %s: no reply: %v", block, err)
			}
			if !strings.Contains(line, `"ok":false`) || !strings.Contains(line, "bad request") {
				t.Fatalf("block %s: reply %s, want a bad-request error", block, line)
			}
		}
		c := client.NewClient(clientEnd)
		if _, err := c.Do(&server.Request{Cmd: "ping"}); err != nil {
			t.Fatalf("ping after the malformed requests: %v", err)
		}
	})

	t.Run("reply", func(t *testing.T) {
		clientEnd, workerEnd := net.Pipe()
		defer clientEnd.Close()
		// A worker that answers request i with block i as its matches, then
		// a well-formed pong.
		go func() {
			defer workerEnd.Close()
			rd := bufio.NewReader(workerEnd)
			for i := 0; ; i++ {
				if _, err := rd.ReadString('\n'); err != nil {
					return
				}
				if i < len(blocks) {
					fmt.Fprintf(workerEnd, `{"id":%d,"ok":true,"matches":%s}`+"\n", i+1, blocks[i])
				} else {
					fmt.Fprintf(workerEnd, `{"id":%d,"ok":true,"pong":true}`+"\n", i+1)
				}
			}
		}()
		var tr Transport = client.NewClient(clientEnd)
		for _, block := range blocks {
			_, err := tr.Do(&server.Request{Cmd: "match"})
			var se *client.ServerError
			if err == nil || errors.As(err, &se) || !strings.Contains(err.Error(), "decode") {
				t.Fatalf("block %s: Do = %v, want the client's decode error", block, err)
			}
		}
		resp, err := tr.Do(&server.Request{Cmd: "ping"})
		if err != nil || !resp.Pong {
			t.Fatalf("ping after the malformed replies: resp=%+v err=%v", resp, err)
		}
	})
}
