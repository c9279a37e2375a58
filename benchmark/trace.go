package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/server"
)

// Tracing is done from outside the program: the rig hands the front end
// wrapped transports, a wrapped worker pool and a wrapped journal, and
// the clients time their own calls. No product code is touched.

// opClass separates the two kinds of fan-out. The coordinator runs
// updates under its write lock and matches under its read lock, so at
// most one op of each class is inside the transports at a time and a
// transport call can be charged to "the current op of its class" even
// when a writer and a reader run side by side.
type opClass int

const (
	classMatch opClass = iota
	classUpdate
	numClasses
)

func classOf(cmd string) opClass {
	if cmd == "match" {
		return classMatch
	}
	return classUpdate
}

// call is one request seen at a seam during an op.
type call struct {
	name       string // client | transport | mirror | journal
	start, end time.Time
	compute    time.Duration // Response.ElapsedMS: the worker's own time
	req        *server.Request
	resp       *server.Response
}

// opTrace is one client operation and the seam calls it caused.
type opTrace struct {
	id         int64
	name       string
	start, end time.Time
	calls      []call
}

// span is the written form: name, start, end, parent and op id.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index in the file, -1 for an op's root
	Op      int64  `json:"op"`
}

// recorder collects spans in memory. Off (the untraced half of a traced
// run) it costs one atomic load per seam call.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	cur   [numClasses]*opTrace
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens an op of the class; end closes it, files its spans and
// returns it for the caller's own accounting.
func (r *recorder) begin(c opClass, name string) *opTrace {
	if !r.on.Load() {
		return nil
	}
	r.mu.Lock()
	r.next++
	op := &opTrace{id: r.next, name: name, start: time.Now()}
	r.cur[c] = op
	r.mu.Unlock()
	return op
}

func (r *recorder) end(c opClass, op *opTrace) {
	if op == nil {
		return
	}
	op.end = time.Now()
	r.mu.Lock()
	r.cur[c] = nil
	root := len(r.spans)
	r.spans = append(r.spans, span{op.name, op.start.Sub(r.epoch).Nanoseconds(), op.end.Sub(r.epoch).Nanoseconds(), -1, op.id})
	for _, cl := range op.calls {
		r.spans = append(r.spans, span{cl.name, cl.start.Sub(r.epoch).Nanoseconds(), cl.end.Sub(r.epoch).Nanoseconds(), root, op.id})
	}
	r.mu.Unlock()
}

func (r *recorder) add(c opClass, cl call) {
	r.mu.Lock()
	if op := r.cur[c]; op != nil {
		op.calls = append(op.calls, cl)
	}
	r.mu.Unlock()
}

// hop records the client's own request and response as a call of the
// current op; a nil or switched-off recorder ignores it.
func (r *recorder) hop(c opClass, req *server.Request, resp *server.Response, start, end time.Time) {
	if r != nil && r.on.Load() {
		r.add(c, call{name: "client", start: start, end: end, req: req, resp: resp})
	}
}

func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// pooledTransport is what ha.Pool hands out: the coordinator's read
// router and replica placement look for the two optional interfaces, so
// a wrapper has to keep them.
type pooledTransport interface {
	cluster.Transport
	cluster.Endpointer
	cluster.ReadTracker
}

type tracedTransport struct {
	pooledTransport
	rec  *recorder
	name string // transport (a primary at placement) | mirror (a replica)
}

func (t *tracedTransport) Do(req *server.Request) (*server.Response, error) {
	if !t.rec.on.Load() {
		return t.pooledTransport.Do(req)
	}
	start := time.Now()
	resp, err := t.pooledTransport.Do(req)
	cl := call{name: t.name, start: start, end: time.Now(), req: req, resp: resp}
	if resp != nil {
		cl.compute = time.Duration(resp.ElapsedMS * float64(time.Millisecond))
	}
	// A routed read may land on a replica; it is still the op's
	// fan-out, not mirroring.
	if req.Cmd == "match" {
		cl.name = "transport"
	}
	t.rec.add(classOf(req.Cmd), cl)
	return resp, err
}

func wrapTransport(t cluster.Transport, rec *recorder, name string) (cluster.Transport, error) {
	pt, ok := t.(pooledTransport)
	if !ok {
		return nil, fmt.Errorf("trace: %T is not a pool transport", t)
	}
	return &tracedTransport{pooledTransport: pt, rec: rec, name: name}, nil
}

// tracedPool wraps the sessions the coordinator acquires for replicas.
type tracedPool struct {
	inner cluster.WorkerPool
	rec   *recorder
}

func (p *tracedPool) Get(weight int, avoid map[int]bool) (cluster.Transport, int, error) {
	t, ep, err := p.inner.Get(weight, avoid)
	if err != nil {
		return nil, ep, err
	}
	wt, err := wrapTransport(t, p.rec, "mirror")
	if err != nil {
		t.Close()
		return nil, ep, err
	}
	return wt, ep, nil
}

type tracedJournal struct {
	inner cluster.UpdateJournal
	rec   *recorder
}

func (j *tracedJournal) SetGraph(g *graph.Graph) error { return j.inner.SetGraph(g) }
func (j *tracedJournal) WatchRegistered(name, pattern string) error {
	return j.inner.WatchRegistered(name, pattern)
}
func (j *tracedJournal) WatchRemoved(name string) error { return j.inner.WatchRemoved(name) }

func (j *tracedJournal) AppendBatch(specs []server.UpdateSpec) error {
	if !j.rec.on.Load() {
		return j.inner.AppendBatch(specs)
	}
	start := time.Now()
	err := j.inner.AppendBatch(specs)
	j.rec.add(classUpdate, call{name: "journal", start: start, end: time.Now()})
	return err
}

// union is the total time covered by the calls that keep(call) selects.
func union(calls []call, keep func(*call) bool) time.Duration {
	type iv struct{ s, e time.Time }
	var ivs []iv
	for i := range calls {
		if keep(&calls[i]) {
			ivs = append(ivs, iv{calls[i].start, calls[i].end})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var total time.Duration
	var curS, curE time.Time
	for i, v := range ivs {
		if i == 0 || v.s.After(curE) {
			total += curE.Sub(curS)
			curS, curE = v.s, v.e
		} else if v.e.After(curE) {
			curE = v.e
		}
	}
	return total + curE.Sub(curS)
}
