package ha

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/tenant"
)

// The merged-delta goldens: one seeded script of benchmark-shaped batches
// over a journaled cluster of 2 spawn-pool workers with replicas 2, the
// benchmark's 4 watch patterns held under 2 names each by 2 tenants, and a
// primary killed mid-script so a batch replays through failover. Run
// against cluster.New, every UpdateResult.Deltas entry is recorded; run
// through a cluster.Frontend, every reply line. The coordinator's was
// recorded at 6ecd0ac, when every worker reply still listed every watch;
// the front end's again when a writer's reply began to carry its watches'
// inbox entries folded with its own deltas (tenant.RecordDeltas), since
// the tenants write in turn and so nearly every reply changed.
const (
	goldenPersons = 1000
	goldenBatches = 1024
	goldenKillAt  = 500 // the batch before which worker 0's primary dies
	goldenSeed    = 25
	goldenDrain   = 64 // every this many batches both tenants drain deltas
)

var goldenTenants = [...]string{"alice", "bob"}

// goldenPatterns are the benchmark's standing watches: radius 1 on the
// follow edges the batches churn.
var goldenPatterns = [...]string{
	"qgp\nn xo person *\nn z person\ne xo z follow >=3\n",
	"qgp\nn xo person *\nn z person\ne xo z follow =0\n",
	"qgp\nn xo person *\nn z person\ne xo z follow <=5\n",
	"qgp\nn xo person *\nn z person\ne xo z follow >=10\n",
}

// goldenBatch is benchmark/workloads.go's batch i for a graph of n nodes:
// 4 follow edges between hashed persons, the 4 of batch i-4 removed, and
// every 16th batch a person added, removed again half a period later.
func goldenBatch(n, i int) []server.UpdateSpec {
	pair := func(k int) (int64, int64) {
		x := uint64(goldenSeed)<<32 ^ uint64(k) // SplitMix64 of (seed, k)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		h := x ^ (x >> 31)
		from, to := int64(h%goldenPersons), int64((h>>32)%goldenPersons)
		if to == from {
			to = (to + 1) % goldenPersons
		}
		return from, to
	}
	var specs []server.UpdateSpec
	for j := 0; j < 4; j++ {
		from, to := pair(4*i + j)
		specs = append(specs, server.UpdateSpec{Op: "addEdge", From: from, To: to, Label: "follow"})
	}
	for j := 0; j < 4 && i >= 4; j++ {
		from, to := pair(4*(i-4) + j)
		specs = append(specs, server.UpdateSpec{Op: "removeEdge", From: from, To: to, Label: "follow"})
	}
	switch i % 16 {
	case 0:
		specs = append(specs, server.UpdateSpec{Op: "addNode", Label: "person"})
	case 8:
		specs = append(specs, server.UpdateSpec{Op: "removeNode", From: int64(n + i/16)})
	}
	return specs
}

// coordinatorTranscript runs the script against cluster.New: one line per
// batch, every entry of UpdateResult.Deltas as name, Affected, +added and
// -removed.
func coordinatorTranscript(t *testing.T) string {
	g := gen.Social(gen.DefaultSocial(goldenPersons, 1))
	j, err := OpenJournal(t.TempDir(), JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	pool := NewSpawnPool(3, server.Config{})
	ts, err := pool.Primaries(2)
	if err != nil {
		t.Fatal(err)
	}
	var promoted failovers
	c, err := cluster.New(g.Clone(), ts, cluster.Config{D: 2, Replicas: 2, Pool: pool, Journal: j, Logf: promoted.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tn := range goldenTenants {
		for p, dsl := range goldenPatterns {
			if _, err := c.Watch(tenant.GlobalName(tn, fmt.Sprintf("w%d", p)), mustParse(t, dsl)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out strings.Builder
	for i := 0; i < goldenBatches; i++ {
		if i == goldenKillAt {
			ts[0].Close()
		}
		res, err := c.Update(goldenBatch(g.NumNodes(), i))
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		fmt.Fprintf(&out, "%d", i)
		for _, d := range res.Deltas {
			fmt.Fprintf(&out, " %q:%d", d.Watch, d.Affected)
			if len(d.Added) > 0 {
				fmt.Fprintf(&out, "+%v", []int64(d.Added))
			}
			if len(d.Removed) > 0 {
				fmt.Fprintf(&out, "-%v", []int64(d.Removed))
			}
		}
		out.WriteByte('\n')
	}
	promoted.check(t)
	return out.String()
}

// elapsed is the one field of a reply that is a timing.
var elapsed = regexp.MustCompile(`,"elapsedMs":[-+.0-9e]+`)

// frontendTranscript runs the script through a journaled cluster.Frontend
// over raw lines: each tenant on its own connection registers its 4
// watches, the tenants write the batches in turn (packed, as
// internal/client sends them), and every goldenDrain batches both drain
// their deltas. Every reply line is recorded, elapsedMs cut out.
func frontendTranscript(t *testing.T) string {
	j, err := OpenJournal(t.TempDir(), JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	pool := NewSpawnPool(3, server.Config{})
	var primaries []cluster.Transport
	var promoted failovers
	fe := cluster.NewFrontend(cluster.FrontendConfig{
		Cluster: cluster.Config{D: 2, Replicas: 2, Pool: pool, Logf: promoted.logf},
		NewWorkers: func() ([]cluster.Transport, error) {
			ts, err := pool.Primaries(2)
			primaries = ts
			return ts, err
		},
		Durable: &cluster.DurableState{Journal: j},
		Tenancy: tenant.Config{MaxWatches: -1, IdleTimeout: -1},
		Logf:    func(string, ...interface{}) {},
	})
	defer shutdownFrontend(t, fe)

	var out strings.Builder
	type conn struct {
		net.Conn
		rd *bufio.Reader
	}
	conns := make(map[string]conn)
	id := 0
	send := func(tn, line string) {
		t.Helper()
		id++
		c := conns[tn]
		if _, err := fmt.Fprintf(c, `{"id":%d,%s}`+"\n", id, line); err != nil {
			t.Fatal(err)
		}
		reply, err := c.rd.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(elapsed.ReplaceAllString(reply, ""))
	}
	quote := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, tn := range goldenTenants {
		a, b := net.Pipe()
		go fe.ServeConn(a)
		defer b.Close()
		conns[tn] = conn{b, bufio.NewReader(b)}
		send(tn, `"cmd":"session","session":"`+tn+`"`)
	}
	send("alice", fmt.Sprintf(`"cmd":"gen","kind":"social","size":%d,"seed":1`, goldenPersons))
	for _, tn := range goldenTenants {
		for p, dsl := range goldenPatterns {
			send(tn, fmt.Sprintf(`"cmd":"watch","watch":"w%d","pattern":%s`, p, quote(dsl)))
		}
	}
	n := gen.Social(gen.DefaultSocial(goldenPersons, 1)).NumNodes()
	for i := 0; i < goldenBatches; i++ {
		if i == goldenKillAt {
			primaries[0].Close()
		}
		send(goldenTenants[i%2], `"cmd":"update","updates":`+quote(server.Batch(goldenBatch(n, i))))
		if (i+1)%goldenDrain == 0 {
			for _, tn := range goldenTenants {
				send(tn, `"cmd":"deltas"`)
			}
		}
	}
	promoted.check(t)
	return out.String()
}

// failovers counts a coordinator's replica promotions from its log.
type failovers struct{ n atomic.Int32 }

func (f *failovers) logf(format string, _ ...interface{}) {
	if strings.HasPrefix(format, "cluster: fragment %d: promoted warm replica") {
		f.n.Add(1)
	}
}

// check fails the test unless the killed primary's fragment failed over
// exactly once: the script sent a batch through promotion and replay.
func (f *failovers) check(t *testing.T) {
	t.Helper()
	if n := f.n.Load(); n != 1 {
		t.Fatalf("%d replica promotions, want the one the kill causes", n)
	}
}

// checkTranscript compares a transcript with its gzipped golden line by
// line and names the first line that differs.
func checkTranscript(t *testing.T, golden, got string) {
	t.Helper()
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) == got {
		return
	}
	wl, gl := bytes.Split(want, []byte("\n")), strings.Split(got, "\n")
	for i := 0; i < min(len(wl), len(gl)); i++ {
		if string(wl[i]) != gl[i] {
			t.Fatalf("%s: line %d is\n%s\nwant\n%s", golden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", golden, len(gl), len(wl))
}

// TestMergedDeltasGolden: the coordinator's merged deltas — names,
// Added, Removed, Affected — are what they were when every worker reply
// listed every watch.
func TestMergedDeltasGolden(t *testing.T) {
	checkTranscript(t, "testdata/merged-deltas-6ecd0ac.txt.gz", coordinatorTranscript(t))
}

// TestFrontendRepliesGolden: every reply line the front end writes over the
// same script is what it was when recorded.
func TestFrontendRepliesGolden(t *testing.T) {
	checkTranscript(t, "testdata/frontend-replies-folded.txt.gz", frontendTranscript(t))
}
