package main

import (
	"sort"
	"sync"
	"time"
)

// The reference box is a few vCPUs of a shared host, and how fast it runs
// this kind of code (hash maps, slices, pointer chasing over a few MiB)
// drifts by a tenth from minute to minute and by up to 1.7x for minutes
// at a time, with the same binary, the same inputs and nothing else
// running in the VM. A loop of dependent multiplications does not see it
// and a pointer chase hardly does; a small graph traversal written like
// the product's own code tracks it. So every run carries its own yardstick:
// a goroutine runs a fixed traversal of a benchmark-owned graph every
// refEvery, and the bounded timings are reported at the reference box's
// quiet speed, raw ÷ (median traversal time in the same interval ÷
// refNominal). The raw values and the factor are printed beside them.
// Nothing of the product is in the yardstick, so a product change cannot
// move it.
const (
	refNodes  = 40000
	refStarts = 64
	refEvery  = 25 * time.Millisecond
	// refNominal is the traversal's median on the reference box when it
	// is quiet. It only fixes the unit: a different constant scales every
	// adjusted value of every commit alike.
	refNominal = 440 * time.Microsecond
)

// refGraph is a labelled random digraph in CSR form, 2 to 13 out-edges
// per node, about 1.5 MiB: past L1, inside L2.
type refGraph struct {
	off, adj []int32
	lab      []uint8
}

func newRefGraph() *refGraph {
	g := &refGraph{off: make([]int32, refNodes+1), lab: make([]uint8, refNodes)}
	x := uint64(99)
	for i := 0; i < refNodes; i++ {
		x = splitmix(x)
		g.off[i+1] = g.off[i] + 2 + int32(x%12)
		g.lab[i] = uint8((x >> 40) % 4)
	}
	g.adj = make([]int32, g.off[refNodes])
	for i := range g.adj {
		x = splitmix(x)
		g.adj[i] = int32(x % refNodes)
	}
	return g
}

// traverse is the yardstick's unit of work: from refStarts start nodes
// (a fixed pseudo-random sequence continued through *ctr), count in a
// hash map how often each labelled node is reached in two hops and sort
// those of one label. It returns a number that depends on all of it.
func (g *refGraph) traverse(ctr *uint64) int {
	total := 0
	for s := 0; s < refStarts; s++ {
		*ctr++
		v := int32(splitmix(*ctr) % refNodes)
		cnt := make(map[int32]int)
		for _, u := range g.adj[g.off[v]:g.off[v+1]] {
			for _, w := range g.adj[g.off[u]:g.off[u+1]] {
				if g.lab[w] != 0 {
					cnt[w]++
				}
			}
		}
		var out []int32
		for w := range cnt {
			if g.lab[w] == 1 {
				out = append(out, w)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		total += len(out)
	}
	return total
}

// speedometer times the reference traversal every refEvery from a
// goroutine of its own, from start to stop: under 2% of one CPU.
type speedometer struct {
	stopc, done chan struct{}

	mu   sync.Mutex
	at   []time.Time // start of each traversal
	took []time.Duration
	sink int
}

func startSpeedometer() *speedometer {
	s := &speedometer{stopc: make(chan struct{}), done: make(chan struct{})}
	g := newRefGraph()
	var ctr uint64
	sample := func() {
		t0 := time.Now()
		n := g.traverse(&ctr)
		d := time.Since(t0)
		s.mu.Lock()
		s.at, s.took, s.sink = append(s.at, t0), append(s.took, d), s.sink+n
		s.mu.Unlock()
	}
	sample() // so that there is never no sample
	go func() {
		defer close(s.done)
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return s
}

// stop ends the goroutine and waits for it; the samples stay readable.
func (s *speedometer) stop() {
	close(s.stopc)
	<-s.done
}

// during returns the median traversal time of the samples started in
// [from, to] and their number. An interval too short to hold one falls
// back on every sample so far; there is always the one taken at start.
func (s *speedometer) during(from, to time.Time) (time.Duration, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var in []time.Duration
	for i, t := range s.at {
		if !t.Before(from) && !t.After(to) {
			in = append(in, s.took[i])
		}
	}
	if len(in) == 0 {
		in = s.took
	}
	return time.Duration(median(in) * float64(time.Second)), len(in)
}

// recent is the machine's slowdown over the last half second of samples:
// what the open-loop writer paces itself by.
func (s *speedometer) recent() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := s.took[max(0, len(s.took)-int(500*time.Millisecond/refEvery)):]
	return slowdown(time.Duration(median(last) * float64(time.Second)))
}

// slowdown is how much slower than the reference box's quiet speed the
// machine ran while the traversal took d: timings are divided by it,
// rates multiplied.
func slowdown(d time.Duration) float64 { return float64(d) / float64(refNominal) }
