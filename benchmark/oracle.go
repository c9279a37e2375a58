package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/server"
)

// oracleFunc answers a pattern on a graph in a single process: the
// reference every program answer is compared with.
type oracleFunc func(g *graph.Graph, q *core.Pattern) ([]int64, error)

// qmatchOracle is the single-process engine, the reference for
// everything the service returns.
func qmatchOracle(g *graph.Graph, q *core.Pattern) ([]int64, error) {
	res, err := match.QMatch(g, q, nil)
	if err != nil {
		return nil, err
	}
	return toInt64(res.Matches), nil
}

// enumOracle is the paper's Enum baseline (enumerate every isomorphism,
// then check the quantifiers): the independent reference for
// match-single, where QMatch itself is the program under test.
func enumOracle(g *graph.Graph, q *core.Pattern) ([]int64, error) {
	res, err := match.Enum(g, q, nil)
	if err != nil {
		return nil, err
	}
	return toInt64(res.Matches), nil
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verify replays the first `final` batches of the schedule on a private
// graph.Versioned copy of the inputs and checks, at each version, the
// sampled reads that may have been served there; a read is right if it
// equals the oracle at any version in its window. At the last version it
// checks the client-side folded watch answers against from-scratch
// evaluation. It returns the number of wrong answers with a few
// descriptions.
func verify(in *inputs, oracle oracleFunc, final uint64, samples []readSample, folded []map[int64]bool) (wrong int, notes []string, err error) {
	note := func(format string, args ...interface{}) {
		wrong++
		if len(notes) < 3 {
			notes = append(notes, fmt.Sprintf(format, args...))
		}
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].lo < samples[j].lo })
	vg := graph.NewVersioned(in.g.Clone())
	next := 0        // samples[next:] have not become active yet
	var active []int // indexes of samples whose window is open and still unmatched
	for v := uint64(0); ; v++ {
		if v > 0 {
			ups, err := server.ToUpdates(in.batchFor(int(v - 1)))
			if err != nil {
				return 0, nil, err
			}
			if _, _, err := dynamic.ApplyVersioned(vg, ups); err != nil {
				return 0, nil, fmt.Errorf("oracle replay of batch %d: %w", v-1, err)
			}
		}
		for next < len(samples) && samples[next].lo <= v {
			active = append(active, next)
			next++
		}
		cache := make(map[int][]int64, len(active))
		keep := active[:0]
		for _, i := range active {
			s := samples[i]
			want, seen := cache[s.pat]
			if !seen {
				if want, err = oracle(vg.Graph(), in.mix[s.pat]); err != nil {
					return 0, nil, err
				}
				cache[s.pat] = want
			}
			switch {
			case equalIDs(s.got, want):
			case s.hi > v:
				keep = append(keep, i)
			default:
				note("match %s at version %d..%d: got %d ids, oracle has %d", mixDSL[s.pat].name, s.lo, s.hi, len(s.got), len(want))
			}
		}
		active = keep
		if v >= final {
			break
		}
	}
	for _, i := range active {
		note("match sampled at version %d..%d, beyond the %d batches sent", samples[i].lo, samples[i].hi, final)
	}
	for i := next; i < len(samples); i++ {
		note("match sampled at version %d, beyond the %d batches sent", samples[i].lo, final)
	}
	// folded[i] is the watch named watchName(i).
	cache := make(map[int][]int64)
	for i, set := range folded {
		pat := i % len(in.watch)
		want, seen := cache[pat]
		if !seen {
			if want, err = oracle(vg.Graph(), in.watch[pat]); err != nil {
				return 0, nil, err
			}
			cache[pat] = want
		}
		same := len(set) == len(want)
		for _, v := range want {
			same = same && set[v]
		}
		if !same {
			note("watch %s after %d batches: folded deltas give %d ids, from-scratch gives %d", watchName(i), final, len(set), len(want))
		}
	}
	return wrong, notes, nil
}
