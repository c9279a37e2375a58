// Package bitset provides the dense bit sets used for candidate sets in
// graph simulation and subgraph matching.
package bitset

import "math/bits"

// Set is a bit set over [0, Len); only Grow changes its capacity.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity n.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity of the set.
func (s *Set) Len() int { return s.n }

// Grow raises the capacity to n, keeping the elements; a smaller n is a
// no-op. Sets over a graph's node ids grow with the graph.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	for len(s.words) < (n+63)/64 {
		s.words = append(s.words, 0)
	}
	s.n = n
}

// Add inserts i.
func (s *Set) Add(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Remove deletes i.
func (s *Set) Remove(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of elements.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AtLeast reports whether the set has at least k elements, reading words
// only until it has counted k.
func (s *Set) AtLeast(k int) bool {
	for _, w := range s.words {
		if k <= 0 {
			return true
		}
		k -= bits.OnesCount64(w)
	}
	return k <= 0
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ForEach calls f for each element in ascending order; it stops early if f
// returns false.
func (s *Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi<<6 + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the elements in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}
