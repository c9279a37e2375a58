package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	s := New(130)
	if !s.Empty() || s.Count() != 0 || s.Len() != 130 {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !s.Contains(i) {
			t.Errorf("missing %d", i)
		}
	}
	if s.Contains(1) || s.Contains(128) {
		t.Error("spurious membership")
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 2 {
		t.Error("Remove failed")
	}
	if got := s.Slice(); !reflect.DeepEqual(got, []int{0, 129}) {
		t.Errorf("Slice = %v", got)
	}
	s.Clear()
	if !s.Empty() {
		t.Error("Clear failed")
	}
}

func TestSetOps(t *testing.T) {
	a := New(100)
	a.Add(1)
	a.Add(2)
	a.Add(3)

	c := a.Clone()
	c.Remove(1)
	c.Add(4)
	if got := c.Slice(); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Errorf("edited clone = %v", got)
	}
	// The original is untouched.
	if got := a.Slice(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("Clone aliased the underlying words: original = %v", got)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := New(10)
	for i := 0; i < 10; i++ {
		s.Add(i)
	}
	seen := 0
	s.ForEach(func(i int) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("early stop visited %d, want 3", seen)
	}
}

// Property: set semantics agree with a reference map implementation under a
// random operation sequence.
func TestQuickAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		s := New(n)
		ref := map[int]bool{}
		for op := 0; op < 300; op++ {
			i := r.Intn(n)
			switch r.Intn(3) {
			case 0:
				s.Add(i)
				ref[i] = true
			case 1:
				s.Remove(i)
				delete(ref, i)
			default:
				if s.Contains(i) != ref[i] {
					return false
				}
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for _, k := range []int{0, 1, len(ref), len(ref) + 1} {
			if s.AtLeast(k) != (len(ref) >= k) {
				return false
			}
		}
		for _, i := range s.Slice() {
			if !ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
