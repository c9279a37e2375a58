package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantifierKinds(t *testing.T) {
	cases := []struct {
		q     Quantifier
		exist bool
		neg   bool
		univ  bool
		ratio bool
		str   string
	}{
		{Exists(), true, false, false, false, ">=1"},
		{Count(GE, 3), false, false, false, false, ">=3"},
		{Count(EQ, 2), false, false, false, false, "=2"},
		{Negated(), false, true, false, false, "=0"},
		{Universal(), false, false, true, true, "=100%"},
		{RatioPercent(GE, 80), false, false, false, true, ">=80%"},
		{RatioPercent(GE, 12.5), false, false, false, true, ">=12.50%"},
		{CountGT(2), false, false, false, false, ">=3"},
	}
	for _, c := range cases {
		if got := c.q.IsExistential(); got != c.exist {
			t.Errorf("%v IsExistential = %v, want %v", c.q, got, c.exist)
		}
		if got := c.q.IsNegation(); got != c.neg {
			t.Errorf("%v IsNegation = %v, want %v", c.q, got, c.neg)
		}
		if got := c.q.IsUniversal(); got != c.univ {
			t.Errorf("%v IsUniversal = %v, want %v", c.q, got, c.univ)
		}
		if got := c.q.IsRatio(); got != c.ratio {
			t.Errorf("%v IsRatio = %v, want %v", c.q, got, c.ratio)
		}
		if got := c.q.String(); got != c.str {
			t.Errorf("String = %q, want %q", got, c.str)
		}
		if !c.q.Valid() {
			t.Errorf("%v should be Valid", c.q)
		}
	}
}

func TestQuantifierInvalid(t *testing.T) {
	bad := []Quantifier{
		Ratio(GE, 0),
		Ratio(GE, 10001),
		Ratio(GE, -5),
		Count(GE, -1),
		Count(GE, 0), // σ(e) ≥ 0 is vacuous, excluded by syntax
	}
	for _, q := range bad {
		if q.Valid() {
			t.Errorf("%v should be invalid", q)
		}
	}
}

func TestSatisfiedNumeric(t *testing.T) {
	cases := []struct {
		q            Quantifier
		count, total int
		want         bool
	}{
		{Exists(), 0, 5, false},
		{Exists(), 1, 5, true},
		{Count(GE, 3), 2, 9, false},
		{Count(GE, 3), 3, 9, true},
		{Count(GE, 3), 4, 9, true},
		{Count(EQ, 2), 2, 9, true},
		{Count(EQ, 2), 3, 9, false},
		{Negated(), 0, 9, true},
		{Negated(), 1, 9, false},
	}
	for _, c := range cases {
		if got := c.q.Satisfied(c.count, c.total); got != c.want {
			t.Errorf("%v.Satisfied(%d,%d) = %v, want %v", c.q, c.count, c.total, got, c.want)
		}
	}
}

func TestSatisfiedRatio(t *testing.T) {
	cases := []struct {
		q            Quantifier
		count, total int
		want         bool
	}{
		{RatioPercent(GE, 80), 4, 5, true},
		{RatioPercent(GE, 80), 3, 5, false},
		{RatioPercent(GE, 80), 2, 3, false}, // 66.7% < 80%
		{RatioPercent(GE, 80), 3, 3, true},
		{Universal(), 3, 3, true},
		{Universal(), 2, 3, false},
		{RatioPercent(EQ, 50), 1, 2, true},
		{RatioPercent(EQ, 50), 2, 4, true},
		{RatioPercent(EQ, 50), 1, 3, false},
		{RatioPercent(GE, 80), 0, 0, false}, // no children: ratio unsatisfiable
	}
	for _, c := range cases {
		if got := c.q.Satisfied(c.count, c.total); got != c.want {
			t.Errorf("%v.Satisfied(%d,%d) = %v, want %v", c.q, c.count, c.total, got, c.want)
		}
	}
}

func TestThreshold(t *testing.T) {
	cases := []struct {
		q     Quantifier
		total int
		need  int
		ok    bool
	}{
		{Count(GE, 3), 10, 3, true},
		{RatioPercent(GE, 80), 5, 4, true},
		{RatioPercent(GE, 80), 3, 3, true}, // ceil(2.4) = 3, not the paper's floor
		{Universal(), 7, 7, true},
		{RatioPercent(EQ, 50), 4, 2, true},
		{RatioPercent(EQ, 50), 3, 0, false}, // 1.5 not integral → unsatisfiable
		{RatioPercent(GE, 80), 0, 0, false},
	}
	for _, c := range cases {
		need, ok := c.q.Threshold(c.total)
		if need != c.need || ok != c.ok {
			t.Errorf("%v.Threshold(%d) = (%d,%v), want (%d,%v)", c.q, c.total, need, ok, c.need, c.ok)
		}
	}
}

// Property: Threshold is the exact satisfiability frontier for GE
// quantifiers — counts below it fail Satisfied, counts at/above pass.
func TestQuickThresholdFrontier(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 1 + r.Intn(50)
		var q Quantifier
		if r.Intn(2) == 0 {
			q = Count(GE, 1+r.Intn(10))
		} else {
			q = Ratio(GE, 1+r.Intn(10000))
		}
		need, ok := q.Threshold(total)
		if !ok {
			return false // GE thresholds always exist for total ≥ 1
		}
		for c := 0; c <= total; c++ {
			want := c >= need
			if q.Satisfied(c, total) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: for EQ ratio quantifiers, Satisfied(c, total) holds exactly at
// the integral threshold when one exists, and never otherwise.
func TestQuickEQRatioExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 1 + r.Intn(40)
		q := Ratio(EQ, 1+r.Intn(10000))
		need, ok := q.Threshold(total)
		for c := 0; c <= total; c++ {
			want := ok && c == need
			if q.Satisfied(c, total) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseQuantifier(t *testing.T) {
	cases := []struct {
		in   string
		want Quantifier
	}{
		{">=1", Exists()},
		{">=5", Count(GE, 5)},
		{"=0", Negated()},
		{"=3", Count(EQ, 3)},
		{">2", Count(GE, 3)},
		{">=80%", RatioPercent(GE, 80)},
		{"=100%", Universal()},
		{">=12.5%", RatioPercent(GE, 12.5)},
	}
	for _, c := range cases {
		got, err := ParseQuantifier(c.in)
		if err != nil {
			t.Errorf("ParseQuantifier(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseQuantifier(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	bad := []string{"", "5", ">=", "=x", ">=0", ">=101%", "=0%", ">50%", ">=-3"}
	for _, in := range bad {
		if _, err := ParseQuantifier(in); err == nil {
			t.Errorf("ParseQuantifier(%q) succeeded, want error", in)
		}
	}
}

// Property: String/ParseQuantifier round-trip.
func TestQuickQuantifierRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var q Quantifier
		switch r.Intn(4) {
		case 0:
			q = Count(GE, 1+r.Intn(20))
		case 1:
			q = Count(EQ, r.Intn(20))
		case 2:
			q = Ratio(GE, 1+r.Intn(10000))
		default:
			q = Ratio(EQ, 1+r.Intn(10000))
		}
		got, err := ParseQuantifier(q.String())
		return err == nil && got == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
