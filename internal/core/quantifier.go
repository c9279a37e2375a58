// Package core implements the quantified graph pattern (QGP) model of
// Fan, Wu and Xu, "Adding Counting Quantifiers to Graph Patterns"
// (SIGMOD 2016): counting quantifiers on pattern edges, the
// negation-free projection Π(Q), positified patterns Q+e, pattern
// well-formedness (the l-restriction and single-negation rule),
// and a small textual DSL for patterns.
package core

import "fmt"

// Op is the comparison operator of a counting quantifier. The paper's
// core syntax uses ⊙ ∈ {=, ≥} and normalizes > p to ≥ p+1; the ≤ and ≠
// operators are the extension its §8 leaves to future work — they make
// matching DP-hard like negation (Remark, §3) and are supported here with
// the same exact-counting machinery as =.
type Op uint8

const (
	// GE is the ≥ operator.
	GE Op = iota
	// EQ is the = operator.
	EQ
	// LE is the ≤ operator (extension).
	LE
	// NE is the ≠ operator (extension).
	NE
)

func (o Op) String() string {
	switch o {
	case EQ:
		return "="
	case LE:
		return "<="
	case NE:
		return "!="
	default:
		return ">="
	}
}

// Quantifier is a counting quantifier f(e) on a pattern edge. It is either
// numeric (σ(e) ⊙ n) or a ratio (σ(e) ⊙ p%). Ratios are stored in basis
// points (1% = 100 bp) so that equality checks stay exact in integer
// arithmetic. The zero value is the existential quantifier σ(e) ≥ 1.
type Quantifier struct {
	op    Op
	ratio bool
	n     int // numeric threshold when !ratio
	bp    int // ratio in basis points (0, 10000] when ratio
}

// Exists returns the existential quantifier σ(e) ≥ 1, the implicit
// quantifier of conventional pattern edges.
func Exists() Quantifier { return Quantifier{op: GE, n: 1} }

// Count returns the numeric quantifier σ(e) ⊙ n. Count(EQ, 0) is the
// negation quantifier.
func Count(op Op, n int) Quantifier { return Quantifier{op: op, n: n} }

// CountGT returns σ(e) > n, normalized to σ(e) ≥ n+1 (§4.1).
func CountGT(n int) Quantifier { return Quantifier{op: GE, n: n + 1} }

// Negated returns the negation quantifier σ(e) = 0.
func Negated() Quantifier { return Quantifier{op: EQ, n: 0} }

// Ratio returns the ratio quantifier σ(e) ⊙ bp/100 %, with bp in basis
// points (1..10000]. RatioPercent is the float convenience form.
func Ratio(op Op, bp int) Quantifier { return Quantifier{op: op, ratio: true, bp: bp} }

// RatioPercent returns σ(e) ⊙ p% for a percentage p in (0, 100].
func RatioPercent(op Op, p float64) Quantifier {
	return Ratio(op, int(p*100+0.5))
}

// Universal returns the universal quantifier σ(e) = 100%.
func Universal() Quantifier { return Ratio(EQ, 10000) }

// Op returns the comparison operator.
func (q Quantifier) Op() Op { return q.op }

// IsRatio reports whether q is a ratio aggregate.
func (q Quantifier) IsRatio() bool { return q.ratio }

// N returns the numeric threshold (meaningful when !IsRatio()).
func (q Quantifier) N() int { return q.n }

// BasisPoints returns the ratio in basis points (meaningful when IsRatio()).
func (q Quantifier) BasisPoints() int { return q.bp }

// IsExistential reports whether q is σ(e) ≥ 1, i.e. a conventional edge.
func (q Quantifier) IsExistential() bool { return !q.ratio && q.op == GE && q.n == 1 }

// IsNegation reports whether q is σ(e) = 0.
func (q Quantifier) IsNegation() bool { return !q.ratio && q.op == EQ && q.n == 0 }

// IsUniversal reports whether q is σ(e) = 100%.
func (q Quantifier) IsUniversal() bool { return q.ratio && q.op == EQ && q.bp == 10000 }

// Valid reports whether q is well formed: ratio in (0, 10000] bp, numeric
// threshold ≥ 0 (with = 0 only as negation, which is valid). σ(e) ≥ 0 is
// vacuous and σ(e) ≤ 0 must be written as the negation =0, so both are
// rejected.
func (q Quantifier) Valid() bool {
	if q.ratio {
		return q.bp > 0 && q.bp <= 10000
	}
	if q.n < 0 {
		return false
	}
	if (q.op == GE || q.op == LE) && q.n == 0 {
		return false
	}
	return true
}

// Satisfied reports whether a count of matching children out of total
// children satisfies q. For ratio quantifiers total is |Me(v)| and count is
// |Me(vx, v, Q)|; comparisons are exact in integer arithmetic.
func (q Quantifier) Satisfied(count, total int) bool {
	if q.ratio {
		if total <= 0 {
			return false
		}
		lhs, rhs := count*10000, q.bp*total
		switch q.op {
		case GE:
			return lhs >= rhs
		case EQ:
			return lhs == rhs
		case LE:
			return lhs <= rhs
		default: // NE
			return lhs != rhs
		}
	}
	switch q.op {
	case GE:
		return count >= q.n
	case EQ:
		return count == q.n
	case LE:
		return count <= q.n
	default: // NE
		return count != q.n
	}
}

// Threshold converts q at a node with total children into a numeric lower
// bound: the minimum count that can still satisfy q (a quantified pattern
// edge always embeds at least one child, so the minimum is clamped to 1
// for the non-monotone operators). It returns (0, false) when q is
// unsatisfiable at this node — an EQ ratio whose exact count is not
// integral, or an LE ratio that excludes even a single child. This is the
// per-candidate ratio→numeric conversion of §4.1 — using a ceiling for GE
// rather than the paper's floor, which would under-approximate (see
// DESIGN.md §2).
func (q Quantifier) Threshold(total int) (need int, ok bool) {
	if !q.ratio {
		switch q.op {
		case GE, EQ:
			return q.n, true
		case LE:
			if q.n < 1 {
				return 0, false
			}
			return 1, true
		default: // NE
			if q.n == 1 {
				return 2, true // a single embedded child would hit = 1
			}
			return 1, true
		}
	}
	if total <= 0 {
		return 0, false
	}
	prod := q.bp * total
	switch q.op {
	case GE:
		return (prod + 9999) / 10000, true
	case EQ:
		if prod%10000 != 0 {
			return 0, false
		}
		return prod / 10000, true
	case LE:
		if prod < 10000 { // even one child exceeds the cap
			return 0, false
		}
		return 1, true
	default: // NE
		if prod == 10000 {
			return 2, true // one child would hit equality exactly
		}
		return 1, true
	}
}

func (q Quantifier) String() string {
	if q.ratio {
		if q.bp%100 == 0 {
			return fmt.Sprintf("%s%d%%", q.op, q.bp/100)
		}
		return fmt.Sprintf("%s%d.%02d%%", q.op, q.bp/100, q.bp%100)
	}
	return fmt.Sprintf("%s%d", q.op, q.n)
}
