// Package rpq implements bounded regular path queries over edge labels —
// the "regular path constraints" extension the paper's conclusion (§8)
// names as future work. A path expression denotes a regular language over
// edge labels; Reach computes the nodes reachable from a source by a
// directed walk of bounded length whose label word is in the language,
// via breadth-first search of the product of the graph with a Thompson
// NFA. Constraint combines a path expression with one of the paper's
// counting quantifiers, so quantified reachability predicates ("follows
// at least 5 accounts through ≤ 3 retweet hops") compose with quantified
// graph patterns as focus post-filters.
//
// Expression syntax:
//
//	expr   := alt
//	alt    := concat ('|' concat)*
//	concat := unary ('.' unary)*
//	unary  := atom ('*' | '+' | '?')?
//	atom   := label | '(' expr ')'
//
// A label is any run of letters, digits, '_' or '-'. '*' and '+' are
// bounded at evaluation time by the walk-length limit, so the language is
// effectively finite.
package rpq

import (
	"fmt"
	"strings"
)

// Expr is a parsed path expression.
type Expr struct {
	root node
}

// node is the expression AST.
type node interface {
	fmt.Stringer
}

type labelNode struct{ label string }
type concatNode struct{ parts []node }
type altNode struct{ parts []node }
type starNode struct{ inner node } // zero or more
type plusNode struct{ inner node } // one or more
type optNode struct{ inner node }  // zero or one

func (n labelNode) String() string { return n.label }
func (n concatNode) String() string {
	parts := make([]string, len(n.parts))
	for i, p := range n.parts {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, ".") + ")"
}
func (n altNode) String() string {
	parts := make([]string, len(n.parts))
	for i, p := range n.parts {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, "|") + ")"
}
func (n starNode) String() string { return n.inner.String() + "*" }
func (n plusNode) String() string { return n.inner.String() + "+" }
func (n optNode) String() string  { return n.inner.String() + "?" }

// Parse parses a path expression.
func Parse(src string) (*Expr, error) {
	p := &parser{src: src}
	root, err := p.alt()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("rpq: unexpected %q at offset %d", p.src[p.pos], p.pos)
	}
	return &Expr{root: root}, nil
}

// MustParse is Parse for static expressions; it panics on error.
func MustParse(src string) *Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) alt() (node, error) {
	first, err := p.concat()
	if err != nil {
		return nil, err
	}
	parts := []node{first}
	for p.peek() == '|' {
		p.pos++
		n, err := p.concat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, n)
	}
	if len(parts) == 1 {
		return first, nil
	}
	return altNode{parts: parts}, nil
}

func (p *parser) concat() (node, error) {
	first, err := p.unary()
	if err != nil {
		return nil, err
	}
	parts := []node{first}
	for p.peek() == '.' {
		p.pos++
		n, err := p.unary()
		if err != nil {
			return nil, err
		}
		parts = append(parts, n)
	}
	if len(parts) == 1 {
		return first, nil
	}
	return concatNode{parts: parts}, nil
}

func (p *parser) unary() (node, error) {
	n, err := p.atom()
	if err != nil {
		return nil, err
	}
	switch p.peek() {
	case '*':
		p.pos++
		return starNode{inner: n}, nil
	case '+':
		p.pos++
		return plusNode{inner: n}, nil
	case '?':
		p.pos++
		return optNode{inner: n}, nil
	}
	return n, nil
}

func (p *parser) atom() (node, error) {
	switch c := p.peek(); {
	case c == '(':
		p.pos++
		n, err := p.alt()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("rpq: missing ')' at offset %d", p.pos)
		}
		p.pos++
		return n, nil
	case isLabelByte(c):
		start := p.pos
		for p.pos < len(p.src) && isLabelByte(p.src[p.pos]) {
			p.pos++
		}
		return labelNode{label: p.src[start:p.pos]}, nil
	case c == 0:
		return nil, fmt.Errorf("rpq: unexpected end of expression")
	default:
		return nil, fmt.Errorf("rpq: unexpected %q at offset %d", c, p.pos)
	}
}

func isLabelByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
}
