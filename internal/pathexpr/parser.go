package pathexpr

import (
	"fmt"
	"sort"
)

// Path is a compiled path expression: the AST plus the automaton used
// for run-time order checking. Construct with Parse; a Path is
// immutable and safe for concurrent use (each process gets its own
// Matcher).
type Path struct {
	ast Expr
	dfa *dfa
	// syms is the set of procedure names the expression mentions,
	// built once in Parse: Mentions runs on every checked call.
	syms map[string]bool
}

// Parse parses and compiles a path expression. The "path"/"end"
// keywords are optional, so both "path Acquire ; Release end" and
// "Acquire ; Release" are accepted.
func Parse(src string) (*Path, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if p.peek().kind == tokPath {
		p.next()
	}
	ast, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokEnd {
		p.next()
	}
	if tok := p.peek(); tok.kind != tokEOF {
		return nil, &SyntaxError{Pos: tok.pos, Msg: fmt.Sprintf("unexpected %s after expression", tok.kind)}
	}
	syms := make(map[string]bool)
	ast.symbols(syms)
	return &Path{ast: ast, dfa: buildDFA(buildNFA(ast)), syms: syms}, nil
}

// MustParse is Parse for statically known expressions; it panics on
// error. Intended for tests and package-level declarations.
func MustParse(src string) *Path {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// String returns the canonical rendering of the expression.
func (p *Path) String() string { return "path " + p.ast.String() + " end" }

// Symbols returns the procedure names mentioned in the expression,
// sorted.
func (p *Path) Symbols() []string {
	out := make([]string, 0, len(p.syms))
	for s := range p.syms {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Mentions reports whether the expression constrains the given
// procedure name. Calls to unmentioned procedures are not order-checked
// (the paper's partial order only covers the declared procedures).
func (p *Path) Mentions(sym string) bool { return p.syms[sym] }

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.peek()
	if t.kind != k {
		return t, &SyntaxError{Pos: t.pos, Msg: fmt.Sprintf("expected %s, found %s", k, t.kind)}
	}
	return p.next(), nil
}

// parseExpr = seq { "," seq } .
func (p *parser) parseExpr() (Expr, error) {
	first, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokComma {
		return first, nil
	}
	alts := []Expr{first}
	for p.peek().kind == tokComma {
		p.next()
		alt, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		alts = append(alts, alt)
	}
	return &Selection{Alts: alts}, nil
}

// parseSeq = term { ";" term } .
func (p *parser) parseSeq() (Expr, error) {
	first, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokSemi {
		return first, nil
	}
	parts := []Expr{first}
	for p.peek().kind == tokSemi {
		p.next()
		part, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	return &Sequence{Parts: parts}, nil
}

// parseTerm = ident | "(" expr ")" | "{" expr "}" | "[" expr "]" .
func (p *parser) parseTerm() (Expr, error) {
	switch t := p.peek(); t.kind {
	case tokIdent:
		p.next()
		return &Name{Sym: t.text}, nil
	case tokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokLBrace:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		return &Repetition{Body: e}, nil
	case tokLBrack:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrack); err != nil {
			return nil, err
		}
		return &Option{Body: e}, nil
	default:
		return nil, &SyntaxError{Pos: t.pos, Msg: fmt.Sprintf("expected a procedure name or '(', '{', '[', found %s", t.kind)}
	}
}
