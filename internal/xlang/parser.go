package xlang

// Grammar (recursive descent):
//
//	stmt    := IDENT ':=' expr | expr
//	expr    := add (('=' | '<=') add)?
//	add     := term (('+' | '~') term)*
//	term    := postfix ('&' postfix)*
//	postfix := primary ( '[' expr (';' expr ',' expr)? ']' )*
//	primary := number | string | 'true' | 'false'
//	         | IDENT '(' args ')' | IDENT
//	         | '{' members '}' | '<' exprs '>' | '(' expr ')'
//	member  := expr ('^' expr)?
//
// '+' is union, '~' difference, '&' intersection; 'R[A]' is the standard
// image and 'R[A; s1, s2]' the σ-parameterized image; '=' and '<=' are
// equality and subset tests returning booleans.

type node interface{ pos() int }

type litNode struct {
	at  int
	val valueLit
}

// valueLit carries a literal before evaluation.
type valueLit struct {
	kind tokenKind // tokInt, tokFloat, tokString, tokIdent (true/false)
	text string
	neg  bool
}

type identNode struct {
	at   int
	name string
}

type callNode struct {
	at   int
	name string
	args []node
}

type memberNode struct {
	elem  node
	scope node // nil for classical
}

type setNode struct {
	at      int
	members []memberNode
}

type tupleNode struct {
	at    int
	elems []node
}

type binNode struct {
	at   int
	op   tokenKind // tokPlus, tokTilde, tokAmp, tokEq, tokLE
	l, r node
}

type imageNode struct {
	at     int
	rel    node
	arg    node
	s1, s2 node // nil → standard σ
}

type assignNode struct {
	at   int
	name string
	expr node
}

func (n *litNode) pos() int    { return n.at }
func (n *identNode) pos() int  { return n.at }
func (n *callNode) pos() int   { return n.at }
func (n *setNode) pos() int    { return n.at }
func (n *tupleNode) pos() int  { return n.at }
func (n *binNode) pos() int    { return n.at }
func (n *imageNode) pos() int  { return n.at }
func (n *assignNode) pos() int { return n.at }

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expect(k tokenKind) (token, error) {
	if p.cur().kind != k {
		return token{}, errAt(p.cur().pos, "expected %v, found %v", k, p.cur().kind)
	}
	return p.next(), nil
}

// Parse parses one statement (assignment or expression).
func Parse(src string) (node, error) {
	toks, err := lex(nil, src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	n, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, errAt(p.cur().pos, "unexpected trailing %v", p.cur().kind)
	}
	return n, nil
}

func (p *parser) parseStmt() (node, error) {
	if p.cur().kind == tokIdent && p.toks[p.i+1].kind == tokAssign {
		name := p.next()
		p.next() // :=
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &assignNode{at: name.pos, name: name.text, expr: e}, nil
	}
	return p.parseExpr()
}

func (p *parser) parseExpr() (node, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if k := p.cur().kind; k == tokEq || k == tokLE {
		op := p.next()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &binNode{at: op.pos, op: op.kind, l: l, r: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (node, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		k := p.cur().kind
		if k != tokPlus && k != tokTilde {
			return l, nil
		}
		op := p.next()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &binNode{at: op.pos, op: op.kind, l: l, r: r}
	}
}

func (p *parser) parseTerm() (node, error) {
	l, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokAmp {
		op := p.next()
		r, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		l = &binNode{at: op.pos, op: tokAmp, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parsePostfix() (node, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokLBrack {
		open := p.next()
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		img := &imageNode{at: open.pos, rel: l, arg: arg}
		if p.cur().kind == tokSemi {
			p.next()
			if img.s1, err = p.parseExpr(); err != nil {
				return nil, err
			}
			if _, err = p.expect(tokComma); err != nil {
				return nil, err
			}
			if img.s2, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if _, err = p.expect(tokRBrack); err != nil {
			return nil, err
		}
		l = img
	}
	return l, nil
}

// litAt reads the literal at toks[i] (a number, a signed number, a
// string, true or false) and the tokens it spans, 0 when none starts
// there.
func litAt(toks []token, i int) (lit litNode, n int) {
	switch t := toks[i]; t.kind {
	case tokInt, tokFloat, tokString:
		n = 1
	case tokIdent:
		if t.text == "true" || t.text == "false" {
			n = 1
		}
	case tokMinus:
		if num := toks[i+1]; num.kind == tokInt || num.kind == tokFloat {
			return litNode{at: t.pos, val: valueLit{kind: num.kind, text: num.text, neg: true}}, 2
		}
	}
	return litNode{at: toks[i].pos, val: valueLit{kind: toks[i].kind, text: toks[i].text}}, n
}

func (p *parser) parsePrimary() (node, error) {
	t := p.cur()
	if lit, n := litAt(p.toks, p.i); n > 0 {
		p.i += n
		return &litNode{at: lit.at, val: lit.val}, nil
	}
	switch t.kind {
	case tokMinus:
		return nil, errAt(p.toks[p.i+1].pos, "expected number after '-'")
	case tokIdent:
		p.next()
		if p.cur().kind == tokLParen {
			p.next()
			var args []node
			if p.cur().kind != tokRParen {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.cur().kind != tokComma {
						break
					}
					p.next()
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &callNode{at: t.pos, name: t.text, args: args}, nil
		}
		return &identNode{at: t.pos, name: t.text}, nil
	case tokLBrace:
		p.next()
		s := &setNode{at: t.pos}
		if p.cur().kind != tokRBrace {
			for {
				elem, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				m := memberNode{elem: elem}
				if p.cur().kind == tokCaret {
					p.next()
					if m.scope, err = p.parsePostfix(); err != nil {
						return nil, err
					}
				}
				s.members = append(s.members, m)
				if p.cur().kind != tokComma {
					break
				}
				p.next()
			}
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		return s, nil
	case tokLAngle:
		p.next()
		tp := &tupleNode{at: t.pos}
		if p.cur().kind != tokRAngle {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				tp.elems = append(tp.elems, e)
				if p.cur().kind != tokComma {
					break
				}
				p.next()
			}
		}
		if _, err := p.expect(tokRAngle); err != nil {
			return nil, err
		}
		return tp, nil
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
	default:
		return nil, errAt(t.pos, "unexpected %v", t.kind)
	}
}
