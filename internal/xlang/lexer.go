// Package xlang implements a small expression language for extended set
// theory: set literals with scoped members ({a^1, b^2}), tuple sugar
// (<a,b,c>), the boolean operations (+ union, & intersection, ~
// difference), image brackets (R[A] and R[A; s1, s2]), comparison (=,
// <=), assignment (name := expr) and a library of builtin operations
// covering the whole XST algebra. It exists so the REPL (cmd/xst), the
// examples and the documentation can state XST expressions the way the
// paper writes them.
package xlang

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token types.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokLBrace // {
	tokRBrace // }
	tokLAngle // <
	tokRAngle // >
	tokLParen // (
	tokRParen // )
	tokLBrack // [
	tokRBrack // ]
	tokComma  // ,
	tokSemi   // ;
	tokCaret  // ^
	tokPlus   // +
	tokAmp    // &
	tokTilde  // ~
	tokEq     // =
	tokLE     // <=
	tokAssign // :=
	tokMinus  // - (numeric sign)
)

func (k tokenKind) String() string {
	names := map[tokenKind]string{
		tokEOF: "EOF", tokIdent: "identifier", tokInt: "integer",
		tokFloat: "float", tokString: "string", tokLBrace: "{",
		tokRBrace: "}", tokLAngle: "<", tokRAngle: ">", tokLParen: "(",
		tokRParen: ")", tokLBrack: "[", tokRBrack: "]", tokComma: ",",
		tokSemi: ";", tokCaret: "^", tokPlus: "+", tokAmp: "&",
		tokTilde: "~", tokEq: "=", tokLE: "<=", tokAssign: ":=",
		tokMinus: "-",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", k)
}

// token is one lexical unit with its source position.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// SyntaxError reports a lexical or grammatical problem with its byte
// offset in the input.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at offset %d: %s", e.Pos, e.Msg)
}

func errAt(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// lexReserve caps the tokens lex reserves up front, so that a long
// string literal does not inflate the reservation; past it the token
// list grows by appending.
const lexReserve = 1024

// lex tokenizes the input onto toks, so a caller that keeps its token
// buffer lexes without allocating. A nil toks is reserved once from the
// source length, a token to every three bytes and a few more, which
// holds a query statement's or a call's tokens.
func lex(toks []token, src string) ([]token, error) {
	if toks == nil {
		toks = make([]token, 0, min(len(src)/3+8, lexReserve))
	}
	i := 0
	emit := func(k tokenKind, text string, pos int) {
		toks = append(toks, token{kind: k, text: text, pos: pos})
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '#': // comment to end of line
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '{':
			emit(tokLBrace, "{", i)
			i++
		case c == '}':
			emit(tokRBrace, "}", i)
			i++
		case c == '(':
			emit(tokLParen, "(", i)
			i++
		case c == ')':
			emit(tokRParen, ")", i)
			i++
		case c == '[':
			emit(tokLBrack, "[", i)
			i++
		case c == ']':
			emit(tokRBrack, "]", i)
			i++
		case c == ',':
			emit(tokComma, ",", i)
			i++
		case c == ';':
			emit(tokSemi, ";", i)
			i++
		case c == '^':
			emit(tokCaret, "^", i)
			i++
		case c == '+':
			emit(tokPlus, "+", i)
			i++
		case c == '&':
			emit(tokAmp, "&", i)
			i++
		case c == '~':
			emit(tokTilde, "~", i)
			i++
		case c == '=':
			emit(tokEq, "=", i)
			i++
		case c == ':':
			if i+1 < len(src) && src[i+1] == '=' {
				emit(tokAssign, ":=", i)
				i += 2
			} else {
				return nil, errAt(i, "unexpected ':'")
			}
		case c == '<':
			if i+1 < len(src) && src[i+1] == '=' {
				emit(tokLE, "<=", i)
				i += 2
			} else {
				emit(tokLAngle, "<", i)
				i++
			}
		case c == '>':
			emit(tokRAngle, ">", i)
			i++
		case c == '-':
			emit(tokMinus, "-", i)
			i++
		case c == '"':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= len(src) {
					return nil, errAt(start, "unterminated string")
				}
				if src[i] == '"' {
					i++
					break
				}
				if src[i] == '\\' && i+1 < len(src) {
					i++
					switch src[i] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case '"', '\\':
						sb.WriteByte(src[i])
					default:
						return nil, errAt(i, "bad escape \\%c", src[i])
					}
					i++
					continue
				}
				sb.WriteByte(src[i])
				i++
			}
			emit(tokString, sb.String(), start)
		case c >= '0' && c <= '9':
			start := i
			isFloat := false
			for i < len(src) && (src[i] >= '0' && src[i] <= '9') {
				i++
			}
			if i < len(src) && src[i] == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9' {
				isFloat = true
				i++
				for i < len(src) && src[i] >= '0' && src[i] <= '9' {
					i++
				}
			}
			if isFloat {
				emit(tokFloat, src[start:i], start)
			} else {
				emit(tokInt, src[start:i], start)
			}
		case isIdentStart(rune(c)):
			start := i
			for i < len(src) {
				if isIdentPart(rune(src[i])) {
					i++
					continue
				}
				// A dot continues the identifier when another identifier
				// character follows, so qualified names like
				// `__sys.queries` lex as one token. A bare '.' after an
				// identifier stays the lex error it always was.
				if src[i] == '.' && i+1 < len(src) && isIdentPart(rune(src[i+1])) {
					i += 2
					continue
				}
				break
			}
			emit(tokIdent, src[start:i], start)
		default:
			return nil, errAt(i, "unexpected character %q", string(c))
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(src)})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
