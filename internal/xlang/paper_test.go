package xlang

import (
	"testing"

	"xst/internal/core"
)

// The paper's worked artifacts as golden rows in the syntax users type.
// A row's source is a program; its result is an expression evaluated in
// the environment the program leaves, so a result may name the
// program's bindings. A row holds when the two values are equal.

// appendixA binds the Appendix A sets, with σ = ⟨{1,3},{2,4}⟩ and the
// standard ω that the bracket image uses.
const appendixA = `e := {}
f := {<y,z>^<e,e>, <a,x,b,k>^<e,e,e,e>}
g := {<x,y>^<e,e>, <a,b>^<e,e>}
p := {<x,k>^<e,e>}
h := {<x>^<e>}
s1 := pos(1,3)
s2 := pos(2,4)
`

// appendixB binds Appendix B's one carrier f and ω = ⟨{1},{1,3,4,5,2}⟩;
// each row derives a process from f and tabulates its behaviour on ⟨a⟩
// and ⟨b⟩ under the standard σ.
const appendixB = `f := {<a,a,a,b,b>, <b,b,a,a,b>}
w1 := pos(1)
w2 := pos(1,3,4,5,2)
`

// laws binds the fixed operands of the law rows.
const laws = `Q := {<a,x>, <b,y>, <c,x>}
S := {<b,y>, <d,z>}
R := {<a,w>, <d,z>}
A := {<a>, <b>}
B := {<b>, <d>}
`

var paperRows = []struct {
	source string
	result string
}{
	// §10's table (E3): the eight σ/ω parameterizations of relprod on
	// the paper's operands.
	{`relprod({<a,b>}, {<b,c>}, {1^1}, {2^1}, {1^1}, {2^2})`, `{<a,c>}`},
	{`relprod({<a,b>}, {<b,c>}, {1^1}, {2^1}, {1^1}, {1^2, 2^3})`, `{<a,b,c>}`},
	{`relprod({<a,b>}, {<a,c>}, {1^1, 2^2}, {1^1}, {1^1}, {2^3})`, `{<a,b,c>}`},
	{`relprod({<a,b>}, {<a,c>}, {2^1}, {1^1}, {1^1}, {2^2})`, `{<b,c>}`},
	{`relprod({<a,b>}, {<c,b>}, {1^1}, {2^1}, {2^1}, {1^2, 2^3})`, `{<a,c,b>}`},
	{`relprod({<a,b>}, {<c,b>}, {1^1}, {2^1}, {2^1}, {1^2})`, `{<a,c>}`},
	{`relprod({<a,b,c>}, {<d,e,c,b>}, {2^1, 3^2, 1^3}, {2^1, 3^2}, {4^1, 3^2}, {2^4, 4^5, 3^6, 1^7, 1^8})`,
		`{<b,c,a,e,b,c,d,d>}`},
	{`relprod({<k1,k2,k3,f4,f5>}, {<k1,k2,k3,g4,g5,g6>}, {1^1, 2^2, 3^3, 4^4, 5^5}, {1^1, 2^2, 3^3}, {1^1, 2^2, 3^3}, {4^6, 5^7, 6^8})`,
		`{<k1,k2,k3,f4,f5,g4,g5,g6>}`},

	// Appendix A (E4): the four steps, then the two bracketings of
	// f_(σ) g_(ω) (h), which differ.
	{appendixA + `image(f, {<y>^<e>}, s1, s2)`, `{<z>^<e>}`},
	{appendixA + `image(f, g, s1, s2)`, `{<x,k>^<e,e>}`},
	{appendixA + `g[h]`, `{<y>^<e>}`},
	{appendixA + `p[h]`, `{<k>^<e>}`},
	{appendixA + `image(f, g[h], s1, s2)`, `{<z>^<e>}`},
	{appendixA + `image(f, g, s1, s2)[h]`, `{<k>^<e>}`},

	// Appendix B (E5): f_(σ) is the identity g1, and self-application
	// derives g2, g3 and g4 from the same carrier.
	{appendixB + `<f[{<a>}], f[{<b>}]>`, `<{<a>}, {<b>}>`},
	{appendixB + "g := image(f, f, w1, w2)\n<g[{<a>}], g[{<b>}]>", `<{<a>}, {<a>}>`},
	{appendixB + "g := image(image(f, f, w1, w2), f, w1, w2)\n<g[{<a>}], g[{<b>}]>", `<{<b>}, {<a>}>`},
	{appendixB + "g := image(image(image(f, f, w1, w2), f, w1, w2), f, w1, w2)\n<g[{<a>}], g[{<b>}]>", `<{<b>}, {<b>}>`},

	// Example 8.1 (E6): a function forward, a non-function inverse.
	{`{<a,x>^<A,Z>, <b,y>^<B,Y>, <c,x>^<A,Z>}[{<a>^<A>}]`, `{<x>^<Z>}`},
	{`{<a,x>^<A,Z>, <b,y>^<B,Y>, <c,x>^<A,Z>}[{<x>^<Z>}; pos(2), pos(1)]`, `{<a>^<A>, <c>^<A>}`},
	// Example 9.1 (E6): the scoped values of √16.
	{`value_at({<2>^<"+">, <-2>^<"-">, <"2i">^<i>, <"-2i">^<"-i">}, "+")`, `2`},
	{`value_at({<2>^<"+">, <-2>^<"-">, <"2i">^<i>, <"-2i">^<"-i">}, "-")`, `-2`},

	// The law tables (E7), one row per law: an equation's source is its
	// left side and its result its right side.
	{laws + `dom(Q + S, pos(2))`, `dom(Q, pos(2)) + dom(S, pos(2))`},         // 7.1(a)
	{laws + `dom(Q & S, pos(2)) <= dom(Q, pos(2)) & dom(S, pos(2))`, `true`}, // 7.1(b)
	{laws + `dom(Q, pos(2)) ~ dom(S, pos(2)) <= dom(Q ~ S, pos(2))`, `true`}, // 7.1(c)
	{laws + `dom(Q, {})`, `{}`},                                    // 7.1(e)
	{laws + `Q[A + B]`, `Q[A] + Q[B]`},                             // C.1(a)
	{laws + `Q[A & B] <= Q[A] & Q[B]`, `true`},                     // C.1(b)
	{laws + `<Q[{}], {}[A], image(Q, A, {}, {})>`, `<{}, {}, {}>`}, // C.1(g)
	{laws + `(Q + R)[A]`, `Q[A] + R[A]`},                           // C.1(i)
	{laws + `(Q + S)[B]`, `Q[B] + S[B]`},                           // 8.1(a)
	{laws + `(Q & S)[A] <= Q[A] & S[A]`, `true`},                   // 8.1(b)
	{laws + `Q[A] ~ S[A] <= (Q ~ S)[A]`, `true`},                   // 8.1(c)
}

func TestPaperRows(t *testing.T) {
	for _, row := range paperRows {
		env := NewEnv()
		got, err := EvalProgram(env, row.source)
		if err != nil {
			t.Errorf("%s\n  error: %v", row.source, err)
			continue
		}
		want, err := Eval(env, row.result)
		if err != nil {
			t.Errorf("%s\n  result %s: %v", row.source, row.result, err)
			continue
		}
		if !core.Equal(got, want) {
			t.Errorf("%s\n  got  %v\n  want %s = %v", row.source, got, row.result, want)
		}
	}
}
