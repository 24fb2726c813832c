package algebra

import (
	"math/rand"
	"testing"

	"xst/internal/core"
)

// TestSigmaDomainExample1 checks 𝔇_{A^1,C^2}({{a^A, b^B, c^C}}) =
// {{a^1, c^2}} (first Def 7.4 example).
func TestSigmaDomainExample1(t *testing.T) {
	inner := scoped(str("a"), str("A"), str("b"), str("B"), str("c"), str("C"))
	r := core.S(inner)
	sigma := scoped(str("A"), core.Int(1), str("C"), core.Int(2))
	got := SigmaDomain(r, sigma)
	want := core.S(scoped(str("a"), core.Int(1), str("c"), core.Int(2)))
	wantEqual(t, got, want)
}

// TestSigmaDomainExample2 checks
// 𝔇_⟨3,1⟩({{a^1,b^2,c^3}^{A^1,B^2,C^3}}) = {⟨c,a⟩^⟨C,A⟩}.
func TestSigmaDomainExample2(t *testing.T) {
	elem := core.Tuple(str("a"), str("b"), str("c"))
	scope := scoped(str("A"), core.Int(1), str("B"), core.Int(2), str("C"), core.Int(3))
	r := core.NewSet(core.M(elem, scope))
	got := SigmaDomain(r, Positions(3, 1))
	want := core.NewSet(core.M(core.Tuple(str("c"), str("a")), core.Tuple(str("C"), str("A"))))
	wantEqual(t, got, want)
}

// TestSigmaDomainExample3 checks the third Def 7.4 example with fan-out
// scopes: 𝔇_{3^1,1^2,y^9,v^5,v^7,R^A}({{a^1,b^2,c^3}^{x^y,w^v,z^R}}) =
// {⟨c,a⟩^{x^9,w^5,w^7,z^A}}.
func TestSigmaDomainExample3(t *testing.T) {
	elem := core.Tuple(str("a"), str("b"), str("c"))
	scope := scoped(str("x"), str("y"), str("w"), str("v"), str("z"), str("R"))
	r := core.NewSet(core.M(elem, scope))
	sigma := scoped(
		core.Int(3), core.Int(1),
		core.Int(1), core.Int(2),
		str("y"), core.Int(9),
		str("v"), core.Int(5),
		str("v"), core.Int(7),
		str("R"), str("A"),
	)
	got := SigmaDomain(r, sigma)
	wantScope := scoped(
		str("x"), core.Int(9),
		str("w"), core.Int(5),
		str("w"), core.Int(7),
		str("z"), str("A"),
	)
	want := core.NewSet(core.M(core.Tuple(str("c"), str("a")), wantScope))
	wantEqual(t, got, want)
}

func TestSigmaDomainEmptySigma(t *testing.T) {
	r := core.S(core.Pair(str("a"), str("b")))
	if !SigmaDomain(r, core.Empty()).IsEmpty() {
		t.Fatal("𝔇_∅(R) must be ∅ (Consequence 7.1(e))")
	}
}

func TestDomain12OnPairs(t *testing.T) {
	r := core.S(
		core.Pair(core.Int(1), str("x")),
		core.Pair(core.Int(2), str("y")),
		core.Pair(core.Int(3), str("x")),
	)
	d1 := Domain1(r)
	want1 := core.S(core.Tuple(core.Int(1)), core.Tuple(core.Int(2)), core.Tuple(core.Int(3)))
	wantEqual(t, d1, want1)
	d2 := Domain2(r)
	want2 := core.S(core.Tuple(str("x")), core.Tuple(str("y")))
	wantEqual(t, d2, want2)
}

// TestSigmaDomainDropsNonSurviving checks that members whose σ re-scope
// is empty vanish (the "≠ ∅" clause of Def 7.4).
func TestSigmaDomainDropsNonSurviving(t *testing.T) {
	r := core.S(
		core.Pair(str("a"), str("b")),
		core.Tuple(str("only-first")), // 1-tuple: no position 2
	)
	got := Domain2(r)
	wantEqual(t, got, core.S(core.Tuple(str("b"))))
}

// TestSigmaDomainCardDistinct holds Card of a σ-domain to core.Card of
// its Set where the outputs are known distinct without a table — R
// classical, σ renaming every scope of R's elements one-to-one, as
// inverse's ⟨2,1⟩ does — and where each condition breaks and the table
// must merge outputs that collide.
func TestSigmaDomainCardDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := core.NewBuilder(60)
	b.AddClassical(core.Tuple(core.Int(1), core.Int(2)))
	for range 60 { // pairs over 5 values: ⟨a,b⟩ and ⟨b,a⟩ both occur
		b.AddClassical(core.Tuple(core.Int(rng.Intn(5)), core.Int(rng.Intn(5))))
	}
	pairs := b.Set()
	scopedPairs := core.Union(pairs, scoped(core.Tuple(core.Int(1), core.Int(2)), core.Int(7)))
	triple := core.Union(pairs, core.S(core.Tuple(core.Int(1), core.Int(2), core.Int(3))))
	one := func(vs ...int) *core.Set { // {v1^v2, v3^v4, …}
		ps := make([]core.Value, len(vs))
		for i, v := range vs {
			ps[i] = core.Int(v)
		}
		return scoped(ps...)
	}
	for _, tc := range []struct {
		name             string
		r, sigma         *core.Set
		distinct, merges bool // merges: outputs collide, so a wrong distinct miscounts
	}{
		{"inverse", pairs, Positions(2, 1), true, false},
		{"identity", pairs, Positions(1, 2), true, false},
		{"R not classical", scopedPairs, Positions(2, 1), false, true},
		{"a scope to two scopes", pairs, one(1, 2, 1, 3, 2, 1), false, false},
		{"two scopes to one", pairs, one(1, 1, 2, 1), false, true},
		{"a scope not covered", pairs, one(1, 1), false, true},
		{"a scope of a longer tuple not covered", triple, Positions(2, 1), false, true},
	} {
		d := DeriveSigmaDomain(tc.r, tc.sigma)
		if d.distinct != tc.distinct {
			t.Errorf("%s: distinct = %v, want %v", tc.name, d.distinct, tc.distinct)
		}
		want := SigmaDomain(tc.r, tc.sigma)
		check(t, tc.name, d, want)
		if n := core.Card(want); (n < tc.r.Len()) != tc.merges {
			t.Errorf("%s: %d outputs from %d members", tc.name, n, tc.r.Len())
		}
	}
}
