package algebra

import (
	"context"
	"slices"

	"xst/internal/core"
)

// RelativeProduct implements Def 10.1, the generalized relative product
//
//	F /_{⟨σ1,σ2⟩}^{⟨ω1,ω2⟩} G =
//	  { z^τ : ∃x,s,y,t ( x ∈_s F & y ∈_t G &
//	                     x^{/σ2/} = y^{/ω1/} & s^{/σ2/} = t^{/ω1/} &
//	                     z = x^{/σ1/} ∪ y^{/ω2/} & τ = s^{/σ1/} ∪ t^{/ω2/} ) }
//
// σ2 selects the join key inside F's members, ω1 the join key inside G's
// members; σ1 and ω2 select and re-index what each side contributes to
// the output. This one operation specializes to the CST relative product,
// natural join, semijoin, projection-join and the composition operator of
// Def 11.1, depending on the four scope sets — the paper's §10 lists
// eight useful parameterizations, reproduced by experiment E3.
//
// The implementation is a hash join on the digest of the canonical
// (key-element, key-scope) members, so it runs in O(|F| + |G| + out).
// Every key and output is derived into scratch by the appendReScope
// kernel; only the outputs are built, once, or counted (Derived).
func RelativeProduct(f, g *core.Set, sigma, omega Sigma) *core.Set {
	s, _ := RelativeProductCtx(context.Background(), f, g, sigma, omega)
	return s
}

// RelativeProductCtx is RelativeProduct under a cancellation context:
// it polls every ctxCheckEvery probes and matches, so a product whose
// output is |F|×|G| can still be stopped.
func RelativeProductCtx(ctx context.Context, f, g *core.Set, sigma, omega Sigma) (*core.Set, error) {
	return DeriveRelativeProduct(f, g, sigma, omega).Set(ctx)
}

// DeriveRelativeProduct derives Def 10.1's outputs, each as the (probe
// member, build member) pair it comes from.
func DeriveRelativeProduct(f, g *core.Set, sigma, omega Sigma) *Derived {
	return &Derived{src: &join{sigma: sigma, omega: omega, f: f.Members(), g: g.Members()}}
}

// foldMember folds one member's digests into h.
func foldMember(h uint64, m core.Member) uint64 {
	h = (h ^ core.Digest(m.Elem)) * 0x100000001b3
	return (h ^ core.Digest(m.Scope)) * 0x100000001b3
}

// keyDigest folds the canonical members of a key; elemLen separates its
// key-element members from its key-scope members.
func keyDigest(key []core.Member, elemLen int) uint64 {
	h := uint64(elemLen) + 0x9e3779b97f4a7c15
	for _, m := range key {
		h = foldMember(h, m)
	}
	return h
}

func memberEqual(a, b core.Member) bool {
	return core.Equal(a.Elem, b.Elem) && core.Equal(a.Scope, b.Scope)
}

// join is one relative product's probe and build sides. Its finish
// files G's members under the digest of their ω1 key; no key is stored:
// each id a chain walks is confirmed by deriving the build member's key
// again.
type join struct {
	sigma, omega Sigma
	f, g         []core.Member
}

// file files G in sc.join, polling ctx every ctxCheckEvery members.
func (j *join) file(ctx context.Context, sc *scratch) error {
	sc.join.Reset(len(j.g))
	steps := 0
	for _, y := range j.g {
		if err := tick(ctx, &steps); err != nil {
			return err
		}
		var n int
		sc.key, n = appendKey(sc.key[:0], y, j.omega.S1)
		sc.join.Add(keyDigest(sc.key, n) & digestMask)
	}
	return nil
}

// appendKey appends to dst the canonical members of m's element
// re-scoped through σ, then of its scope, and returns dst and the
// element part's length: the join key of m, or its σ-domain member.
func appendKey(dst []core.Member, m core.Member, sigma *core.Set) ([]core.Member, int) {
	dst = appendProduct(dst, m.Elem, sigma, nil, nil)
	return appendProduct(dst, m.Scope, sigma, nil, nil), len(dst)
}

// appendProduct appends the canonical members of a^{/σ/} ∪ b^{/ω/} to dst.
func appendProduct(dst []core.Member, a core.Value, sigma *core.Set, b core.Value, omega *core.Set) []core.Member {
	from := len(dst)
	dst = appendReScope(appendReScope(dst, a, sigma), b, omega)
	return dst[:from+len(core.Canonicalize(dst[from:]))]
}

// match appends to hits every build member y^t that x^s = m matches on
// the σ2/ω1 key.
func (j *join) match(sc *scratch, hits []int32, m core.Member) []int32 {
	var n, k int
	sc.probe, n = appendKey(sc.probe[:0], m, j.sigma.S2)
	for id := sc.join.First(keyDigest(sc.probe, n) & digestMask); id >= 0; id = sc.join.Next(id) {
		if sc.key, k = appendKey(sc.key[:0], j.g[id], j.omega.S1); k == n && slices.EqualFunc(sc.key, sc.probe, memberEqual) {
			hits = append(hits, id)
		}
	}
	return hits
}

// each yields every (probe, build) pair that matches on the key,
// polling ctx every ctxCheckEvery probes and matches.
func (j *join) each(ctx context.Context, sc *scratch, yield func(cand)) error {
	steps := 0
	for i, m := range j.f {
		if err := tick(ctx, &steps); err != nil {
			return err
		}
		sc.hits = j.match(sc, sc.hits[:0], m)
		for _, id := range sc.hits {
			if err := tick(ctx, &steps); err != nil {
				return err
			}
			yield(cand{int32(i), id})
		}
	}
	return nil
}

// derive derives the output z^τ of Def 10.1 for probe member c[0] and
// build member c[1]: z = x^{/σ1/} ∪ y^{/ω2/}, τ = s^{/σ1/} ∪ t^{/ω2/}.
func (j *join) derive(dst []core.Member, c cand) ([]core.Member, int) {
	x, y := j.f[c[0]], j.g[c[1]]
	dst = appendProduct(dst, x.Elem, j.sigma.S1, y.Elem, j.omega.S2)
	return appendProduct(dst, x.Scope, j.sigma.S1, y.Scope, j.omega.S2), len(dst)
}

// RelProdSpec packages a full relative-product parameterization: the two
// scope pairs ⟨σ1,σ2⟩ and ⟨ω1,ω2⟩.
type RelProdSpec struct {
	Sigma Sigma
	Omega Sigma
}

// Apply runs the relative product under this specification.
func (s RelProdSpec) Apply(f, g *core.Set) *core.Set {
	return RelativeProduct(f, g, s.Sigma, s.Omega)
}

// ScopeSet builds the scope set {p1^i1, …, pn^in} from (element, index)
// pairs — the notation {1^1, 2^3} of the paper's §10 parameter lists.
func ScopeSet(pairs ...[2]int) *core.Set {
	b := core.NewBuilder(len(pairs))
	for _, p := range pairs {
		b.Add(core.Int(p[0]), core.Int(p[1]))
	}
	return b.Set()
}

// Section10Specs returns the eight relative-product parameterizations
// listed in §10 of the formal text, in the paper's order:
//
//  1. ⟨a,b⟩/⟨b,c⟩ → ⟨a,c⟩       (CST relative product)
//  2. ⟨a,b⟩/⟨b,c⟩ → ⟨a,b,c⟩     (key-preserving join)
//  3. ⟨a,b⟩/⟨a,c⟩ → ⟨a,b,c⟩     (first-key join, F keeps both)
//  4. ⟨a,b⟩/⟨a,c⟩ → ⟨b,c⟩       (first-key join, key dropped)
//  5. ⟨a,b⟩/⟨c,b⟩ → ⟨a,c,b⟩     (second-key join, G keeps both)
//  6. ⟨a,b⟩/⟨c,b⟩ → ⟨a,c⟩       (second-key join, key dropped)
//  7. 3-tuple/4-tuple → 8-tuple  (wide reorder with duplication)
//  8. 5-tuple/6-tuple → 8-tuple  (natural join on a 3-position key)
func Section10Specs() []RelProdSpec {
	p := func(pairs ...[2]int) *core.Set { return ScopeSet(pairs...) }
	return []RelProdSpec{
		{NewSigma(p([2]int{1, 1}), p([2]int{2, 1})), NewSigma(p([2]int{1, 1}), p([2]int{2, 2}))},
		{NewSigma(p([2]int{1, 1}), p([2]int{2, 1})), NewSigma(p([2]int{1, 1}), p([2]int{1, 2}, [2]int{2, 3}))},
		{NewSigma(p([2]int{1, 1}, [2]int{2, 2}), p([2]int{1, 1})), NewSigma(p([2]int{1, 1}), p([2]int{2, 3}))},
		{NewSigma(p([2]int{2, 1}), p([2]int{1, 1})), NewSigma(p([2]int{1, 1}), p([2]int{2, 2}))},
		{NewSigma(p([2]int{1, 1}), p([2]int{2, 1})), NewSigma(p([2]int{2, 1}), p([2]int{1, 2}, [2]int{2, 3}))},
		{NewSigma(p([2]int{1, 1}), p([2]int{2, 1})), NewSigma(p([2]int{2, 1}), p([2]int{1, 2}))},
		{NewSigma(p([2]int{2, 1}, [2]int{3, 2}, [2]int{1, 3}), p([2]int{2, 1}, [2]int{3, 2})),
			NewSigma(p([2]int{4, 1}, [2]int{3, 2}), p([2]int{2, 4}, [2]int{4, 5}, [2]int{3, 6}, [2]int{1, 7}, [2]int{1, 8}))},
		{NewSigma(p([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}, [2]int{4, 4}, [2]int{5, 5}), p([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3})),
			NewSigma(p([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}), p([2]int{4, 6}, [2]int{5, 7}, [2]int{6, 8}))},
	}
}

// CSTRelativeProduct is the classical relative product F/G =
// { ⟨a,c⟩ : ∃b ⟨a,b⟩ ∈ F & ⟨b,c⟩ ∈ G }, realized as the §10 case-1
// parameterization σ = ⟨{1¹},{2¹}⟩, ω = ⟨{1¹},{2²}⟩.
func CSTRelativeProduct(f, g *core.Set) *core.Set { return cst.Apply(f, g) }

// CSTSpec is the parameterization CSTRelativeProduct applies. Its scope
// sets are built once: ⟨1⟩ = {1¹} and ⟨2⟩ = {2¹} are StdSigma's.
func CSTSpec() RelProdSpec { return cst }

var cst = RelProdSpec{Sigma: stdSigma, Omega: NewSigma(stdSigma.S1, ScopeSet([2]int{2, 2}))}
