package algebra

import (
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
// (key-element, key-scope) members, so it runs in O(|F| + |G| + out),
// and every re-scope in it is the appendReScope kernel into reused
// scratch: the only sets built are the output's.
func RelativeProduct(f, g *core.Set, sigma, omega Sigma) *core.Set {
	return relativeProduct(f, g, sigma, omega, allDigestBits)
}

// allDigestBits is the digest mask outside tests, which narrow it to
// force collisions and prove the member-wise comparison behind a
// digest match.
const allDigestBits = ^uint64(0)

func relativeProduct(f, g *core.Set, sigma, omega Sigma, mask uint64) *core.Set {
	if f.IsEmpty() || g.IsEmpty() {
		return core.Empty()
	}
	j := newJoin(g.Members(), sigma, omega, mask)
	out := make([]core.Member, 0, f.Len())
	for _, m := range f.Members() {
		out = j.probe(out, m)
	}
	return core.OwnSet(out)
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

// join is the build side of one relative product: G's members filed
// under the digest of their ω1 key, the canonical key members kept for
// the comparison a digest match still needs, and the scratch and slab
// the probe side builds its output through. What G contributes to an
// output member (y^{/ω2/}, t^{/ω2/}) is not built here: probe re-scopes
// it straight into the output.
type join struct {
	sigma, omega Sigma
	mask         uint64 // digest bits in use
	g            []core.Member
	chains       core.Chains
	keys         []core.Member // every build key, back to back
	bounds       []int32       // id's key-element members are keys[bounds[2id]:bounds[2id+1]], its key-scope members run on to bounds[2id+2]
	key, fe, buf []core.Member // scratch: probe key, x^{/σ1/}, one output set
	slab         core.Slab
}

func newJoin(g []core.Member, sigma, omega Sigma, mask uint64) *join {
	j := &join{sigma: sigma, omega: omega, mask: mask, g: g,
		chains: core.NewChains(len(g)),
		keys:   make([]core.Member, 0, len(g)*omega.S1.Len()),
		bounds: make([]int32, 1, 1+2*len(g))}
	for _, m := range g {
		start := len(j.keys)
		j.keys = appendKey(j.keys, m.Elem, omega.S1)
		elemEnd := len(j.keys)
		j.keys = appendKey(j.keys, m.Scope, omega.S1)
		j.bounds = append(j.bounds, int32(elemEnd), int32(len(j.keys)))
		j.chains.Add(keyDigest(j.keys[start:], elemEnd-start) & mask)
	}
	return j
}

// appendKey appends the canonical members of a^{/σ/} to dst.
func appendKey(dst []core.Member, a core.Value, sigma *core.Set) []core.Member {
	from := len(dst)
	dst = appendReScope(dst, a, sigma)
	return dst[:from+len(core.Canonicalize(dst[from:]))]
}

// probe appends to out the member z^τ of Def 10.1 for every build-side
// member y^t that x^s = m matches on the σ2/ω1 key.
func (j *join) probe(out []core.Member, m core.Member) []core.Member {
	j.key = appendKey(j.key[:0], m.Elem, j.sigma.S2)
	elemLen := len(j.key)
	j.key = appendKey(j.key, m.Scope, j.sigma.S2)
	haveFe := false
	for id := j.chains.First(keyDigest(j.key, elemLen) & j.mask); id >= 0; id = j.chains.Next(id) {
		b := j.bounds[2*id : 2*id+3]
		if !slices.EqualFunc(j.key[:elemLen], j.keys[b[0]:b[1]], memberEqual) ||
			!slices.EqualFunc(j.key[elemLen:], j.keys[b[1]:b[2]], memberEqual) {
			continue
		}
		if !haveFe {
			j.fe, haveFe = appendReScope(j.fe[:0], m.Elem, j.sigma.S1), true
		}
		y := j.g[id]
		j.buf = appendReScope(append(j.buf[:0], j.fe...), y.Elem, j.omega.S2)
		z := j.slab.Set(j.buf)
		j.buf = appendReScope(appendReScope(j.buf[:0], m.Scope, j.sigma.S1), y.Scope, j.omega.S2)
		out = append(out, core.Member{Elem: z, Scope: j.slab.Set(j.buf)})
	}
	return out
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
func CSTRelativeProduct(f, g *core.Set) *core.Set { return cstSpec().Apply(f, g) }

func cstSpec() RelProdSpec {
	return RelProdSpec{
		Sigma: NewSigma(ScopeSet([2]int{1, 1}), ScopeSet([2]int{2, 1})),
		Omega: NewSigma(ScopeSet([2]int{1, 1}), ScopeSet([2]int{2, 2})),
	}
}
