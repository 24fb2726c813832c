package algebra

import "xst/internal/core"

// SigmaDomain implements Def 7.4, the σ-Domain:
//
//	𝔇_σ(R) = { x^s : ∃z,w ( z ∈_w R  &  x = z^{/σ/} ≠ ∅  &  s = w^{/σ/} ) }
//
// Every member z of R is re-scoped through σ; members whose re-scope is
// empty vanish. The member's own scope w is re-scoped the same way, so
// scope structure travels with the data — this is how XST keeps physical
// layout (scopes) attached to logical content (elements).
//
// With σ = ⟨2⟩ and R a set of classical pairs {x^1, y^2}, 𝔇_σ is exactly
// the CST 2-domain (range); with σ = ⟨1⟩ it is the CST 1-domain.
func SigmaDomain(r *core.Set, sigma *core.Set) *core.Set {
	if sigma.IsEmpty() {
		return core.Empty() // Consequence 7.1(e): 𝔇_∅(R) = ∅.
	}
	// Every x and s is carved from one slab through one scratch; the
	// output list is sized at the first survivor, for the members still
	// to come, so a σ that matches nothing allocates nothing.
	var (
		slab    core.Slab
		scratch []core.Member
		out     []core.Member
	)
	for i, m := range r.Members() {
		scratch = appendReScope(scratch[:0], m.Elem, sigma)
		if len(scratch) == 0 {
			continue
		}
		x := slab.Set(scratch)
		scratch = appendReScope(scratch[:0], m.Scope, sigma)
		if out == nil {
			out = make([]core.Member, 0, r.Len()-i)
		}
		out = append(out, core.Member{Elem: x, Scope: slab.Set(scratch)})
	}
	return core.OwnSet(out)
}

// Domain1 is the CST 1-domain 𝔇₁ (Def 3.4) realized as 𝔇_⟨1⟩.
func Domain1(r *core.Set) *core.Set { return SigmaDomain(r, core.Tuple(core.Int(1))) }

// Domain2 is the CST 2-domain 𝔇₂ (Def 3.5) realized as 𝔇_⟨2⟩.
func Domain2(r *core.Set) *core.Set { return SigmaDomain(r, core.Tuple(core.Int(2))) }
