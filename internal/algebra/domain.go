package algebra

import (
	"context"

	"xst/internal/core"
)

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
	s, _ := SigmaDomainCtx(context.Background(), r, sigma)
	return s
}

// SigmaDomainCtx is SigmaDomain under a cancellation context.
func SigmaDomainCtx(ctx context.Context, r *core.Set, sigma *core.Set) (*core.Set, error) {
	return DeriveSigmaDomain(r, sigma).Set(ctx)
}

// DeriveSigmaDomain derives the members of 𝔇_σ(R), each as the member of
// R it comes from. With σ = ∅ no element re-scopes to a non-empty set
// (Consequence 7.1(e): 𝔇_∅(R) = ∅). The outputs are distinct when R is
// classical and σ renames every scope of R's elements one-to-one.
func DeriveSigmaDomain(r *core.Set, sigma *core.Set) *Derived {
	rs := r.Members()
	return &Derived{src: &domain{rs, sigma}, distinct: r.IsClassical() && renamesAll(rs, sigma)}
}

// domain is a σ-domain's operands: R's members and σ.
type domain struct {
	rs    []core.Member
	sigma *core.Set
}

func (*domain) file(context.Context, *scratch) error { return nil }

func (dm *domain) each(ctx context.Context, _ *scratch, yield func(cand)) error {
	steps := 0
	for i, r := range dm.rs {
		if err := tick(ctx, &steps); err != nil {
			return err
		}
		if !ReScopesToEmpty(r.Elem, dm.sigma) {
			yield(cand{int32(i)})
		}
	}
	return nil
}

func (dm *domain) derive(dst []core.Member, c cand) ([]core.Member, int) {
	return appendKey(dst, dm.rs[c[0]], dm.sigma)
}

// renamesAll reports that σ maps scopes one-to-one — each to exactly one
// scope, no two to the same — and covers every scope of every set
// element of R. Then z ↦ z^{/σ/} renames each member's scope and is
// injective (Def 7.3), so distinct elements stay distinct. The scopes
// are compared pairwise, so a σ of more than maxRenames members, which
// no position list comes near, reports false and is counted by table.
func renamesAll(rs []core.Member, sigma *core.Set) bool {
	ss := sigma.Members()
	if len(ss) > maxRenames {
		return false
	}
	for i, m := range ss {
		for _, o := range ss[:i] {
			if core.Equal(o.Elem, m.Elem) || core.Equal(o.Scope, m.Scope) {
				return false
			}
		}
	}
	for _, r := range rs {
		if z, ok := r.Elem.(*core.Set); ok {
			for _, x := range z.Members() {
				if len(sigma.MembersOf(x.Scope)) == 0 {
					return false
				}
			}
		}
	}
	return true
}

// maxRenames bounds the σ renamesAll compares pairwise.
const maxRenames = 64

// Domain1 is the CST 1-domain 𝔇₁ (Def 3.4) realized as 𝔇_⟨1⟩.
func Domain1(r *core.Set) *core.Set { return SigmaDomain(r, stdSigma.S1) }

// Domain2 is the CST 2-domain 𝔇₂ (Def 3.5) realized as 𝔇_⟨2⟩.
func Domain2(r *core.Set) *core.Set { return SigmaDomain(r, stdSigma.S2) }
