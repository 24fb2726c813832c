// Package algebra implements the extended-set operations of XST: the two
// re-scoping operations, σ-domain, σ-restriction, image, tuple
// concatenation, cross products, tagging, σ-value extraction and the
// generalized relative product. Definition numbers refer to Childs'
// formal text ("Functions as Set Behavior"), whose operation set is the
// published specification of the Extended Set Theory operations.
package algebra

import "xst/internal/core"

// ReScopeByScope implements Def 7.3, A^{/σ/}:
//
//	A^{/σ/} = { x^w : ∃s ( x ∈_s A  &  s ∈_w σ ) }
//
// Each member x of A whose scope s occurs as an *element* of σ is kept,
// re-scoped to the scope(s) that s carries inside σ. Members whose scope
// does not occur in σ are dropped. Non-set operands have no members and
// yield ∅.
//
// Example (paper): {a^x, b^y, c^z}^{/{x^1, y^2, z^3}/} = {a^1, b^2, c^3}.
func ReScopeByScope(a core.Value, sigma *core.Set) *core.Set {
	as, ok := a.(*core.Set)
	if !ok || as.IsEmpty() || sigma.IsEmpty() {
		return core.Empty()
	}
	return core.OwnSet(appendReScope(make([]core.Member, 0, as.Len()), as, sigma))
}

// appendReScope is the re-scope kernel under every σ-parameterised
// operation: it appends the members of A^{/σ/} to dst, un-canonicalised
// (σ may send two members of A to the same x^w), and allocates nothing
// beyond dst's growth. A member is a function from scopes to elements
// and σ a small map on scopes, so re-scoping is composition with σ: one
// walk over A, and per member the run of σ's members whose element is
// that member's scope.
func appendReScope(dst []core.Member, a core.Value, sigma *core.Set) []core.Member {
	as, ok := a.(*core.Set)
	if !ok {
		return dst
	}
	for _, m := range as.Members() {
		for _, sm := range sigma.MembersOf(m.Scope) {
			dst = append(dst, core.Member{Elem: m.Elem, Scope: sm.Scope})
		}
	}
	return dst
}

// ReScopesToEmpty reports A^{/σ/} = ∅ without building it: no scope of
// A occurs as an element of σ.
func ReScopesToEmpty(a core.Value, sigma *core.Set) bool {
	as, ok := a.(*core.Set)
	if !ok {
		return true
	}
	for _, m := range as.Members() {
		if len(sigma.MembersOf(m.Scope)) > 0 {
			return false
		}
	}
	return true
}

// ComposeScopes returns the scope set κ with A^{/σ/}^{/τ/} = A^{/κ/}
// for every A: κ carries s ↦ v exactly when σ carries s ↦ w and τ
// carries w ↦ v for some w —
//
//	κ = { s^v : ∃w ( s ∈_w σ  &  w ∈_v τ ) }
//
// the membership-level relative product of the two scope sets. This is
// the algebraic identity behind fusing consecutive re-scopes (and hence
// consecutive projections) into one operation.
func ComposeScopes(sigma, tau *core.Set) *core.Set {
	b := core.NewBuilder(sigma.Len())
	for _, m := range sigma.Members() {
		for _, tm := range tau.MembersOf(m.Scope) {
			b.Add(m.Elem, tm.Scope)
		}
	}
	return b.Set()
}

// ReScopeByElem implements Def 7.5, A^{\σ\}:
//
//	A^{\σ\} = { x^w : ∃s ( x ∈_s A  &  w ∈_s σ ) }
//
// Each member x of A is re-scoped to the element(s) of σ that appear
// under x's scope s. Non-set operands yield ∅.
//
// Example (paper): {a^1, b^2, c^3}^{\{w^1, v^2, t^3}\} = {a^w, b^v, c^t}.
func ReScopeByElem(a core.Value, sigma *core.Set) *core.Set {
	as, ok := a.(*core.Set)
	if !ok || as.IsEmpty() || sigma.IsEmpty() {
		return core.Empty()
	}
	b := core.NewBuilder(as.Len())
	for _, m := range as.Members() {
		for _, w := range sigma.ElemsUnder(m.Scope) {
			b.Add(m.Elem, w)
		}
	}
	return b.Set()
}
