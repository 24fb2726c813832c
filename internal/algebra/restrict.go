package algebra

import "xst/internal/core"

// SigmaRestrict implements Def 7.6, the σ-Restriction R |_σ A:
//
//	R |_σ A = { z^w : z ∈_w R  &  ∃a,s ( a ∈_s A  &  a^{\σ\} ⊆ z  &  s^{\σ\} ⊆ w ) }
//
// It keeps exactly those members of R that are "matched" by some member
// of A on the positions selected by σ — the element a, re-scoped by
// element through σ, must be contained in the candidate z, and likewise
// for the scopes. This is the access operation of XST: selection by
// partial content, with the selector pattern living in σ.
//
// The result is a subset of R (same members, same scopes), so
// R |_σ A ⊆ R always holds.
func SigmaRestrict(r *core.Set, sigma *core.Set, a *core.Set) *core.Set {
	if r.IsEmpty() || a.IsEmpty() {
		return core.Empty()
	}
	// Precompute the probe patterns from A once.
	type probe struct {
		elem  *core.Set // a^{\σ\}
		scope *core.Set // s^{\σ\}
	}
	probes := make([]probe, 0, a.Len())
	for _, am := range a.Members() {
		probes = append(probes, probe{
			elem:  ReScopeByElem(am.Elem, sigma),
			scope: ReScopeByElem(am.Scope, sigma),
		})
	}
	// A restriction selects: the output grows on demand, not from |R|.
	var out []core.Member
	for _, m := range r.Members() {
		ze, zok := m.Elem.(*core.Set)
		we, wok := m.Scope.(*core.Set)
		for _, p := range probes {
			// ∅ ⊆ anything, so empty probes match any member; non-empty
			// probes require set-valued candidates.
			if !p.elem.IsEmpty() && (!zok || !core.Subset(p.elem, ze)) {
				continue
			}
			if !p.scope.IsEmpty() && (!wok || !core.Subset(p.scope, we)) {
				continue
			}
			out = append(out, m)
			break
		}
	}
	return core.OwnSet(out)
}

// Image implements Def 3.10 / 7.1, the XST image:
//
//	R[A]_{⟨σ1,σ2⟩} = 𝔇_{σ2}( R |_{σ1} A )
//
// read as "the σ2-domain of the σ1-restriction": first select the members
// of R matched by A on the σ1 positions, then project them onto the σ2
// positions. With σ1 = ⟨1⟩, σ2 = ⟨2⟩ over classical pairs this is the CST
// image R[A] up to 1-tuple wrapping.
func Image(r *core.Set, a *core.Set, sigma Sigma) *core.Set {
	return SigmaDomain(SigmaRestrict(r, sigma.S1, a), sigma.S2)
}

// Sigma is the scope pair σ = ⟨σ1, σ2⟩ that parameterizes images,
// processes and relative products: σ1 selects input positions, σ2 selects
// output positions.
type Sigma struct {
	S1 *core.Set
	S2 *core.Set
}

// NewSigma builds σ = ⟨σ1, σ2⟩.
func NewSigma(s1, s2 *core.Set) Sigma { return Sigma{S1: s1, S2: s2} }

// StdSigma is σ = ⟨⟨1⟩, ⟨2⟩⟩ — input matched on position 1, output taken
// from position 2 — the scope pair under which XST processes coincide
// with CST functions on sets of pairs.
func StdSigma() Sigma {
	return Sigma{S1: core.Tuple(core.Int(1)), S2: core.Tuple(core.Int(2))}
}

// InverseStdSigma is τ = ⟨⟨2⟩, ⟨1⟩⟩, the inverse direction of StdSigma
// (Example 8.1(b)).
func InverseStdSigma() Sigma {
	return Sigma{S1: core.Tuple(core.Int(2)), S2: core.Tuple(core.Int(1))}
}

// Positions builds the scope set ⟨p1, …, pn⟩ = {p1^1, …, pn^n} used to
// select and reorder tuple positions, e.g. Positions(3, 1) re-scopes
// position 3 to 1 and position 1 to 2 (the paper's 𝔇_⟨3,1⟩ example).
func Positions(ps ...int) *core.Set {
	xs := make([]core.Value, len(ps))
	for i, p := range ps {
		xs[i] = core.Int(p)
	}
	return core.Tuple(xs...)
}

// Value renders σ as the value ⟨σ1, σ2⟩ for display and hashing.
func (s Sigma) Value() *core.Set { return core.Pair(s.S1, s.S2) }

// Equal reports structural equality of scope pairs.
func (s Sigma) Equal(o Sigma) bool {
	return core.Equal(s.S1, o.S1) && core.Equal(s.S2, o.S2)
}

func (s Sigma) String() string { return s.Value().String() }
