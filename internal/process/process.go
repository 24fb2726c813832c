// Package process implements XST processes — set *behaviors* — and their
// application, nested application, equivalence and composition. A process
// f_(σ) is a pair of sets (f, σ) that is deliberately NOT a core.Value:
// "processes do not exist in any formal set theory and thus can not be
// contained in sets" (§2). Applying a process to a set produces a set
// (Def 8.1); applying a process to a *process* produces another process
// (Def 4.1).
package process

import (
	"errors"
	"fmt"

	"xst/internal/algebra"
	"xst/internal/core"
)

// Proc is a process f_(σ): the carrier set f together with the scope pair
// σ = ⟨σ1, σ2⟩. The zero value is the empty process over ∅.
type Proc struct {
	F   *core.Set
	Sig algebra.Sigma
}

// New builds the process f_(σ).
func New(f *core.Set, sig algebra.Sigma) Proc { return Proc{F: f, Sig: sig} }

// Std builds f_(σ) with the standard σ = ⟨⟨1⟩, ⟨2⟩⟩ over a set of pairs.
func Std(f *core.Set) Proc { return Proc{F: f, Sig: algebra.StdSigma()} }

// Apply implements Def 3.8/8.1: f_(σ)(x) = f[x]_σ = 𝔇_{σ2}(f |_{σ1} x).
// Application instantiates the behavior on a concrete input set and
// produces a concrete result set.
func (p Proc) Apply(x *core.Set) *core.Set {
	return algebra.Image(p.F, x, p.Sig)
}

// ApplyProc implements Def 4.1, nested application:
//
//	f_(σ)(g_(ω)) = ( f_(σ)(g) )_(ω) = ( f[g]_σ )_(ω)
//
// Applying a process to a process yields a process, not a result set: the
// carrier is f[g]_σ and the scope pair is g's ω.
func (p Proc) ApplyProc(g Proc) Proc {
	return Proc{F: p.Apply(g.F), Sig: g.Sig}
}

// DomainSet returns 𝔇_{σ1}(f), the realized domain of the behavior.
func (p Proc) DomainSet() *core.Set { return algebra.SigmaDomain(p.F, p.Sig.S1) }

// CodomainSet returns 𝔇_{σ2}(f), the realized codomain of the behavior.
func (p Proc) CodomainSet() *core.Set { return algebra.SigmaDomain(p.F, p.Sig.S2) }

// IsProcess implements Def 2.1: f and σ define a process iff some input
// yields a non-empty result and every non-empty subset g of f also has
// some input with a non-empty result. Images are additive over carriers
// (Consequence C.1(i)), so the subset condition reduces to every
// singleton sub-carrier {m} having a productive input. The weakest
// selector is the universal probe {∅^∅} — it matches every carrier
// member — under which the image of {m} is non-empty exactly when m's
// element survives the σ2 re-scope. Hence:
//
//	f_(σ) is a process  ⟺  f ≠ ∅ ∧ ∀(z ∈ f) z^{/σ2/} ≠ ∅
func (p Proc) IsProcess() bool {
	if p.F.IsEmpty() {
		return false
	}
	for _, m := range p.F.Members() {
		if algebra.ReScopesToEmpty(m.Elem, p.Sig.S2) {
			return false
		}
	}
	return true
}

// universalProbe is the input {∅^∅}: its re-scoped patterns are empty and
// so match every carrier member (∅ ⊆ z), making it the weakest selector.
func universalProbe() *core.Set { return core.S(core.Empty()) }

// Singletons calls fn for every singleton input {d^s} drawn from the
// realized domain 𝔇_{σ1}(f). These are the canonical probes: by
// additivity of the image in its input (Consequence C.1(a)), behavior on
// arbitrary domain subsets is determined by behavior on these singletons.
func (p Proc) Singletons(fn func(in *core.Set) bool) {
	for _, m := range p.DomainSet().Members() {
		if !fn(core.NewSet(m)) {
			return
		}
	}
}

// IsFunction implements Def 8.2 with the domain-singleton reading of the
// quantifier: f_(σ) is a function iff every singleton input drawn from
// its realized domain produces a singleton (never a multi-member) result.
func (p Proc) IsFunction() bool {
	ok := true
	p.Singletons(func(in *core.Set) bool {
		out := p.Apply(in)
		if !out.IsEmpty() && out.Len() != 1 {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// IsInjective implements Def 6.3 over domain singletons: distinct inputs
// never share a non-empty result.
func (p Proc) IsInjective() bool {
	seen := map[string]*core.Set{}
	ok := true
	p.Singletons(func(in *core.Set) bool {
		out := p.Apply(in)
		if out.IsEmpty() {
			return true
		}
		k := core.Key(out)
		if prev, dup := seen[k]; dup && !core.Equal(prev, in) {
			ok = false
			return false
		}
		seen[k] = in
		return true
	})
	return ok
}

// HasManyToOne reports whether two distinct domain singletons map to the
// same non-empty result (the ">" association of §6).
func (p Proc) HasManyToOne() bool { return !p.IsInjective() }

// HasOneToMany reports whether some domain singleton maps to a result
// with more than one member (the "<" association of §6).
func (p Proc) HasOneToMany() bool { return !p.IsFunction() }

// EquivalentOn implements Def 2.2 / B.1 restricted to the given probe
// inputs: f_(σ) = g_(ω) iff f[x]_σ = g[x]_ω for every probe.
func (p Proc) EquivalentOn(q Proc, probes []*core.Set) bool {
	for _, x := range probes {
		if !core.Equal(p.Apply(x), q.Apply(x)) {
			return false
		}
	}
	return true
}

// Equivalent decides process equality over the canonical probe family:
// every domain singleton of either side, both full domains, their union,
// ∅ and the universal probe. By additivity of images this determines
// equality on every input assembled from either behavior's domain.
func (p Proc) Equivalent(q Proc) bool {
	var probes []*core.Set
	collect := func(pr Proc) {
		pr.Singletons(func(in *core.Set) bool {
			probes = append(probes, in)
			return true
		})
	}
	collect(p)
	collect(q)
	dp, dq := p.DomainSet(), q.DomainSet()
	probes = append(probes, dp, dq, core.Union(dp, dq), core.Empty(), universalProbe())
	return p.EquivalentOn(q, probes)
}

// Compose implements Def 11.1:
//
//	g_(ω) ∘ f_(σ) = ( f /_{⟨σ1,σ2⟩}^{⟨ω1,ω2⟩} g )_(⟨σ1,ω2⟩)
//
// The composite carrier is a single relative product — the paper's basis
// for composing data-management operations and eliminating intermediate
// results (Theorem 11.2, experiment E9).
func Compose(g, f Proc) Proc {
	h := algebra.RelativeProduct(f.F, g.F, f.Sig, g.Sig)
	return Proc{F: h, Sig: algebra.NewSigma(f.Sig.S1, g.Sig.S2)}
}

// ErrNotStd reports a StdCompose operand whose scope pair is not the
// standard ⟨⟨1⟩, ⟨2⟩⟩.
var ErrNotStd = errors.New("process: StdCompose requires standard scope pairs")

// StdCompose composes two *standard* pair processes into a standard pair
// process computing g after f. Def 11.1 composition only exists when the
// operands' scope pairs are compatible — two standard processes collide
// at position 1 — so StdCompose instantiates the definition with the
// composable parameterization of §10 case 1 (σ = ⟨{1¹},{2¹}⟩,
// ω = ⟨{1¹},{2²}⟩: the CST relative product) and re-scopes the resulting
// behavior back to standard form. The result satisfies
// StdCompose(g,f).Apply(x) = g.Apply(f.Apply(x)) for every input x.
func StdCompose(g, f Proc) (Proc, error) {
	std := algebra.StdSigma()
	if !f.Sig.Equal(std) || !g.Sig.Equal(std) {
		return Proc{}, ErrNotStd
	}
	return Std(algebra.CSTRelativeProduct(f.F, g.F)), nil
}

// MustStdCompose is StdCompose that panics on non-standard operands.
func MustStdCompose(g, f Proc) Proc {
	h, err := StdCompose(g, f)
	if err != nil {
		panic(err)
	}
	return h
}

// ComposableSigmas returns a (σ, ω) pair under which Def 11.1 composition
// of two pair-carrier processes exists literally: f_(σ) matches inputs on
// position 1 and emits at position 1, while g_(ω) consumes position-1
// keys and emits at position 2, so the composite carrier keeps both
// contributions apart and τ = ⟨σ1, ω2⟩ can read them back.
func ComposableSigmas() (sigma, omega algebra.Sigma) {
	return algebra.StdSigma(),
		algebra.NewSigma(
			algebra.ScopeSet([2]int{1, 1}),
			algebra.ScopeSet([2]int{2, 2}),
		)
}

// Identity returns I_A under the standard σ: the process whose carrier
// pairs every element of A with itself, component-wise on 1-tuples. For
// A = {⟨a⟩, ⟨b⟩} the carrier is {⟨a,a⟩, ⟨b,b⟩} (Appendix B).
func Identity(a *core.Set) Proc {
	b := core.NewBuilder(a.Len())
	for _, m := range a.Members() {
		if elems, ok := core.TupleElems(m.Elem); ok && len(elems) == 1 {
			b.AddClassical(core.Pair(elems[0], elems[0]))
			continue
		}
		b.AddClassical(core.Pair(m.Elem, m.Elem))
	}
	return Std(b.Set())
}

// Restrict returns the behavior confined to inputs matched by a: the
// carrier becomes f |_{σ1} a, so 𝔇_{σ1} of the result is contained in
// the σ1-projection of the original domain that a selects. Restriction
// preserves functionality (a sub-carrier of a function is a function).
func (p Proc) Restrict(a *core.Set) Proc {
	return Proc{F: algebra.SigmaRestrict(p.F, p.Sig.S1, a), Sig: p.Sig}
}

// Inverse returns the behavior read in the opposite direction: the same
// carrier under σ' = ⟨σ2, σ1⟩. Example 8.1(b) is Inverse of 8.1(a); the
// inverse of a function need not be a function.
func (p Proc) Inverse() Proc {
	return Proc{F: p.F, Sig: algebra.NewSigma(p.Sig.S2, p.Sig.S1)}
}

func (p Proc) String() string { return fmt.Sprintf("%v_(%v)", p.F, p.Sig) }
