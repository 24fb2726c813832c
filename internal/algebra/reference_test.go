package algebra

import (
	"context"

	"xst/internal/core"
)

// The definitional implementations of Defs 7.3, 7.4 and 10.1 and of the
// closure: one set per re-scope, one union per match, the whole closure
// re-joined every round. They were the serving code until the re-scope
// kernel replaced them; they stay here as the executable statement of
// the definitions that the kernel is differentially tested against
// (kernel_test.go).

// refScopesOf returns every w with s ∈_w σ by reading σ member by
// member, so the oracle does not lean on the run accessor under test.
func refScopesOf(sigma *core.Set, s core.Value) []core.Value {
	var ws []core.Value
	for _, sm := range sigma.Members() {
		if core.Equal(sm.Elem, s) {
			ws = append(ws, sm.Scope)
		}
	}
	return ws
}

// refReScopeByScope is Def 7.3: A^{/σ/} = { x^w : ∃s ( x ∈_s A & s ∈_w σ ) }.
func refReScopeByScope(a core.Value, sigma *core.Set) *core.Set {
	as, ok := a.(*core.Set)
	if !ok || as.IsEmpty() || sigma.IsEmpty() {
		return core.Empty()
	}
	b := core.NewBuilder(as.Len())
	for _, m := range as.Members() {
		for _, w := range refScopesOf(sigma, m.Scope) {
			b.Add(m.Elem, w)
		}
	}
	return b.Set()
}

// refSigmaDomain is Def 7.4.
func refSigmaDomain(r *core.Set, sigma *core.Set) *core.Set {
	if sigma.IsEmpty() {
		return core.Empty() // Consequence 7.1(e): 𝔇_∅(R) = ∅.
	}
	b := core.NewBuilder(r.Len())
	for _, m := range r.Members() {
		x := refReScopeByScope(m.Elem, sigma)
		if x.IsEmpty() {
			continue
		}
		s := refReScopeByScope(m.Scope, sigma)
		b.Add(x, s)
	}
	return b.Set()
}

// refRelativeProduct is Def 10.1 as a hash join on the canonical
// encoding of the (key-element, key-scope) pair.
func refRelativeProduct(f, g *core.Set, sigma, omega Sigma) *core.Set {
	if f.IsEmpty() || g.IsEmpty() {
		return core.Empty()
	}
	type half struct {
		contrib      *core.Set // x^{/σ1/} or y^{/ω2/}
		contribScope *core.Set // s^{/σ1/} or t^{/ω2/}
	}
	// Build side: index G by its ω1 key.
	build := make(map[string][]half, g.Len())
	var keyBuf []byte
	makeKey := func(ke, ks *core.Set) string {
		keyBuf = keyBuf[:0]
		keyBuf = core.AppendEncode(keyBuf, ke)
		keyBuf = core.AppendEncode(keyBuf, ks)
		return string(keyBuf)
	}
	for _, m := range g.Members() {
		k := makeKey(refReScopeByScope(m.Elem, omega.S1), refReScopeByScope(m.Scope, omega.S1))
		build[k] = append(build[k], half{
			contrib:      refReScopeByScope(m.Elem, omega.S2),
			contribScope: refReScopeByScope(m.Scope, omega.S2),
		})
	}
	out := core.NewBuilder(f.Len())
	for _, m := range f.Members() {
		k := makeKey(refReScopeByScope(m.Elem, sigma.S2), refReScopeByScope(m.Scope, sigma.S2))
		matches := build[k]
		if len(matches) == 0 {
			continue
		}
		fe := refReScopeByScope(m.Elem, sigma.S1)
		fs := refReScopeByScope(m.Scope, sigma.S1)
		for _, h := range matches {
			out.Add(core.Union(fe, h.contrib), core.Union(fs, h.contribScope))
		}
	}
	return out.Set()
}

// refTransitiveClosure is the semi-naive iteration of the CST relative
// product with the whole growing closure as the build side.
func refTransitiveClosure(ctx context.Context, r *core.Set) (*core.Set, error) {
	// Keep only the pair members.
	pairs := core.NewBuilder(r.Len())
	steps := 0
	for _, m := range r.Members() {
		if steps++; steps%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if n, ok := core.TupLen(m.Elem); ok && n == 2 {
			pairs.AddMember(m)
		}
	}
	closure := pairs.Set()
	delta := closure
	cst := cstSpec()
	for !delta.IsEmpty() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := refRelativeProduct(delta, closure, cst.Sigma, cst.Omega)
		delta = core.Diff(next, closure)
		closure = core.Union(closure, delta)
	}
	return closure, nil
}
