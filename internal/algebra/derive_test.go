package algebra

import (
	"context"
	"fmt"
	"testing"

	"xst/internal/core"
	"xst/internal/xtest"
)

// TestDerivedForms holds every countable kernel's two finishes to the
// definitions: Set equals the ref* oracle, and Card equals core.Card of
// it, on operands whose members share elements under different scopes.
func TestDerivedForms(t *testing.T) {
	checkForms(t, xtest.NewRand(0x35), kernelTrials)
}

// shareElems adds, for about a third of s's members, the same element
// under another scope: a pair scope (which joins and closures carry),
// ∅, or any value.
func shareElems(r *xtest.Rand, cfg xtest.Config, s *core.Set) *core.Set {
	b := core.NewBuilder(2 * s.Len())
	b.AddSet(s)
	for _, m := range s.Members() {
		switch r.Intn(6) {
		case 0:
			b.Add(m.Elem, core.Pair(core.Int(r.Intn(2)), core.Int(r.Intn(2))))
		case 1:
			b.AddClassical(m.Elem)
		case 2:
			b.Add(m.Elem, cfg.Value(r))
		}
	}
	return b.Set()
}

// check holds d's two finishes to want: Set equals it, and Card equals
// core.Card of it.
func check(t *testing.T, what string, d *Derived, want *core.Set) {
	t.Helper()
	ctx := context.Background()
	n, err := d.Card(ctx)
	if err != nil || n != core.Card(want) {
		t.Fatalf("%s\nCard = %d (%v), want %d = card of %v", what, n, err, core.Card(want), want)
	}
	if got, err := d.Set(ctx); err != nil || !core.Equal(got, want) {
		t.Fatalf("%s\nSet  %v (%v)\nwant %v", what, got, err, want)
	}
}

// checkForms runs trials of relprod, σ-domain, image and closure through
// Derive*, and checks Set against the oracle and Card against core.Card.
func checkForms(t *testing.T, r *xtest.Rand, trials int) {
	t.Helper()
	cfg := xtest.DefaultConfig()
	ctx := context.Background()
	for i := 0; i < trials; i++ {
		f, g := shareElems(r, cfg, randMembers(r, cfg)), shareElems(r, cfg, randMembers(r, cfg))
		spec := randSpec(r, cfg)
		check(t, fmt.Sprint("relprod F=", f, " G=", g, " σ=", spec.Sigma, " ω=", spec.Omega),
			DeriveRelativeProduct(f, g, spec.Sigma, spec.Omega), refRelativeProduct(f, g, spec.Sigma, spec.Omega))

		sigma := randScopeSet(r, cfg)
		check(t, fmt.Sprint("domain R=", f, " σ=", sigma), DeriveSigmaDomain(f, sigma), refSigmaDomain(f, sigma))
		check(t, fmt.Sprint("image R=", f, " A=", g, " σ=", spec.Sigma), DeriveImage(f, g, spec.Sigma),
			refSigmaDomain(SigmaRestrict(f, spec.Sigma.S1, g), spec.Sigma.S2))

		gr := shareElems(r, cfg, randGraph(r, cfg))
		want, _ := refTransitiveClosure(ctx, gr)
		check(t, fmt.Sprint("closure R=", gr), DeriveTransitiveClosure(gr), want)
	}
}

// TestClosureBigGraphs holds both finishes of the closure to the
// definition on graphs of up to 60 nodes (bigGraph).
func TestClosureBigGraphs(t *testing.T) {
	checkClosures(t, xtest.NewRand(0x36), bigGraphTrials)
}

// checkClosures checks Set and Card of the closure of trials bigGraphs,
// and that some of them grew long paths.
func checkClosures(t *testing.T, r *xtest.Rand, trials int) {
	t.Helper()
	cfg := xtest.DefaultConfig()
	long := 0
	for i := 0; i < trials; i++ {
		g := bigGraph(r, cfg)
		want, _ := refTransitiveClosure(context.Background(), g)
		check(t, fmt.Sprint("closure R=", g), DeriveTransitiveClosure(g), want)
		if want.Len() > 4*g.Len() {
			long++
		}
	}
	if long < trials/4 {
		t.Fatalf("only %d of %d big graphs had a closure four times their size", long, trials)
	}
}

// TestClosureOwnScopes: R's own pairs are filed with their scopes, and
// a scope that is not a set must not pass for the set holding it — the
// pair under 5 and under {5} are two members of R⁺.
func TestClosureOwnScopes(t *testing.T) {
	p := core.Pair(core.Int(1), core.Int(2))
	r := core.NewSet(core.M(p, core.Int(5)), core.M(p, core.S(core.Int(5))), core.E(core.Pair(core.Int(2), core.Int(2))))
	want, _ := refTransitiveClosure(context.Background(), r)
	if got := TransitiveClosure(r); !core.Equal(got, want) || got.Len() != 4 {
		t.Fatalf("R⁺ of %v = %v, want %v", r, got, want)
	}
}
