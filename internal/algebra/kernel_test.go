package algebra

import (
	"context"
	"testing"

	"xst/internal/core"
	"xst/internal/xtest"
)

// The serving implementations (one re-scope kernel, a digest-chained
// join, a seen-set closure) against the definitional ones in
// reference_test.go, on operands the kernel has no reason to like.

const kernelTrials = 600

// randMembers draws a small extended set whose members are mostly atom
// tuples (so keys collide and joins fire) but also atoms, nested sets
// and non-tuple sets, under scopes that are ∅, tuples or anything.
func randMembers(r *xtest.Rand, cfg xtest.Config) *core.Set {
	n := r.Intn(7)
	b := core.NewBuilder(n)
	for i := 0; i < n; i++ {
		elem := core.Value(cfg.Tuple(r, 4))
		if r.Intn(10) < 3 {
			elem = cfg.Value(r)
		}
		scope := core.Value(core.Empty())
		switch r.Intn(4) {
		case 0:
			scope = cfg.Tuple(r, 3)
		case 1:
			scope = cfg.Value(r)
		}
		b.Add(elem, scope)
	}
	return b.Set()
}

// randScopeSet draws σ: positional with repeated and missing scopes, or
// an arbitrary extended set.
func randScopeSet(r *xtest.Rand, cfg xtest.Config) *core.Set {
	if r.Intn(4) == 0 {
		return cfg.Set(r)
	}
	return randSigma(r)
}

func randSpec(r *xtest.Rand, cfg xtest.Config) RelProdSpec {
	if r.Bool() {
		specs := Section10Specs()
		return specs[r.Intn(len(specs))]
	}
	return RelProdSpec{
		Sigma: NewSigma(randScopeSet(r, cfg), randScopeSet(r, cfg)),
		Omega: NewSigma(randScopeSet(r, cfg), randScopeSet(r, cfg)),
	}
}

// randGraph draws a pair set over a few nodes, dense enough for cycles
// and self-loops, with some members scoped by pair-shaped scopes (which
// the relative product joins and propagates), some by junk, and some
// non-pair members the closure must ignore.
func randGraph(r *xtest.Rand, cfg xtest.Config) *core.Set {
	nodes := 1 + r.Intn(7)
	edges := r.Intn(2*nodes + 1)
	b := core.NewBuilder(edges + 2)
	for i := 0; i < edges; i++ {
		pair := core.Pair(core.Int(r.Intn(nodes)), core.Int(r.Intn(nodes)))
		switch r.Intn(6) {
		case 0:
			b.Add(pair, core.Pair(core.Int(r.Intn(2)), core.Int(r.Intn(2))))
		case 1:
			b.Add(pair, cfg.Value(r))
		default:
			b.AddClassical(pair)
		}
	}
	for i := r.Intn(3); i > 0; i-- {
		b.Add(cfg.Value(r), cfg.Value(r))
	}
	return b.Set()
}

func TestKernelMatchesDefinition(t *testing.T) {
	r := xtest.NewRand(0x17)
	cfg := xtest.DefaultConfig()
	t.Run("rescope", func(t *testing.T) {
		for i := 0; i < kernelTrials; i++ {
			a, sigma := cfg.Value(r), randScopeSet(r, cfg)
			want := refReScopeByScope(a, sigma)
			if got := ReScopeByScope(a, sigma); !core.Equal(got, want) {
				t.Fatalf("A=%v σ=%v\ngot  %v\nwant %v", a, sigma, got, want)
			}
			if got := ReScopesToEmpty(a, sigma); got != want.IsEmpty() {
				t.Fatalf("A=%v σ=%v: ReScopesToEmpty = %v, A^{/σ/} = %v", a, sigma, got, want)
			}
		}
	})
	t.Run("domain", func(t *testing.T) {
		for i := 0; i < kernelTrials; i++ {
			rel, sigma := randMembers(r, cfg), randScopeSet(r, cfg)
			want := refSigmaDomain(rel, sigma)
			if got := SigmaDomain(rel, sigma); !core.Equal(got, want) {
				t.Fatalf("R=%v σ=%v\ngot  %v\nwant %v", rel, sigma, got, want)
			}
		}
	})
	t.Run("relprod", func(t *testing.T) {
		nonEmpty := 0
		for i := 0; i < kernelTrials; i++ {
			f, g, spec := randMembers(r, cfg), randMembers(r, cfg), randSpec(r, cfg)
			want := refRelativeProduct(f, g, spec.Sigma, spec.Omega)
			if got := spec.Apply(f, g); !core.Equal(got, want) {
				t.Fatalf("F=%v G=%v σ=%v ω=%v\ngot  %v\nwant %v", f, g, spec.Sigma, spec.Omega, got, want)
			}
			if !want.IsEmpty() {
				nonEmpty++
			}
		}
		if nonEmpty < kernelTrials/10 {
			t.Fatalf("only %d of %d random products were non-empty: the generator no longer exercises the probe", nonEmpty, kernelTrials)
		}
	})
	t.Run("closure", func(t *testing.T) {
		grew := 0
		for i := 0; i < kernelTrials; i++ {
			g := randGraph(r, cfg)
			want, _ := refTransitiveClosure(context.Background(), g)
			if got := TransitiveClosure(g); !core.Equal(got, want) {
				t.Fatalf("R=%v\ngot  %v\nwant %v", g, got, want)
			}
			if want.Len() > g.Len() {
				grew++
			}
		}
		if grew < kernelTrials/10 {
			t.Fatalf("only %d of %d random graphs had a closure larger than themselves", grew, kernelTrials)
		}
	})
}

// TestDigestCollisions narrows the digest to a few bits, then to none,
// so that unequal keys (join) and unequal members (seen-set) share
// digests: the member-wise comparison behind a digest match must keep
// the answers those of the definitions.
func TestDigestCollisions(t *testing.T) {
	cfg := xtest.DefaultConfig()
	for name, mask := range map[string]uint64{"low 2 bits": 3, "top 3 bits": 7 << 61, "no bits": 0} {
		t.Run(name, func(t *testing.T) {
			r := xtest.NewRand(0x18)
			for i := 0; i < kernelTrials/2; i++ {
				f, g, spec := randMembers(r, cfg), randMembers(r, cfg), randSpec(r, cfg)
				want := refRelativeProduct(f, g, spec.Sigma, spec.Omega)
				if got := relativeProduct(f, g, spec.Sigma, spec.Omega, mask); !core.Equal(got, want) {
					t.Fatalf("F=%v G=%v σ=%v ω=%v\ngot  %v\nwant %v", f, g, spec.Sigma, spec.Omega, got, want)
				}
				gr := randGraph(r, cfg)
				wantC, _ := refTransitiveClosure(context.Background(), gr)
				gotC, err := transitiveClosure(context.Background(), gr, mask)
				if err != nil || !core.Equal(gotC, wantC) {
					t.Fatalf("R=%v\ngot  %v (%v)\nwant %v", gr, gotC, err, wantC)
				}
			}
		})
	}
}

// FuzzRelativeProduct decodes two operands and a scope set from bytes
// (seeded with core's FuzzDecode corpus) and holds the join to the
// definition under every §10 parameterization and under the decoded
// scope set in all four parameter positions.
func FuzzRelativeProduct(f *testing.F) {
	seeds := []core.Value{
		core.Int(0), core.Int(-1), core.Int(1 << 40),
		core.Str("hello"), core.Bool(true), core.Float(2.5),
		core.Empty(), core.S(core.Int(1), core.Int(2)),
		core.Pair(core.Str("a"), core.Str("b")),
		core.NewSet(core.M(core.S(core.Int(1)), core.Pair(core.Int(2), core.Int(3)))),
		core.S(core.Pair(core.Int(1), core.Int(2)), core.Pair(core.Int(2), core.Int(3)), core.Pair(core.Int(2), core.Int(2))),
		Positions(2, 1),
	}
	for _, a := range seeds {
		for _, b := range seeds[6:] {
			f.Add(core.Encode(a), core.Encode(b), core.Encode(seeds[len(seeds)-1]))
		}
	}
	asSet := func(data []byte) *core.Set {
		v, err := core.DecodeFull(data)
		if err != nil {
			return nil
		}
		s, _ := v.(*core.Set)
		return s
	}
	f.Fuzz(func(t *testing.T, fb, gb, sb []byte) {
		fs, gs, sg := asSet(fb), asSet(gb), asSet(sb)
		if fs == nil || gs == nil || sg == nil {
			return
		}
		specs := append(Section10Specs(), RelProdSpec{NewSigma(sg, sg), NewSigma(sg, sg)})
		for _, spec := range specs {
			want := refRelativeProduct(fs, gs, spec.Sigma, spec.Omega)
			if got := spec.Apply(fs, gs); !core.Equal(got, want) {
				t.Fatalf("F=%v G=%v σ=%v ω=%v\ngot  %v\nwant %v", fs, gs, spec.Sigma, spec.Omega, got, want)
			}
		}
		want, _ := refTransitiveClosure(context.Background(), fs)
		if got := TransitiveClosure(fs); !core.Equal(got, want) {
			t.Fatalf("R=%v\nclosure %v\nwant    %v", fs, got, want)
		}
	})
}
