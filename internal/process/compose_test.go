package process

import (
	"fmt"
	"testing"
	"time"

	"xst/internal/algebra"
	"xst/internal/core"
	"xst/internal/workload"
	"xst/internal/xtest"
)

// stdCarrier builds a set of classical pairs ⟨k,v⟩.
func stdCarrier(kv ...[2]string) *core.Set {
	b := core.NewBuilder(len(kv))
	for _, p := range kv {
		b.AddClassical(core.Pair(core.Str(p[0]), core.Str(p[1])))
	}
	return b.Set()
}

// TestStdComposeBasic checks g∘f on a two-step chain: f: a→b, g: b→c
// gives h: a→c with a single relative product as carrier.
func TestStdComposeBasic(t *testing.T) {
	f := Std(stdCarrier([2]string{"a1", "b1"}, [2]string{"a2", "b2"}))
	g := Std(stdCarrier([2]string{"b1", "c1"}, [2]string{"b2", "c2"}))
	h := MustStdCompose(g, f)

	wantCarrier := stdCarrier([2]string{"a1", "c1"}, [2]string{"a2", "c2"})
	if !core.Equal(h.F, wantCarrier) {
		t.Fatalf("composite carrier = %v, want %v", h.F, wantCarrier)
	}
	in := core.S(core.Tuple(core.Str("a1")))
	want := core.S(core.Tuple(core.Str("c1")))
	if got := h.Apply(in); !core.Equal(got, want) {
		t.Fatalf("h(a1) = %v, want %v", got, want)
	}
}

func TestStdComposeRejectsNonStd(t *testing.T) {
	f := Std(stdCarrier([2]string{"a", "b"}))
	g := New(f.F, algebra.InverseStdSigma())
	if _, err := StdCompose(g, f); err == nil {
		t.Fatal("StdCompose must reject non-standard scope pairs")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustStdCompose must panic")
		}
	}()
	MustStdCompose(g, f)
}

// TestLiteralComposeDef111 exercises Def 11.1 with the composable
// parameterization: f_(σ) standard, g_(ω) with ω = ⟨{1¹},{2²}⟩. The
// literal composite h = (f /σω g)_(⟨σ1,ω2⟩) must equal sequential
// execution g(f(x)) exactly, member for member.
func TestLiteralComposeDef111(t *testing.T) {
	sigma, omega := ComposableSigmas()
	f := New(stdCarrier([2]string{"a", "b"}, [2]string{"a2", "b2"}), sigma)
	g := New(stdCarrier([2]string{"b", "c"}, [2]string{"b2", "c2"}), omega)
	h := Compose(g, f)

	// τ = ⟨σ1, ω2⟩.
	if !h.Sig.Equal(algebra.NewSigma(sigma.S1, omega.S2)) {
		t.Fatalf("τ = %v, want ⟨σ1, ω2⟩", h.Sig)
	}
	f.Singletons(func(in *core.Set) bool {
		seq := g.Apply(f.Apply(in))
		if got := h.Apply(in); !core.Equal(got, seq) {
			t.Fatalf("literal composition mismatch on %v: %v vs %v", in, got, seq)
		}
		if h.Apply(in).IsEmpty() {
			t.Fatalf("composite must be productive on %v", in)
		}
		return true
	})
}

// TestStdComposeEqualsSequential checks the semantic claim on randomized
// chains: StdCompose(g,f)(x) = g(f(x)) for every domain singleton.
func TestStdComposeEqualsSequential(t *testing.T) {
	r := xtest.NewRand(0x11)
	cfg := xtest.DefaultConfig()
	for trial := 0; trial < 200; trial++ {
		f := Std(cfg.Relation(r, 1+r.Intn(8), 5, 5))
		g := Std(cfg.Relation(r, 1+r.Intn(8), 5, 5))
		h := MustStdCompose(g, f)
		f.Singletons(func(in *core.Set) bool {
			seq := g.Apply(f.Apply(in))
			composed := h.Apply(in)
			if !core.Equal(seq, composed) {
				t.Fatalf("trial %d: g(f(%v)) = %v but (g∘f)(%v) = %v\nf=%v\ng=%v\nh=%v",
					trial, in, seq, in, composed, f.F, g.F, h.F)
			}
			return true
		})
	}
}

// TestTheorem112 checks the typing claim of Theorem 11.2 under the
// literal Def 11.1 composition: f ∈ 𝓕[A,B), g ∈ 𝓕[B,C) implies
// h = g∘f exists with 𝔇_{τ1}(h) = A and 𝔇_{τ2}(h) ⊆ C.
func TestTheorem112(t *testing.T) {
	sigma, omega := ComposableSigmas()
	// f is ON A (every A element mapped), g is ON B (so every f output
	// continues), both functions.
	f := New(stdCarrier([2]string{"a1", "b1"}, [2]string{"a2", "b2"}, [2]string{"a3", "b1"}), sigma)
	g := New(stdCarrier([2]string{"b1", "c1"}, [2]string{"b2", "c1"}), omega)

	a := f.DomainSet()
	c := g.CodomainSet()
	h := Compose(g, f)

	if !h.IsFunction() {
		t.Fatal("composite of functions must be a function")
	}
	if !core.Equal(h.DomainSet(), a) {
		t.Fatalf("𝔇_{τ1}(h) = %v, want A = %v (ON preserved)", h.DomainSet(), a)
	}
	if !core.Subset(h.CodomainSet(), c) {
		t.Fatalf("𝔇_{τ2}(h) = %v ⊄ C = %v", h.CodomainSet(), c)
	}
}

// TestStdComposeAssociative checks (h∘g)∘f = h∘(g∘f) carrier-exactly on
// randomized standard chains.
func TestStdComposeAssociative(t *testing.T) {
	r := xtest.NewRand(0x22)
	cfg := xtest.DefaultConfig()
	for trial := 0; trial < 100; trial++ {
		f := Std(cfg.Relation(r, 1+r.Intn(6), 4, 4))
		g := Std(cfg.Relation(r, 1+r.Intn(6), 4, 4))
		h := Std(cfg.Relation(r, 1+r.Intn(6), 4, 4))
		l := MustStdCompose(MustStdCompose(h, g), f)
		rr := MustStdCompose(h, MustStdCompose(g, f))
		if !core.Equal(l.F, rr.F) {
			t.Fatalf("trial %d: associativity carrier mismatch\n(h∘g)∘f=%v\nh∘(g∘f)=%v", trial, l.F, rr.F)
		}
	}
}

// TestStdComposeWithIdentity checks g∘I ≡ g and I∘g ≡ g.
func TestStdComposeWithIdentity(t *testing.T) {
	g := Std(stdCarrier([2]string{"a", "x"}, [2]string{"b", "y"}))
	domain := core.S(core.Tuple(core.Str("a")), core.Tuple(core.Str("b")))
	codomain := core.S(core.Tuple(core.Str("x")), core.Tuple(core.Str("y")))
	idA := Identity(domain)
	idB := Identity(codomain)

	if !MustStdCompose(g, idA).Equivalent(g) {
		t.Fatal("g∘I_A must equal g")
	}
	if !MustStdCompose(idB, g).Equivalent(g) {
		t.Fatal("I_B∘g must equal g")
	}
}

// TestStdComposeChainCollapse checks that a k-stage chain collapses to
// one carrier whose application equals the staged pipeline — the §11/§12
// optimization claim that experiment E9 measures.
func TestStdComposeChainCollapse(t *testing.T) {
	r := xtest.NewRand(0x33)
	cfg := xtest.DefaultConfig()
	stages := make([]Proc, 4)
	for i := range stages {
		stages[i] = Std(cfg.Relation(r, 12, 6, 6))
	}
	composed := stages[0]
	for _, s := range stages[1:] {
		composed = MustStdCompose(s, composed)
	}
	stages[0].Singletons(func(in *core.Set) bool {
		staged := in
		for _, s := range stages {
			staged = s.Apply(staged)
		}
		if got := composed.Apply(in); !core.Equal(got, staged) {
			t.Fatalf("chain collapse mismatch on %v: %v vs %v", in, got, staged)
		}
		return true
	})
}

// TestComposeInverseYieldsIdentityBehavior: composing a bijection with
// its inverse behaves as the identity on the domain.
func TestComposeInverseYieldsIdentityBehavior(t *testing.T) {
	f := Std(stdCarrier([2]string{"a", "x"}, [2]string{"b", "y"}))
	finvCarrier := stdCarrier([2]string{"x", "a"}, [2]string{"y", "b"})
	finv := Std(finvCarrier)
	h := MustStdCompose(finv, f)
	dom := core.S(core.Tuple(core.Str("a")), core.Tuple(core.Str("b")))
	if !h.Equivalent(Identity(dom)) {
		t.Fatalf("f⁻¹∘f must be I_A, got carrier %v", h.F)
	}
}

// BenchmarkComposedChainApply is E9's symbolic half at full scale (§11,
// Thm 11.2 as an optimization): a chain of k standard processes over
// 256 values applied to 64 inputs stage by stage (base) against the
// chain composed once into one carrier and applied once (variant);
// build-ns is the one-off composition. The claim: for k ≥ 3 the
// composed apply is not slower.
func BenchmarkComposedChainApply(b *testing.B) {
	const domain, inputs = 256, 64
	in := core.NewBuilder(inputs)
	for i := 0; i < inputs; i++ {
		in.AddClassical(core.Tuple(core.Int(i * (domain / inputs))))
	}
	x := in.Set()
	for _, k := range []int{2, 3, 4, 5} {
		stages := make([]Proc, k)
		for i, c := range workload.RandomChain(42, k, domain) {
			stages[i] = Std(c)
		}
		start := time.Now()
		h := stages[0]
		for _, s := range stages[1:] {
			h = MustStdCompose(s, h)
		}
		build := time.Since(start)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var staged, composed *core.Set
			speedup := xtest.Versus(b, func() {
				staged = x
				for _, s := range stages {
					staged = s.Apply(staged)
				}
			}, func() { composed = h.Apply(x) })
			b.ReportMetric(float64(build.Nanoseconds()), "build-ns")
			if !core.Equal(staged, composed) {
				b.Fatalf("staged ≠ composed")
			}
			if k >= 3 && speedup < 1 {
				b.Fatalf("composed apply %.2fx of staged: slower", speedup)
			}
		})
	}
}
