package algebra

import (
	"testing"

	"xst/internal/core"
	"xst/internal/xtest"
)

// The algebra's benchmarks and allocation ceilings, at the shapes the
// set_algebra workload of benchmarks/xstperf serves: f and g are 2 000
// random pairs over 2 000 values, ch is 40 disjoint chains of 16 nodes.

func benchRelation(n int) *core.Set {
	return xtest.DefaultConfig().Relation(xtest.NewRand(99), n, n, n)
}

// benchChains is `chains` disjoint paths of chainLen nodes each: its
// closure holds chains·chainLen·(chainLen−1)/2 pairs.
func benchChains(chains, chainLen int) *core.Set {
	b := core.NewBuilder(chains * (chainLen - 1))
	for c := 0; c < chains; c++ {
		for i := 0; i < chainLen-1; i++ {
			n := c*chainLen + i
			b.AddClassical(core.Pair(core.Int(n), core.Int(n+1)))
		}
	}
	return b.Set()
}

var sinkSet *core.Set

func BenchmarkImageStdSigma(b *testing.B) {
	rel := benchRelation(1000)
	in := core.S(core.Tuple(core.Int(1)), core.Tuple(core.Int(2)), core.Tuple(core.Int(3)))
	sig := StdSigma()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSet = Image(rel, in, sig)
	}
}

func BenchmarkRelativeProductCST(b *testing.B) {
	f, g := benchRelation(2000), benchRelation(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSet = CSTRelativeProduct(f, g)
	}
}

// BenchmarkComposeChain composes four function carriers over 128 values
// left to right, as process.StdCompose does: three relative products.
func BenchmarkComposeChain(b *testing.B) {
	r := xtest.NewRand(7)
	chain := make([]*core.Set, 4)
	for i := range chain {
		bd := core.NewBuilder(128)
		for d := 0; d < 128; d++ {
			bd.AddClassical(core.Pair(core.Int(d), core.Int(r.Intn(128))))
		}
		chain[i] = bd.Set()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := chain[0]
		for _, c := range chain[1:] {
			h = CSTRelativeProduct(h, c)
		}
		sinkSet = h
	}
}

func BenchmarkTransitiveClosure(b *testing.B) {
	ch := benchChains(40, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSet = TransitiveClosure(ch)
	}
	if sinkSet.Len() != 40*16*15/2 {
		b.Fatalf("closure of 40 chains of 16 has %d pairs", sinkSet.Len())
	}
}

// TestAlgebraAllocations pins what the kernel bought: a composition of
// 2 000 pairs with 2 000 pairs and the closure of 40 chains of 16 used
// to allocate one object per re-scope, key and union (≈ 33 000 and
// ≈ 223 000); they now allocate their output's slab chunks, one index
// and a few growing lists.
func TestAlgebraAllocations(t *testing.T) {
	f, g := benchRelation(2000), benchRelation(2000)
	if got := testing.AllocsPerRun(5, func() { sinkSet = CSTRelativeProduct(f, g) }); got >= 100 {
		t.Errorf("compose 2000×2000: %.0f allocations, want < 100", got)
	}
	if want := refRelativeProduct(f, g, cstSpec().Sigma, cstSpec().Omega); !core.Equal(sinkSet, want) {
		t.Fatal("compose 2000×2000 ≠ definition")
	}
	ch := benchChains(40, 16)
	if got := testing.AllocsPerRun(5, func() { sinkSet = TransitiveClosure(ch) }); got >= 200 {
		t.Errorf("tclose 40×16: %.0f allocations, want < 200", got)
	}
	if sinkSet.Len() != 40*16*15/2 {
		t.Fatalf("tclose 40×16 has %d pairs, want %d", sinkSet.Len(), 40*16*15/2)
	}
}
