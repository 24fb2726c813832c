package algebra

import (
	"context"
	"runtime"
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

// BenchmarkTransitiveClosureCard is the count form card(tclose(·)) takes.
func BenchmarkTransitiveClosureCard(b *testing.B) {
	ch := benchChains(40, 16)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkN, _ = DeriveTransitiveClosure(ch).Card(ctx)
	}
	if sinkN != 40*16*15/2 {
		b.Fatalf("closure of 40 chains of 16 counts %d pairs", sinkN)
	}
}

// allocBytes is the heap bytes one run of fn allocates, averaged over
// runs (MemStats.TotalAlloc counts every allocation, freed or not).
func allocBytes(runs int, fn func()) uint64 {
	var before, after runtime.MemStats
	fn()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestAlgebraAllocations pins what the kernels bought. A composition of
// 2 000 pairs with 2 000 pairs and the closure of 40 chains of 16 used
// to allocate one object per re-scope, key and union (≈ 33 000 and
// ≈ 223 000); they now allocate their output's slab, one index and a
// few growing lists. Building them cost ≈ 394 KB and ≈ 1.3 MB before
// the output was sized first. The count forms card(·) takes allocate
// only the derivation and its yield: the join, the count table and the
// closure's graph are scratch off a free list, filled in one pass. They
// cost 66 KB and 21 objects (compose), 108 KB and 34 (relprod), 41 KB
// and 13 (dom1) and 46 KB and 19 (tclose) when each count made its own
// and derived every candidate twice.
func TestAlgebraAllocations(t *testing.T) {
	f, g := benchRelation(2000), benchRelation(2000)
	if got := testing.AllocsPerRun(5, func() { sinkSet = CSTRelativeProduct(f, g) }); got >= 100 {
		t.Errorf("compose 2000×2000: %.0f allocations, want < 100", got)
	}
	if want := refRelativeProduct(f, g, cst.Sigma, cst.Omega); !core.Equal(sinkSet, want) {
		t.Fatal("compose 2000×2000 ≠ definition")
	}
	ch := benchChains(40, 16)
	if got := testing.AllocsPerRun(5, func() { sinkSet = TransitiveClosure(ch) }); got >= 200 {
		t.Errorf("tclose 40×16: %.0f allocations, want < 200", got)
	}
	if sinkSet.Len() != 40*16*15/2 {
		t.Fatalf("tclose 40×16 has %d pairs, want %d", sinkSet.Len(), 40*16*15/2)
	}
	if got := allocBytes(5, func() { sinkSet = CSTRelativeProduct(f, g) }); got > 352<<10 {
		t.Errorf("compose 2000×2000: %d bytes, want ≤ 352 KiB", got)
	}
	if got := allocBytes(5, func() { sinkSet = TransitiveClosure(ch) }); got > 768<<10 {
		t.Errorf("tclose 40×16: %d bytes, want ≤ 768 KiB", got)
	}
	// A sync.Pool keeps what is put back on the putting goroutine's P,
	// so a count that moved to another P would remake its scratch.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	relprod := NewSigma(Positions(2), ScopeSet([2]int{1, 2})) // the workload's relprod(f, g, pos(1), pos(2), pos(2), {1^2})
	for _, c := range []struct {
		name   string
		derive func() *Derived
		want   int
		allocs float64
	}{
		{"compose 2000×2000", func() *Derived { return DeriveRelativeProduct(f, g, cst.Sigma, cst.Omega) },
			core.Card(refRelativeProduct(f, g, cst.Sigma, cst.Omega)), 3},
		{"relprod", func() *Derived { return DeriveRelativeProduct(f, g, stdSigma, relprod) },
			core.Card(refRelativeProduct(f, g, stdSigma, relprod)), 3},
		{"dom1", func() *Derived { return DeriveSigmaDomain(f, stdSigma.S1) }, core.Card(refSigmaDomain(f, stdSigma.S1)), 3},
		{"tclose 40×16", func() *Derived { return DeriveTransitiveClosure(ch) }, 40 * 16 * 15 / 2, 4},
	} {
		count := func() {
			var err error
			if sinkN, err = c.derive().Card(ctx); err != nil {
				t.Fatal(err)
			}
		}
		bytes, allocs := allocBytes(5, count), testing.AllocsPerRun(5, count)
		if sinkN != c.want {
			t.Fatalf("%s count %d, want %d", c.name, sinkN, c.want)
		}
		if !raceEnabled && (bytes > 1<<10 || allocs > c.allocs) {
			t.Errorf("%s count: %d bytes and %.0f allocations, want ≤ 1 KiB and ≤ %.0f", c.name, bytes, allocs, c.allocs)
		}
	}
}

// TestStdSigmaAllocs: the standard scope pair is built once.
func TestStdSigmaAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { sinkSigma = StdSigma() }); got != 0 {
		t.Fatalf("StdSigma: %.0f allocations, want 0", got)
	}
}

var (
	sinkN     int
	sinkSigma Sigma
)
