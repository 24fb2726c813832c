package algebra

import (
	"context"
	"testing"

	"xst/internal/core"
	"xst/internal/xtest"
)

// tuples builds the classical set {(0), (1), … (n-1)} of 1-tuples.
// (chain, the test relation builder, lives in closure_test.go.)
func tuples(n int) *core.Set {
	b := core.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddClassical(core.Tuple(core.Int(i)))
	}
	return b.Set()
}

func TestTransitiveClosureCtxCancel(t *testing.T) {
	// 2000 pairs: interning their 4000 join keys alone polls ~15 times
	// (every 256 keys), and the searches poll every 256 nodes reached —
	// the 3rd poll must abort both forms long before the ~2M-pair
	// closure is counted or built.
	r := chain(2000)
	xtest.AssertCancelAborts(t, 3, func(ctx context.Context) error {
		_, err := TransitiveClosureCtx(ctx, r)
		return err
	})
	xtest.AssertCancelAborts(t, 3, func(ctx context.Context) error {
		_, err := DeriveTransitiveClosure(r).Card(ctx)
		return err
	})
}

func TestReflexiveTransitiveClosureCtxCancel(t *testing.T) {
	r := chain(2000)
	xtest.AssertCancelAborts(t, 3, func(ctx context.Context) error {
		_, err := ReflexiveTransitiveClosureCtx(ctx, r)
		return err
	})
}

func TestCrossProductCtxCancel(t *testing.T) {
	// 200×200 = 40k concat steps, polled every 256: the 5th poll lands
	// ~3% of the way in.
	a, b := tuples(200), tuples(200)
	xtest.AssertCancelAborts(t, 5, func(ctx context.Context) error {
		_, err := CrossProductCtx(ctx, a, b)
		return err
	})
}

func TestCartesianCtxCancel(t *testing.T) {
	a, b := tuples(200), tuples(200)
	xtest.AssertCancelAborts(t, 5, func(ctx context.Context) error {
		_, err := CartesianCtx(ctx, a, b)
		return err
	})
}

// fan builds the classical pairs ⟨i,0⟩ (from) or ⟨0,i⟩ (to), i < n: the
// CST product fan(n, true)/fan(n, false) joins every pair with every
// pair, so its output is n×n.
func fan(n int, from bool) *core.Set {
	b := core.NewBuilder(n)
	for i := 0; i < n; i++ {
		if from {
			b.AddClassical(core.Pair(core.Int(i), core.Int(0)))
		} else {
			b.AddClassical(core.Pair(core.Int(0), core.Int(i)))
		}
	}
	return b.Set()
}

func TestRelativeProductCtxCancel(t *testing.T) {
	// 300×300 = 90 000 matches, polled every 256 with the probes: the
	// 5th poll lands ~1.5 % of the way in, for both finishes.
	f, g := fan(300, true), fan(300, false)
	xtest.AssertCancelAborts(t, 5, func(ctx context.Context) error {
		_, err := RelativeProductCtx(ctx, f, g, cst.Sigma, cst.Omega)
		return err
	})
	xtest.AssertCancelAborts(t, 5, func(ctx context.Context) error {
		_, err := DeriveRelativeProduct(f, g, cst.Sigma, cst.Omega).Card(ctx)
		return err
	})
}

func TestSigmaDomainCtxCancel(t *testing.T) {
	r := chain(2000)
	xtest.AssertCancelAborts(t, 3, func(ctx context.Context) error {
		_, err := SigmaDomainCtx(ctx, r, Positions(2, 1))
		return err
	})
	xtest.AssertCancelAborts(t, 3, func(ctx context.Context) error {
		_, err := DeriveSigmaDomain(r, Positions(2, 1)).Card(ctx)
		return err
	})
}
