package xlang

import (
	"context"
	"errors"
	"testing"
	"time"

	"xst/internal/core"
	"xst/internal/xtest"
)

// TestCardCountsAsBuilt: card of every countable expression — counted,
// never built — equals core.Card of the set the expression evaluates
// to, on random pair sets with scoped members that share elements.
func TestCardCountsAsBuilt(t *testing.T) {
	r := xtest.NewRand(0x35)
	exprs := []string{
		"compose(g, f)", "relprod(f, g, pos(1), pos(2), pos(2), {1^2})",
		"relprod(f, g, s, pos(2), pos(1), s)", "tclose(f)", "inverse(f)",
		"dom1(f)", "dom2(g)", "dom(f, s)", "f[{<1>, <2>}]", "image(f, g, pos(2), s)",
		"f + g", "f & g",
	}
	for trial := 0; trial < 200; trial++ {
		env := NewEnv()
		for _, name := range []string{"f", "g"} {
			b := core.NewBuilder(12)
			for i := r.Intn(12); i > 0; i-- {
				p := core.Pair(core.Int(r.Intn(4)), core.Int(r.Intn(4)))
				switch r.Intn(4) {
				case 0:
					b.Add(p, core.Pair(core.Int(r.Intn(2)), core.Int(r.Intn(2))))
				case 1:
					b.Add(p, core.Int(r.Intn(3)))
				default:
					b.AddClassical(p)
				}
			}
			env.Bind(name, b.Set())
		}
		env.Bind("s", core.NewSet(core.M(core.Int(1), core.Int(r.Intn(3))), core.M(core.Int(2), core.Int(2))))
		for _, e := range exprs {
			built := eval(t, env, e).(*core.Set)
			evalWant(t, env, "card("+e+")", core.Int(core.Card(built)))
		}
	}
}

// TestCardArgumentErrors: counting changes no error. sing(·) evaluates
// its argument as a value, so an argument error at the same offset
// reads the same under both.
func TestCardArgumentErrors(t *testing.T) {
	env := NewEnv()
	for _, e := range []string{
		"relprod({1}, 2, {}, {}, {}, {})", "relprod({1})", "compose(1, {})", "dom1(5)",
		"dom({<1,2>}, 3)", "dom2(x)", "inverse(x)", "tclose(3)", "image({}, 1, {}, {})",
		"{1}[2]", "1[{2}]", "1 + {2}", "{1} & 2", "nosuch(1) + {}",
	} {
		_, want := Eval(env, "sing("+e+")")
		_, got := Eval(env, "card("+e+")")
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("card(%s): error %v, want %v", e, got, want)
		}
	}
}

// TestEvalCtxDeadlineAbortsCompose: a composition whose output is
// |F|×|G| stops at the deadline, built or counted.
func TestEvalCtxDeadlineAbortsCompose(t *testing.T) {
	env := NewEnv()
	f, g := core.NewBuilder(1000), core.NewBuilder(1000)
	for i := 0; i < 1000; i++ {
		f.AddClassical(core.Pair(core.Int(int64(i)), core.Int(0)))
		g.AddClassical(core.Pair(core.Int(0), core.Int(int64(i))))
	}
	env.Bind("F", f.Set())
	env.Bind("G", g.Set())
	for _, src := range []string{"compose(G, F)", "card(compose(G, F))", "card(relprod(F, G, pos(1), pos(2), pos(1), pos(2)))"} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		start := time.Now()
		_, err := EvalCtx(ctx, env, src)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", src, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: cancellation took %v", src, elapsed)
		}
	}
}

// TestEvalCtxDeadlineAbortsTclose: the closure of a 4 000-pair chain
// holds 8 002 000 pairs; counting them stops at the deadline too.
func TestEvalCtxDeadlineAbortsTclose(t *testing.T) {
	env := NewEnv()
	b := core.NewBuilder(4000)
	for i := 0; i < 4000; i++ {
		b.AddClassical(core.Pair(core.Int(int64(i)), core.Int(int64(i+1))))
	}
	env.Bind("X", b.Set())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := EvalCtx(ctx, env, "card(tclose(X))"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("card(tclose(X)): err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("card(tclose(X)): cancellation took %v", elapsed)
	}
}
