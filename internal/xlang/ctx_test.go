package xlang

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"xst/internal/core"
)

// bigPairs binds name to a set of n distinct pairs.
func bigPairs(t *testing.T, env *Env, name string, n int) {
	t.Helper()
	b := core.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddClassical(core.Pair(core.Int(int64(i)), core.Int(int64(i))))
	}
	env.Bind(name, b.Set())
}

func TestEvalCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvalCtx(ctx, NewEnv(), "{1,2}+{3}"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEvalCtxDeadlineAbortsCross checks the cancellation reaches the
// algebra hot loop: a cross product far larger than the deadline allows
// stops promptly with DeadlineExceeded instead of running to the end.
func TestEvalCtxDeadlineAbortsCross(t *testing.T) {
	env := NewEnv()
	bigPairs(t, env, "A", 400)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := EvalCtx(ctx, env, "cross(cross(A, A), A)")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestEvalCtxDeadlineAbortsClosure(t *testing.T) {
	env := NewEnv()
	// A long chain relation: its closure holds 8 002 000 pairs.
	b := core.NewBuilder(4000)
	for i := 0; i < 4000; i++ {
		b.AddClassical(core.Pair(core.Int(int64(i)), core.Int(int64(i+1))))
	}
	env.Bind("R", b.Set())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := EvalCtx(ctx, env, "tclose(R)"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestEnvClone checks session isolation: binds on a clone are invisible
// to the base and to sibling clones.
func TestEnvClone(t *testing.T) {
	base := NewEnv()
	base.Bind("shared", core.S(core.Int(1), core.Int(2)))
	a, b := base.Clone(), base.Clone()
	if _, err := Eval(a, "x := shared + {3}"); err != nil {
		t.Fatal(err)
	}
	if _, ok := base.Lookup("x"); ok {
		t.Fatal("clone's binding leaked into base")
	}
	if _, ok := b.Lookup("x"); ok {
		t.Fatal("clone's binding leaked into sibling")
	}
	if v, ok := a.Lookup("x"); !ok || core.Card(v.(*core.Set)) != 3 {
		t.Fatalf("clone lost its own binding: %v %v", v, ok)
	}
}

// TestEnvCloneConcurrent evaluates in many cloned sessions at once —
// the server's usage pattern — and is meaningful under -race.
func TestEnvCloneConcurrent(t *testing.T) {
	base := NewEnv()
	bigPairs(t, base, "R", 64)
	errc := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func(i int) {
			env := base.Clone()
			if _, err := Eval(env, fmt.Sprintf("mine := R + {%d}", i+1000)); err != nil {
				errc <- err
				return
			}
			v, err := Eval(env, "card(mine)")
			if err != nil {
				errc <- err
				return
			}
			if fmt.Sprint(v) != "65" {
				errc <- fmt.Errorf("session %d: card = %v", i, v)
				return
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < 32; i++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}

func TestEvalProgramCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EvalProgramCtx(ctx, NewEnv(), "x := {1}\ncard(x)")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("err %v must carry the line number", err)
	}
}
