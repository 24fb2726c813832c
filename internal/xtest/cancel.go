package xtest

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// countdownCtx is a context that cancels itself after its Err method has
// been polled a fixed number of times. It turns "does this operation
// poll cancellation, and does it stop when told?" into a deterministic
// assertion: the Nth poll observes context.Canceled, so an operation
// that keeps working afterwards is provably ignoring its context.
type countdownCtx struct {
	context.Context
	cancel    context.CancelFunc
	remaining atomic.Int64
}

// CountdownContext returns a context whose Err reports nil for the first
// n-1 polls and context.Canceled from the nth poll on. Polls may come
// from any goroutine. The returned stop function releases the context's
// resources; it is safe to call more than once.
func CountdownContext(n int) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &countdownCtx{Context: ctx, cancel: cancel}
	c.remaining.Store(int64(n))
	return c, cancel
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) <= 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// PollCount runs op to its end under a context that never cancels and
// returns how many times op polled Err, with op's error: the n that
// AssertCancelAborts can take for op run the same way lie in [1, polls].
func PollCount(op func(context.Context) error) (polls int, err error) {
	ctx, stop := CountdownContext(math.MaxInt64)
	defer stop()
	err = op(ctx)
	return int(math.MaxInt64 - ctx.(*countdownCtx).remaining.Load()), err
}

// AssertCancelAborts runs op under a context that self-cancels on its
// nth Err poll and asserts that op aborts promptly with
// context.Canceled and that any goroutines it started have exited. Pick
// n small enough that op's work comfortably exceeds n polling intervals
// (the algebra's batched loops poll every few hundred iterations).
//
// Parallel operator trees are covered too: CountdownContext's polls may
// come from any worker goroutine, and the goroutine-drain check below
// fails any fan-out whose workers outlive the aborted run — so this
// asserts both "some worker saw the cancellation" and "every worker
// then stopped".
func AssertCancelAborts(t testing.TB, n int, op func(context.Context) error) {
	t.Helper()
	ctx, stop := CountdownContext(n)
	defer stop()
	assertAborts(t, context.Canceled, func() error { return op(ctx) },
		"its context self-cancelled")
}

// AssertErrorAborts runs op — expected to fail on its own (e.g. an
// injected mid-stream operator error inside a parallel tree) — and
// asserts it returns an error matching wantErr promptly and that any
// goroutines it started (worker fan-outs) have exited rather than
// running the stream dry in the background.
func AssertErrorAborts(t testing.TB, wantErr error, op func(context.Context) error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	assertAborts(t, wantErr, func() error { return op(ctx) },
		"it was expected to fail fast")
}

// assertAborts is the shared engine: op must return an error matching
// want within 10s, and the goroutine count must drain back to its
// starting level.
func assertAborts(t testing.TB, want error, op func() error, why string) {
	t.Helper()
	before := runtime.NumGoroutine()

	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		if !errors.Is(err, want) {
			t.Fatalf("op returned %v, want %v", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("op still running 10s after %s", why)
	}

	// The op goroutine above has exited; anything it spawned must drain
	// too. NumGoroutine is noisy, so poll with a deadline instead of
	// sampling once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after aborted op: %d running, %d before",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
