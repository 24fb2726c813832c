// Package spanclose exercises spanclose: spans obtained from
// trace.NewRoot or Start must be ended on every return path.
package spanclose

import (
	"context"
	"errors"

	"xst/internal/trace"
)

// Discarded: the span value is dropped on the floor.
func discarded(parent *trace.Span) {
	parent.Start("child") // want `result of Start discarded; the span is never ended`
}

func discardedRoot() {
	trace.NewRoot("query") // want `result of NewRoot discarded; the span is never ended`
}

func blanked(parent *trace.Span) {
	_ = parent.Start("child") // want `result of Start discarded; the span is never ended`
}

// Never ended: counters recorded, but the span stays open forever.
func neverEnded(parent *trace.Span, n int) {
	sp := parent.Start("scan") // want `span sp is started but never ended`
	sp.AddRows(n)
}

// Early return: the error path leaves the span open.
func earlyReturn(parent *trace.Span, fail bool) error {
	sp := parent.Start("open")
	if fail {
		return errors.New("open failed") // want `return leaves span sp open`
	}
	sp.End()
	return nil
}

// good: defer covers every path.
func deferredEnd(parent *trace.Span, fail bool) error {
	sp := parent.Start("open")
	defer sp.End()
	if fail {
		return errors.New("open failed")
	}
	return nil
}

// good: a deferred closure counts too.
func deferredClosure(parent *trace.Span, fail bool) error {
	sp := parent.Start("open")
	defer func() { sp.End() }()
	if fail {
		return errors.New("open failed")
	}
	return nil
}

// good: ended before the only return.
func endBeforeReturn(parent *trace.Span, n int) int {
	sp := parent.Start("count")
	sp.AddRows(n)
	sp.End()
	return n
}

// good: synthetic spans close via SetOpStats or FinishNs.
func synthetic(parent *trace.Span, ns int64) {
	sp := parent.Start("op")
	sp.SetOpStats(1, 1, 1, 0, ns)
	fp := parent.Start("op2")
	fp.FinishNs(ns)
}

// good: the span escapes to the caller, which owns ending it.
func escapesReturn(parent *trace.Span) *trace.Span {
	sp := parent.Start("handed-off")
	return sp
}

// good: the span escapes into a call (trace.WithSpan, a logger, …).
func escapesCall(ctx context.Context) context.Context {
	root := trace.NewRoot("query")
	return trace.WithSpan(ctx, root)
}

// good: a return inside an unrelated closure between Start and End is
// not a return path of the enclosing function.
func innerClosureReturn(parent *trace.Span, xs []int) int {
	sp := parent.Start("sum")
	total := 0
	add := func(x int) int {
		return x + 1
	}
	for _, x := range xs {
		total += add(x)
	}
	sp.End()
	return total
}

// The path check: ending the span on one branch leaves the other path's
// return with it open.
func endOnOneBranch(parent *trace.Span, c bool) {
	sp := parent.Start("maybe")
	if c {
		sp.End()
	}
	return // want `return leaves span sp open`
}

// The same leak through falling off the end is reported at the Start.
func endOnOneBranchFallOff(parent *trace.Span, c bool) {
	sp := parent.Start("maybe") // want `span sp is not ended on every path out of the function`
	if c {
		sp.End()
	}
}

// Escaping is per path: handing the span off on one branch does not end
// it on the other.
func escapesOnOneBranch(parent *trace.Span, c bool) *trace.Span {
	sp := parent.Start("maybe")
	if c {
		return sp
	}
	return nil // want `return leaves span sp open`
}

// Spans started in a loop and ended by a defer pile up until the
// function returns.
func deferInLoop(parent *trace.Span, n int) {
	for i := 0; i < n; i++ {
		sp := parent.Start("step")
		defer sp.End() // want `defer sp\.End\(\) inside a loop releases nothing`
	}
}

// good: a deferred closure reads the variable when it runs, so one set
// up before the span is started still ends it on every path.
func deferredBeforeStart(parent *trace.Span, c bool) error {
	var sp *trace.Span
	defer func() { finish(sp) }()
	if c {
		return errors.New("no span yet")
	}
	sp = parent.Start("late")
	if c {
		return errors.New("span ended by the deferred closure")
	}
	return nil
}

func finish(sp *trace.Span) {
	if sp != nil {
		sp.End()
	}
}
