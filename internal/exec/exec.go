// Package exec is the streaming batch-operator execution core: a
// Volcano-style iterator tree whose unit of exchange is a page-sized
// *batch* of rows rather than a single record. Every query path in the
// repo — the planner (internal/plan), the xlang query statements, and
// the server's streaming responses — compiles to one of these trees, so
// the paper's §12 thesis (whole sets flowing through composed
// operations beat record-at-a-time processing) is the architecture, not
// a special case. A serial tree is the one-worker case of a parallel
// one: Scan, HashJoin and GroupAgg are the one-worker MorselScan,
// ProbeJoin (over a one-builder HashBuild) and ParallelGroupAgg, and
// one worker runs on the caller's goroutine.
//
// Contract:
//
//   - Open(ctx) acquires resources and performs any sanctioned blocking
//     work (hash-join build side, sort buffering, aggregate
//     accumulation). The context is retained and polled once per batch
//     by the streaming operators.
//   - Next returns the next batch, or (nil, nil) when exhausted.
//   - Close releases resources, held memory back to its free list
//     (recycle.go); it is idempotent and safe after a failed Open.
//
// Batches are columnar (table.Batch): one column per position, ints
// and strings held unboxed, anything else boxed. Predicates, join and
// group keys and sums read the columns, and the result leaves the plan
// as batches too: Drain hands each output batch on as it is, and the
// server renders its rows from the columns. Boxing is left in two
// places: Stream and Collect, the row-at-a-time boundary for tests and
// tools, turn each batch into rows; and Min/Max keep their extremes as
// values. A group's key is appended to the aggregate's key column, and
// its counts and sums are int64 arrays the result batch re-points.
//
// Ownership — one rule, everywhere: a batch and its columns are scratch
// until the producer's next Next. The operator refills them in place (a
// scan decodes every page into one batch, a join probe gathers its
// output into another); a projection re-points column headers at its
// input's arrays. So consume a batch before pulling again, and copy
// what must outlive the pull: the operators that hold rows across pulls
// — Gather, HashBuild, Sort, Distinct — copy the rows they keep into
// batches of their own. A position the plan does not read is a
// ColAbsent column in a scan's batches (see NewScan); nothing above the
// scan looks.
//
// No operator materializes its full input except HashBuild (a join's
// build side), Sort, and ParallelGroupAgg's accumulator tables — the
// three places DESIGN.md §8 sanctions — so peak intermediate memory is
// bounded by MaxBatchRows plus those explicit pools, which
// plan.ExecStats reports.
package exec

import (
	"context"
	"fmt"
	"time"

	"xst/internal/core"
	"xst/internal/table"
	"xst/internal/trace"
)

// MaxBatchRows caps the size of any batch flowing between operators.
// Operators that can amplify their input (join probes, aggregate and
// sort emission) chunk their output at this bound, which is what makes
// "no full-result materialization between operators" checkable: peak
// intermediate rows stay O(MaxBatchRows) regardless of result size.
const MaxBatchRows = 1024

// OpStats counts one operator's activity, reset at Open. Ns is
// inclusive wall time spent inside this operator's Open and Next,
// children included (the tree form of EXPLAIN ANALYZE).
type OpStats struct {
	RowsIn   int   // rows pulled from children
	RowsOut  int   // rows emitted
	Batches  int   // batches emitted
	MaxBatch int   // largest emitted batch
	HeldRows int   // rows retained inside the operator (build/sort/agg pools)
	Ns       int64 // inclusive nanoseconds in Open+Next
}

// Operator is one node of a streaming execution tree.
type Operator interface {
	// Open prepares the subtree under a cancellation context, which is
	// polled once per batch while streaming.
	Open(ctx context.Context) error
	// Next returns the next output batch, never empty, or (nil, nil)
	// at end of stream. The batch is scratch until the following Next;
	// see the package comment.
	Next() (*table.Batch, error)
	// Close releases the subtree's resources.
	Close() error
	// OutSchema reports the operator's output schema.
	OutSchema() table.Schema
	// Stats returns the counters of the last (or current) run.
	Stats() OpStats
	// Children returns the input operators, for tree walks.
	Children() []Operator
	// String names the operator for EXPLAIN output.
	String() string
}

// Walk visits the tree rooted at op in preorder.
func Walk(op Operator, fn func(op Operator, depth int)) {
	var rec func(o Operator, d int)
	rec = func(o Operator, d int) {
		fn(o, d)
		for _, c := range o.Children() {
			rec(c, d+1)
		}
	}
	rec(op, 0)
}

// Collect drains the tree into materialized, retainable rows: each
// batch is boxed into a fresh value slab. The tree is opened and closed
// around the drain.
func Collect(ctx context.Context, op Operator) ([]table.Row, error) {
	var out []table.Row
	err := Drain(ctx, op, func(b *table.Batch) error {
		out, _ = b.AppendRows(out, nil)
		return nil
	})
	return out, err
}

// Stream opens op, feeds every batch to emit as rows, and closes it.
// The rows are boxed into one slab reused from batch to batch, so they
// are scratch once emit returns (their values may be kept).
//
// When the context carries a trace span (trace.WithSpan), Stream opens
// an "exec" child with "open", "next" and "close" phases under it, and
// threads the exec span to the operators so parallel workers (Gather,
// HashBuild, ParallelGroupAgg) attach their per-worker spans to the
// same tree. Untraced contexts cost one nil check per phase and
// nothing per batch.
func Stream(ctx context.Context, op Operator, emit func(rows []table.Row) error) error {
	var rows []table.Row
	var vals []core.Value
	return Drain(ctx, op, func(b *table.Batch) error {
		rows, vals = b.AppendRows(rows[:0], vals[:0])
		return emit(rows)
	})
}

// Drain is Stream without the rows: every batch goes to emit as the
// operator produced it, scratch until emit returns (see the package
// comment), with nothing boxed. It is how a result leaves the plan for
// the server, which renders each row straight from the columns.
func Drain(ctx context.Context, op Operator, emit func(b *table.Batch) error) error {
	sp := trace.SpanOf(ctx).Start("exec")
	defer sp.End()
	ctx = trace.WithSpan(ctx, sp)
	if err := openSpanned(ctx, sp, op); err != nil {
		op.Close()
		return err
	}
	defer closeSpanned(sp, op)
	nsp := sp.Start("next")
	defer nsp.End()
	for {
		b, err := op.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		nsp.AddRows(b.Len)
		nsp.AddBatches(1)
		if err := emit(b); err != nil {
			return err
		}
	}
}

// openSpanned runs op.Open under an "open" phase span.
func openSpanned(ctx context.Context, sp *trace.Span, op Operator) error {
	osp := sp.Start("open")
	defer osp.End()
	return op.Open(ctx)
}

// closeSpanned runs op.Close under a "close" phase span.
func closeSpanned(sp *trace.Span, op Operator) error {
	csp := sp.Start("close")
	defer csp.End()
	return op.Close()
}

// Count drains the tree discarding rows, boxing none, and returns the
// row count.
func Count(ctx context.Context, op Operator) (int, error) {
	n := 0
	err := Drain(ctx, op, func(b *table.Batch) error {
		n += b.Len
		return nil
	})
	return n, err
}

// timer measures inclusive operator time; use as
// defer st.timed(time.Now()) at the top of Open and Next.
func (s *OpStats) timed(start time.Time) { s.Ns += time.Since(start).Nanoseconds() }

// emitted records one outgoing batch.
func (s *OpStats) emitted(b *table.Batch) {
	s.RowsOut += b.Len
	s.Batches++
	if b.Len > s.MaxBatch {
		s.MaxBatch = b.Len
	}
}

// errOpen reports a Next before Open.
func errOpen(op Operator) error { return fmt.Errorf("exec: %s: Next before Open", op) }
