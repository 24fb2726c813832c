// Package exec is the streaming batch-operator execution core: a
// Volcano-style iterator tree whose unit of exchange is a page-sized
// *batch* of rows rather than a single record. Every query path in the
// repo — the planner (internal/plan), the xlang query statements, and
// the server's streaming responses — compiles to one of these trees, so
// the paper's §12 thesis (whole sets flowing through composed
// operations beat record-at-a-time processing) is the architecture, not
// a special case.
//
// Contract:
//
//   - Open(ctx) acquires resources and performs any sanctioned blocking
//     work (hash-join build side, sort buffering, aggregate
//     accumulation). The context is retained and polled once per batch
//     by the streaming operators.
//   - Next returns the next batch, or (nil, nil) when exhausted.
//   - Close releases resources; it is idempotent and safe after a
//     failed Open.
//
// Ownership — one rule, everywhere: a batch and the rows in it are
// scratch until the producer's next Next. The slice, the row headers
// and the rows' value slots all belong to the operator, which refills
// them in place (a scan decodes every page into the same two slabs, a
// join probe cuts its output from one, a projection from another); the
// values themselves are immutable and may always be kept. So consume a
// batch before pulling again, and copy what must outlive the pull. The
// operators that do hold rows across pulls — Gather, HashBuild, the
// HashJoin build, Sort — and Collect take every batch through keep,
// which copies it into one value slab and one header slab unless the
// producer is a Retainer: an operator that hands out fresh batches it
// never touches again, and says so. A position the plan does not read
// is nil in a scan's rows (see NewScan); nothing above the scan looks.
//
// No operator materializes its full input except HashJoin's build side,
// Sort, and GroupAgg's accumulator table — the three places DESIGN.md
// §8 sanctions — so peak intermediate memory is bounded by
// MaxBatchRows plus those explicit pools, which plan.ExecStats reports.
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
	// Next returns the next output batch, or (nil, nil) at end of
	// stream. The batch is scratch until the following Next; see the
	// package comment.
	Next() ([]table.Row, error)
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

// Retainer marks operators whose Next batches (slice and rows) are
// freshly allocated and never touched again by the operator, so a
// holder may keep them uncopied (keep). It is the single switch for
// clone-on-exchange, and only operators that really hand out fresh
// batches implement it: an aggregate emitting its result, a remote
// stream decoding off the wire, an exchange that has already copied.
type Retainer interface{ RetainableBatches() bool }

// retainableBatches reports whether op's batches may be kept uncopied.
func retainableBatches(op Operator) bool {
	r, ok := op.(Retainer)
	return ok && r.RetainableBatches()
}

// cloneBatch copies a batch out of operator scratch: one slab for all
// the values and one for the row headers, whatever the row count.
func cloneBatch(rows []table.Row) []table.Row {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	vals := make([]core.Value, 0, n)
	out := make([]table.Row, len(rows))
	for i, r := range rows {
		vals = append(vals, r...)
		out[i] = vals[len(vals)-len(r) : len(vals) : len(vals)]
	}
	return out
}

// keep returns op's batch in a form that outlives op's next Next: the
// batch itself when op vouches for it (Retainer), a copy otherwise.
// Every operator that holds rows across pulls takes them through here,
// but HashJoin, which copies its build side into one value slab.
func keep(op Operator, rows []table.Row) []table.Row {
	if retainableBatches(op) {
		return rows
	}
	return cloneBatch(rows)
}

// Collect drains the tree into a materialized, retainable row slice
// (batches copied out of operator scratch, see keep). The tree is
// opened and closed around the drain.
func Collect(ctx context.Context, op Operator) ([]table.Row, error) {
	var out []table.Row
	err := Stream(ctx, op, func(rows []table.Row) error {
		out = append(out, keep(op, rows)...)
		return nil
	})
	return out, err
}

// Stream opens op, feeds every batch to emit, and closes it. A batch
// passed to emit is scratch once emit returns.
//
// When the context carries a trace span (trace.WithSpan), Stream opens
// an "exec" child with "open", "next" and "close" phases under it, and
// threads the exec span to the operators so parallel workers (Gather,
// HashBuild, ParallelGroupAgg) attach their per-worker spans to the
// same tree. Untraced contexts cost one nil check per phase and
// nothing per batch.
func Stream(ctx context.Context, op Operator, emit func(rows []table.Row) error) error {
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
		rows, err := op.Next()
		if err != nil {
			return err
		}
		if rows == nil {
			return nil
		}
		nsp.AddRows(len(rows))
		nsp.AddBatches(1)
		if err := emit(rows); err != nil {
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

// Count drains the tree discarding rows and returns the row count.
func Count(ctx context.Context, op Operator) (int, error) {
	n := 0
	err := Stream(ctx, op, func(rows []table.Row) error {
		n += len(rows)
		return nil
	})
	return n, err
}

// timer measures inclusive operator time; use as
// defer st.timed(time.Now()) at the top of Open and Next.
func (s *OpStats) timed(start time.Time) { s.Ns += time.Since(start).Nanoseconds() }

// emitted records one outgoing batch.
func (s *OpStats) emitted(rows []table.Row) {
	s.RowsOut += len(rows)
	s.Batches++
	if len(rows) > s.MaxBatch {
		s.MaxBatch = len(rows)
	}
}

// errOpen reports a Next before Open.
func errOpen(op Operator) error { return fmt.Errorf("exec: %s: Next before Open", op) }
