package fed

import (
	"context"
	"fmt"

	"xst/internal/exec"
	"xst/internal/plan"
	"xst/internal/table"
	"xst/internal/trace"
	"xst/internal/xlang"
)

// Query is one compiled federated query. It implements server.Query, so
// an xstd front server with Config.Compile pointed at a Coordinator
// serves federated results through its ordinary admission, deadline,
// streaming and tracing machinery.
//
// A Query is single-use: its plan's Source leaves carry per-query
// gather caches and scratch-table state.
type Query struct {
	c          *Coordinator
	node       plan.Node
	dop        int
	strategies []Strategy
	ran        bool
}

// Compile parses, optimizes and splits one query statement across the
// federation.
func (c *Coordinator) Compile(stmt string) (*Query, error) {
	xq, err := xlang.CompileQuery(c.env, stmt)
	if err != nil {
		return nil, err
	}
	// CompileQuery ordered and sided the joins on the sites' statistics;
	// the split keeps every join's sides.
	sp := &splitter{c: c}
	node := sp.split(xq.Node)
	dop := sp.fanout
	if dop < 1 {
		dop = 1
	}
	return &Query{c: c, node: node, dop: dop, strategies: sp.strategies}, nil
}

// DOP prices the query for admission: the widest site fan-out of any
// scatter in the plan.
func (q *Query) DOP() int { return q.dop }

// Schema reports the result schema.
func (q *Query) Schema() table.Schema { return q.node.Schema() }

// Plan renders the federated logical plan (scatter leaves labelled with
// their fragment text and site counts).
func (q *Query) Plan() string { return q.node.String() }

// Strategies reports each distributed join's chosen shipping strategy,
// in plan order.
func (q *Query) Strategies() []Strategy {
	return append([]Strategy(nil), q.strategies...)
}

// Run executes the federated plan, streaming result batches to emit.
// When ctx carries a trace span the drained tree is mirrored under it,
// so per-site remote[sN …] spans appear in `.trace` output and
// EXPLAIN ANALYZE alike.
func (q *Query) Run(ctx context.Context, emit func(b *table.Batch) error) (plan.ExecStats, error) {
	if q.ran {
		return plan.ExecStats{}, fmt.Errorf("fed: query already run")
	}
	q.ran = true
	op, err := plan.Compile(q.node)
	if err != nil {
		return plan.ExecStats{}, err
	}
	err = exec.Drain(ctx, op, emit)
	plan.AttachOpSpans(trace.SpanOf(ctx), op)
	return plan.TreeStats(op), err
}

// Explain runs the query to completion, discarding rows, and renders
// the executed tree with per-operator counters — EXPLAIN ANALYZE for a
// federated plan.
func (q *Query) Explain(ctx context.Context) (string, error) {
	if q.ran {
		return "", fmt.Errorf("fed: query already run")
	}
	q.ran = true
	return plan.ExplainAnalyze(ctx, q.node)
}
