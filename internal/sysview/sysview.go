// Package sysview exposes the engine's own runtime state as virtual
// `__sys.*` tables — on-demand computed relations queryable through the
// same `from …` algebra as stored data. The XST reading is the
// intensional set {x ∈ __sys.queries : P(x)}: observability is not a
// parallel API but one more family of sets the planner, executor,
// server protocol and federation all handle unchanged.
//
// A Table pairs a fixed schema with a Rows function evaluated when the
// query's operator tree opens, so every query sees the state as of its
// own execution. Tables satisfy the xlang.VirtualTable interface
// structurally (Schema/EstRows/NewOp) and enter plans as plan.Source
// leaves; providers are registered by the layers that own the state
// (catalog: wal/txns/indexes/stats/bufferpool, server:
// queries/metrics/slow, federation coordinator: sites).
package sysview

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"xst/internal/exec"
	"xst/internal/table"
)

// Canonical view names. The "__sys." prefix keeps the namespace out of
// stored-table names (the catalog reserves "__"-prefixed names).
const (
	Queries = "__sys.queries"
	Metrics = "__sys.metrics"
	Slow    = "__sys.slow"
	Txns    = "__sys.txns"
	Wal     = "__sys.wal"
	Sites   = "__sys.sites"
	Indexes = "__sys.indexes"
	Stats   = "__sys.stats"
	Pool    = "__sys.bufferpool"
)

// StandardCols fixes the column set of each standard view. Shared so
// the federation coordinator can declare site-matching stubs without a
// live local instance, and so tests can pin the schemas.
var StandardCols = map[string][]string{
	// One row per in-flight or recently finished statement.
	Queries: {"qid", "stmt", "state", "phase", "dur_us", "rows", "dop", "epoch"},
	// The metrics registry flattened: one row per series.
	Metrics: {"name", "kind", "value"},
	// The slow-query ring: over-threshold statements with attribution.
	Slow: {"stmt", "dur_us", "rows", "dop", "epoch"},
	// One row per pinned MVCC snapshot epoch.
	Txns: {"epoch", "refs", "age_us"},
	// One row of WAL/MVCC health for this database.
	Wal: {"epoch", "wal_bytes", "superseded_pages", "pinned_snapshots", "oldest_pin_us", "checkpoints"},
	// Federation coordinator only: one row per remote site.
	Sites: {"site", "addr", "up", "fragments", "retries", "failures", "bytes", "latency_us"},
	// Declared indexes visible to the planner.
	Indexes: {"tbl", "col", "kind", "entries"},
	// Per-column `.analyze` statistics the planner costs with.
	Stats: {"tbl", "col", "rows", "distinct"},
	// One row per buffer pool: occupancy and lifetime counters.
	Pool: {"frames", "capacity", "hits", "misses", "evictions", "writes", "recycled", "pinned"},
}

// Table is one system view: a fixed schema plus a Rows function
// computing the current state. Rows is called once per query execution
// (at operator open) and must return retainable rows — never aliases
// into scratch the caller could race on.
type Table struct {
	Name string
	Help string
	Cols []string
	// Est is the planner's cardinality guess; 0 means a small default.
	Est float64
	// Rows computes the view's rows under the query's context.
	Rows func(ctx context.Context) ([]table.Row, error)
}

// Schema implements the xlang.VirtualTable shape.
func (t *Table) Schema() table.Schema {
	return table.Schema{Name: t.Name, Cols: t.Cols}
}

// EstRows implements the xlang.VirtualTable shape.
func (t *Table) EstRows() float64 {
	if t.Est > 0 {
		return t.Est
	}
	return 64
}

// NewOp implements the xlang.VirtualTable shape: a fresh single-use
// operator that materializes the view when opened.
func (t *Table) NewOp() (exec.Operator, error) {
	if t.Rows == nil {
		return nil, fmt.Errorf("sysview: %s has no row producer", t.Name)
	}
	return &op{t: t}, nil
}

// Standard returns a Table with the canonical columns for name. It
// panics on an unknown name — providers register only the fixed set.
func Standard(name, help string, rows func(ctx context.Context) ([]table.Row, error)) *Table {
	cols, ok := StandardCols[name]
	if !ok {
		panic("sysview: no standard columns for " + name)
	}
	return &Table{Name: name, Help: help, Cols: cols, Rows: rows}
}

// Registry collects the views one process serves. Registration happens
// at construction time (catalog open, server start, coordinator
// connect); reads are per-query.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*Table
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*Table{}}
}

// Register adds t, rejecting duplicates and empty names.
func (r *Registry) Register(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("sysview: empty view name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[t.Name]; dup {
		return fmt.Errorf("sysview: duplicate view %q", t.Name)
	}
	r.byName[t.Name] = t
	return nil
}

// Get fetches a registered view by name.
func (r *Registry) Get(name string) (*Table, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.byName[name]
	return t, ok
}

// Tables returns the registered views sorted by name.
func (r *Registry) Tables() []*Table {
	r.mu.RLock()
	out := make([]*Table, 0, len(r.byName))
	for _, t := range r.byName {
		out = append(out, t)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// op materializes one view at Open and streams it out in batches. The
// emitted batches alias the materialized slice — scratch per the exec
// contract, owned by this operator until Close.
type op struct {
	t      *Table
	ctx    context.Context
	buf    []table.Row
	off    int
	opened bool
	st     exec.OpStats
}

// Open computes the view's rows.
func (o *op) Open(ctx context.Context) error {
	o.st = exec.OpStats{}
	rows, err := o.t.Rows(ctx)
	if err != nil {
		return fmt.Errorf("sysview: %s: %w", o.t.Name, err)
	}
	o.ctx, o.buf, o.off, o.opened = ctx, rows, 0, true
	o.st.HeldRows = len(rows)
	return nil
}

// Next emits the next batch of materialized rows.
func (o *op) Next() ([]table.Row, error) {
	if !o.opened {
		return nil, fmt.Errorf("exec: %s: Next before Open", o)
	}
	if err := o.ctx.Err(); err != nil {
		return nil, err
	}
	if o.off >= len(o.buf) {
		return nil, nil
	}
	end := o.off + exec.MaxBatchRows
	if end > len(o.buf) {
		end = len(o.buf)
	}
	out := o.buf[o.off:end]
	o.off = end
	o.st.RowsOut += len(out)
	o.st.Batches++
	if len(out) > o.st.MaxBatch {
		o.st.MaxBatch = len(out)
	}
	return out, nil
}

// Close releases the materialized rows.
func (o *op) Close() error {
	o.buf, o.opened = nil, false
	return nil
}

// OutSchema implements exec.Operator.
func (o *op) OutSchema() table.Schema { return o.t.Schema() }

// Stats implements exec.Operator.
func (o *op) Stats() exec.OpStats { return o.st }

// Children implements exec.Operator.
func (o *op) Children() []exec.Operator { return nil }

func (o *op) String() string { return "sysview(" + o.t.Name + ")" }
