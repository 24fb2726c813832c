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
// (catalog: tables/wal/indexes/stats/bufferpool, server:
// queries/metrics/slow, federation coordinator: sites). The server's
// admin read commands (.stats .metrics .slow .tables .schema) are sugar
// for queries of these views, so there is one introspection path.
package sysview

import (
	"context"
	"fmt"

	"xst/internal/exec"
	"xst/internal/table"
)

// Canonical view names. The "__sys." prefix keeps the namespace out of
// stored-table names (the catalog reserves "__"-prefixed names).
const (
	Queries = "__sys.queries"
	Metrics = "__sys.metrics"
	Slow    = "__sys.slow"
	Wal     = "__sys.wal"
	Sites   = "__sys.sites"
	Indexes = "__sys.indexes"
	Stats   = "__sys.stats"
	Pool    = "__sys.bufferpool"
	Tables  = "__sys.tables"
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
	// One row of WAL health for this database.
	Wal: {"epoch", "wal_bytes", "checkpoints"},
	// Federation coordinator only: one row per remote site.
	Sites: {"site", "addr", "up", "fragments", "retries", "failures", "bytes", "latency_us"},
	// Declared indexes visible to the planner.
	Indexes: {"tbl", "col", "kind", "entries"},
	// Per-column `.analyze` statistics the planner costs with.
	Stats: {"tbl", "col", "rows", "distinct"},
	// One row per buffer pool: occupancy and lifetime counters.
	Pool: {"frames", "capacity", "hits", "misses", "evictions", "writes", "recycled", "pinned"},
	// One row per stored table: its columns as one tuple, row count,
	// sampled encoded row bytes, and the partition spec — part_kind is ""
	// for an unpartitioned table, part_bounds the ⟨bounds…⟩ tuple of a
	// range one. (Not "site": a coordinator's union prepends that.)
	Tables: {"tbl", "cols", "rows", "row_bytes", "part_kind", "part_col", "part_site", "part_sites", "part_bounds"},
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
	return exec.NewMaterialized("sysview("+t.Name+")", t.Schema(), func(ctx context.Context) ([]table.Row, error) {
		rows, err := t.Rows(ctx)
		if err != nil {
			return nil, fmt.Errorf("sysview: %s: %w", t.Name, err)
		}
		return rows, nil
	}), nil
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
