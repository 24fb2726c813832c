package stats

import (
	"sort"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
)

// The row-at-a-time statistics collector: one Scan callback per row, one
// core.Key string per value into a per-column map for the distinct
// count, and a sort.Slice copy of each column for min, max and the
// histogram. It was the serving code until the batched Collect replaced
// it; it stays here as the oracle Collect is differentially tested
// against (collect_test.go). Its distinct count is by encoding, so +0
// and −0 (and NaNs with different bits) count twice; Collect's is by
// core.Compare, which the tests pin separately.

// refCollect scans the table once and builds statistics for every column.
func refCollect(t *table.Table) (*TableStats, error) {
	arity := t.Schema().Arity()
	values := make([][]core.Value, arity)
	distinct := make([]map[string]bool, arity)
	for i := range distinct {
		distinct[i] = map[string]bool{}
	}
	rows := 0
	err := t.Scan(func(_ store.RID, r table.Row) (bool, error) {
		rows++
		for i, v := range r {
			values[i] = append(values[i], v)
			distinct[i][core.Key(v)] = true
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	ts := &TableStats{Rows: rows, Columns: make([]ColumnStats, arity)}
	for i := range ts.Columns {
		ts.Columns[i] = refBuildColumn(values[i], len(distinct[i]))
	}
	return ts, nil
}

func refBuildColumn(vals []core.Value, distinct int) ColumnStats {
	cs := ColumnStats{Distinct: distinct, rows: len(vals)}
	if len(vals) == 0 {
		return cs
	}
	sorted := make([]core.Value, len(vals))
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return core.Compare(sorted[i], sorted[j]) < 0 })
	cs.Min, cs.Max = sorted[0], sorted[len(sorted)-1]
	buckets := histogramBuckets
	if buckets > len(sorted) {
		buckets = len(sorted)
	}
	for b := 1; b <= buckets; b++ {
		idx := b*len(sorted)/buckets - 1
		cs.bounds = append(cs.bounds, sorted[idx])
	}
	return cs
}
