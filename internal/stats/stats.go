// Package stats collects per-table, per-column statistics — row counts,
// exact distinct counts, min/max and equi-depth histograms — and answers
// selectivity questions. The planner's one estimator,
// plan.(*Catalog).Estimate, answers from these where a column has them
// and from its System-R constants where it does not.
package stats

import (
	"fmt"
	"slices"

	"xst/internal/core"
	"xst/internal/table"
)

// histogramBuckets is the equi-depth bucket count.
const histogramBuckets = 16

// ColumnStats summarizes one column.
type ColumnStats struct {
	// Distinct is the exact number of distinct values.
	Distinct int
	// Min and Max bound the column under the canonical order.
	Min, Max core.Value
	// bounds holds the histogram bucket upper bounds (equi-depth).
	bounds []core.Value
	// rows is the total row count the histogram describes.
	rows int
}

// Rows reports the total row count the column's histogram describes.
func (c ColumnStats) Rows() int { return c.rows }

// Bounds returns the equi-depth histogram bucket upper bounds. The
// returned slice is shared; callers must not mutate it.
func (c ColumnStats) Bounds() []core.Value { return c.bounds }

// TableStats summarizes one table.
type TableStats struct {
	Rows    int
	Columns []ColumnStats
}

// Collect reads the table once, a page batch at a time, and builds
// statistics for every column. Each column's values are sorted under
// the canonical order (core.Compare); its distinct count is the number
// of runs of equal values, so two values count once exactly when the
// algebra treats them as one element.
func Collect(t *table.Table) (*TableStats, error) {
	arity := t.Schema().Arity()
	cols := make([][]core.Value, arity)
	for i := range cols {
		cols[i] = make([]core.Value, 0, t.Count())
	}
	ts := &TableStats{Columns: make([]ColumnStats, arity)}
	ids, _ := t.PageIDs() // reads the heap's own list, and cannot fail
	var pb table.PageBatch
	for _, id := range ids {
		b, err := t.ReadPage(id, &pb, nil)
		if err != nil {
			return nil, err
		}
		ts.Rows += b.Len
		for i := range b.Cols {
			for r := 0; r < b.Len; r++ {
				cols[i] = append(cols[i], b.Cols[i].Value(r))
			}
		}
	}
	for i, vals := range cols {
		ts.Columns[i] = buildColumn(vals)
	}
	return ts, nil
}

// buildColumn sorts vals in place and summarises them.
func buildColumn(vals []core.Value) ColumnStats {
	cs := ColumnStats{rows: len(vals)}
	if len(vals) == 0 {
		return cs
	}
	slices.SortFunc(vals, core.Compare)
	cs.Distinct = 1
	for i := 1; i < len(vals); i++ {
		if core.Compare(vals[i-1], vals[i]) != 0 {
			cs.Distinct++
		}
	}
	cs.Min, cs.Max = vals[0], vals[len(vals)-1]
	buckets := min(histogramBuckets, len(vals))
	cs.bounds = make([]core.Value, buckets)
	for b := 1; b <= buckets; b++ {
		cs.bounds[b-1] = vals[b*len(vals)/buckets-1]
	}
	return cs
}

// SelectivityEq estimates the fraction of rows with column = v, using
// the uniform-within-distinct assumption bounded by [Min, Max] when
// they are known; a distinct count alone answers 1/Distinct.
func (c ColumnStats) SelectivityEq(v core.Value) float64 {
	if c.Distinct == 0 {
		return 0
	}
	if c.Min != nil && (core.Compare(v, c.Min) < 0 || core.Compare(v, c.Max) > 0) {
		return 0
	}
	return 1.0 / float64(c.Distinct)
}

// SelectivityLess estimates the fraction of rows with column < v from
// the equi-depth histogram: the fraction of bucket bounds below v. The
// result is always in [0, 1]; values outside the observed [Min, Max]
// clamp to 0 or 1 respectively, and a nil v (no bound) yields 1.
func (c ColumnStats) SelectivityLess(v core.Value) float64 {
	if c.rows == 0 || len(c.bounds) == 0 {
		return 0
	}
	if v == nil {
		return 1
	}
	if core.Compare(v, c.Min) <= 0 {
		return 0
	}
	if core.Compare(v, c.Max) > 0 {
		return 1
	}
	below := 0
	for _, b := range c.bounds {
		if core.Compare(b, v) < 0 {
			below++
		}
	}
	return clamp01(float64(below) / float64(len(c.bounds)))
}

// SelectivityRange estimates lo <= column < hi. A nil bound is open on
// that side; an inverted range (lo > hi) selects nothing. The result is
// clamped to [0, 1].
func (c ColumnStats) SelectivityRange(lo, hi core.Value) float64 {
	if c.rows == 0 || len(c.bounds) == 0 {
		return 0
	}
	if lo != nil && hi != nil && core.Compare(lo, hi) > 0 {
		return 0
	}
	less := c.SelectivityLess(hi)
	if lo != nil {
		less -= c.SelectivityLess(lo)
	}
	return clamp01(less)
}

// Class places v among the column's statistics without allocating: the
// number of histogram bounds below v, and v's order against Min and Max
// in bits 32–35. SelectivityEq, SelectivityLess and SelectivityRange
// read a value only through these comparisons, so two values of one
// class get the same estimates.
func (c ColumnStats) Class(v core.Value) uint64 {
	var below uint64
	for _, b := range c.bounds {
		if core.Compare(b, v) < 0 {
			below++
		}
	}
	if c.Min == nil {
		return below
	}
	return below | uint64(core.Compare(v, c.Min)+1)<<32 | uint64(core.Compare(v, c.Max)+1)<<34
}

// clamp01 bounds an estimate to [0, 1]; derived combinations (Le as
// Less+Eq, Gt as 1-Less-Eq) can otherwise drift just outside.
func clamp01(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// Value encodes the statistics as an extended-set value so the catalog
// can persist them next to the schema. Layout:
//
//	⟨rows, ⟨col…⟩⟩  where col = ⟨distinct, rows, min, max, ⟨bounds…⟩⟩
//
// Columns that describe zero rows have no min/max and use the short
// form ⟨distinct, rows⟩.
func (t *TableStats) Value() core.Value {
	cols := make([]core.Value, len(t.Columns))
	for i, c := range t.Columns {
		if c.rows == 0 || c.Min == nil {
			cols[i] = core.Tuple(core.Int(int64(c.Distinct)), core.Int(int64(c.rows)))
			continue
		}
		cols[i] = core.Tuple(
			core.Int(int64(c.Distinct)),
			core.Int(int64(c.rows)),
			c.Min,
			c.Max,
			core.Tuple(c.bounds...),
		)
	}
	return core.Tuple(core.Int(int64(t.Rows)), core.Tuple(cols...))
}

// DecodeTableStats is the inverse of TableStats.Value.
func DecodeTableStats(v core.Value) (*TableStats, error) {
	elems, ok := core.TupleElems(v)
	if !ok || len(elems) != 2 {
		return nil, fmt.Errorf("stats: bad table stats %v", v)
	}
	rows, ok := elems[0].(core.Int)
	if !ok || rows < 0 {
		return nil, fmt.Errorf("stats: bad row count in %v", v)
	}
	colVals, ok := core.TupleElems(elems[1])
	if !ok {
		return nil, fmt.Errorf("stats: bad column list in %v", v)
	}
	ts := &TableStats{Rows: int(rows), Columns: make([]ColumnStats, len(colVals))}
	for i, cv := range colVals {
		ce, ok := core.TupleElems(cv)
		if !ok || (len(ce) != 2 && len(ce) != 5) {
			return nil, fmt.Errorf("stats: bad column stats %v", cv)
		}
		distinct, dok := ce[0].(core.Int)
		crows, rok := ce[1].(core.Int)
		if !dok || !rok || distinct < 0 || crows < 0 {
			return nil, fmt.Errorf("stats: bad column counts in %v", cv)
		}
		cs := ColumnStats{Distinct: int(distinct), rows: int(crows)}
		if len(ce) == 5 {
			bounds, bok := core.TupleElems(ce[4])
			if !bok {
				return nil, fmt.Errorf("stats: bad histogram in %v", cv)
			}
			cs.Min, cs.Max = ce[2], ce[3]
			if len(bounds) > 0 {
				cs.bounds = append([]core.Value(nil), bounds...)
			}
		}
		ts.Columns[i] = cs
	}
	return ts, nil
}

// Catalog maps table names to their statistics.
type Catalog map[string]*TableStats

// CollectAll gathers statistics for several tables.
func CollectAll(tables ...*table.Table) (Catalog, error) {
	cat := Catalog{}
	for _, t := range tables {
		ts, err := Collect(t)
		if err != nil {
			return nil, err
		}
		cat[t.Schema().Name] = ts
	}
	return cat, nil
}
