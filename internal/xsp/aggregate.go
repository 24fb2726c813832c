package xsp

import (
	"fmt"
	"sort"

	"xst/internal/core"
	"xst/internal/table"
)

// AggKind selects an aggregate function.
type AggKind uint8

// Aggregate kinds. Sum/Min/Max apply to the canonical order (Sum
// requires integer or float columns).
const (
	Count AggKind = iota
	Sum
	Min
	Max
)

func (k AggKind) String() string {
	return [...]string{"count", "sum", "min", "max"}[k]
}

// Agg describes one aggregate over a column.
type Agg struct {
	Kind AggKind
	Col  int // ignored for Count
}

// forceEncodedGroupKeys disables the atom-key fast path so benchmarks
// can measure what it saves; never set outside tests.
var forceEncodedGroupKeys = false

// cell is the running state of one aggregate of one group; which field
// is live depends on the aggregate's kind.
type cell struct {
	count int64      // Count
	sum   float64    // Sum
	isInt bool       // Sum has seen only integers
	ext   core.Value // Min or Max: the extreme so far, nil before the first row
}

// acc is one group: its key and one cell per aggregate.
type acc struct {
	key   core.Value
	cells []cell
}

// AggState accumulates grouped aggregates batch by batch. It is the
// shared core behind GroupAgg, GroupCount, and the streaming aggregate
// operator in internal/exec: feed batches through Absorb, then read the
// result rows once with Rows.
//
// Grouping keys: atom values (Bool/Int/Float/Str) group by their
// comparable core.AtomKey — no per-row encoding. Set-valued keys fall
// back to a second map keyed by the canonical encoding; keeping the two
// maps separate is what makes the fast path sound, since a Str key
// could otherwise collide with an encoded set's byte string.
type AggState struct {
	keyCol int
	aggs   []Agg
	atoms  map[core.AtomKey]*acc
	sets   map[string]*acc
	rows   int
	// New groups are carved from these two chunks, which double like an
	// append when they run out: a group costs its map entry and a share
	// of a chunk, not six objects.
	accs  []acc
	cells []cell
}

// NewAggState returns an empty accumulator grouping on keyCol.
func NewAggState(keyCol int, aggs ...Agg) *AggState {
	return &AggState{
		keyCol: keyCol,
		aggs:   append([]Agg(nil), aggs...),
		atoms:  map[core.AtomKey]*acc{},
		sets:   map[string]*acc{},
	}
}

// Absorb folds one batch into the accumulators. Rows are not retained
// (only their immutable values), so callers may pass operator scratch.
func (s *AggState) Absorb(rows []table.Row) error {
	for _, r := range rows {
		g, err := s.group(r[s.keyCol])
		if err != nil {
			return err
		}
		for i, a := range s.aggs {
			c := &g.cells[i]
			switch a.Kind {
			case Count:
				c.count++
			case Sum:
				switch v := r[a.Col].(type) {
				case core.Int:
					c.sum += float64(v)
				case core.Float:
					c.sum += float64(v)
					c.isInt = false
				default:
					return fmt.Errorf("xsp: sum over non-numeric %v", v)
				}
			case Min:
				if c.ext == nil || core.Compare(r[a.Col], c.ext) < 0 {
					c.ext = r[a.Col]
				}
			case Max:
				if c.ext == nil || core.Compare(r[a.Col], c.ext) > 0 {
					c.ext = r[a.Col]
				}
			}
		}
	}
	s.rows += len(rows)
	return nil
}

// group finds or creates the accumulator for one key value.
func (s *AggState) group(key core.Value) (*acc, error) {
	if !forceEncodedGroupKeys {
		if ak, ok := core.AtomKeyOf(key); ok {
			g := s.atoms[ak]
			if g == nil {
				g = s.newAcc(key)
				s.atoms[ak] = g
			}
			return g, nil
		}
	}
	k := core.Key(key)
	g := s.sets[k]
	if g == nil {
		g = s.newAcc(key)
		s.sets[k] = g
	}
	return g, nil
}

func (s *AggState) newAcc(key core.Value) *acc {
	k := len(s.aggs)
	if len(s.accs) == cap(s.accs) {
		n := 2*cap(s.accs) + 1
		s.accs = make([]acc, 0, n)
		s.cells = make([]cell, n*k)
	}
	s.accs = append(s.accs, acc{key: key, cells: s.cells[:k:k]})
	s.cells = s.cells[k:]
	g := &s.accs[len(s.accs)-1]
	for i := range g.cells {
		g.cells[i].isInt = true
	}
	return g
}

// Merge folds another accumulator built over the same keyCol and aggs
// into s, so partial aggregates computed by independent workers can be
// combined into one result. o must not be used after the merge. All
// four aggregate kinds are decomposable: counts and sums add, min/max
// re-compare, and the int/float promotion for Sum holds only if both
// sides stayed integral.
func (s *AggState) Merge(o *AggState) error {
	if s.keyCol != o.keyCol || len(s.aggs) != len(o.aggs) {
		return fmt.Errorf("xsp: merging incompatible aggregate states")
	}
	for i := range s.aggs {
		if s.aggs[i] != o.aggs[i] {
			return fmt.Errorf("xsp: merging incompatible aggregate states")
		}
	}
	fold := func(dst, src *acc) {
		for i, a := range s.aggs {
			d, o := &dst.cells[i], &src.cells[i]
			switch a.Kind {
			case Count:
				d.count += o.count
			case Sum:
				d.sum += o.sum
				d.isInt = d.isInt && o.isInt
			case Min:
				if o.ext != nil && (d.ext == nil || core.Compare(o.ext, d.ext) < 0) {
					d.ext = o.ext
				}
			case Max:
				if o.ext != nil && (d.ext == nil || core.Compare(o.ext, d.ext) > 0) {
					d.ext = o.ext
				}
			}
		}
	}
	for ak, src := range o.atoms {
		if dst := s.atoms[ak]; dst != nil {
			fold(dst, src)
		} else {
			s.atoms[ak] = src
		}
	}
	for k, src := range o.sets {
		if dst := s.sets[k]; dst != nil {
			fold(dst, src)
		} else {
			s.sets[k] = src
		}
	}
	s.rows += o.rows
	return nil
}

// Groups returns the number of distinct keys seen so far.
func (s *AggState) Groups() int { return len(s.atoms) + len(s.sets) }

// RowsIn returns the number of rows absorbed so far.
func (s *AggState) RowsIn() int { return s.rows }

// Rows materializes the aggregate result: (key, agg1, agg2, …) rows in
// canonical key order. The rows are freshly allocated — windows into
// one value slab made here — and retainable.
func (s *AggState) Rows() []table.Row {
	width := 1 + len(s.aggs)
	out := make([]table.Row, 0, s.Groups())
	vals := make([]core.Value, 0, s.Groups()*width)
	emit := func(g *acc) {
		row := vals[len(vals) : len(vals)+width : len(vals)+width]
		vals = vals[:len(vals)+width]
		row[0] = g.key
		for i, a := range s.aggs {
			c := &g.cells[i]
			switch a.Kind {
			case Count:
				row[1+i] = core.Int(c.count)
			case Sum:
				if c.isInt {
					row[1+i] = core.Int(int64(c.sum))
				} else {
					row[1+i] = core.Float(c.sum)
				}
			case Min, Max:
				row[1+i] = c.ext
			}
		}
		out = append(out, row)
	}
	for _, g := range s.atoms {
		emit(g)
	}
	for _, g := range s.sets {
		emit(g)
	}
	sort.Slice(out, func(i, j int) bool { return core.Compare(out[i][0], out[j][0]) < 0 })
	return out
}

// GroupAgg aggregates a pipeline by a key column, set-at-a-time: batches
// stream through once, accumulators update in place. Output rows are
// (key, agg1, agg2, …) in canonical key order.
func GroupAgg(p *Pipeline, keyCol int, aggs ...Agg) ([]table.Row, error) {
	st := NewAggState(keyCol, aggs...)
	if err := p.Run(st.Absorb); err != nil {
		return nil, err
	}
	return st.Rows(), nil
}

// OrderBy materializes the pipeline and returns rows sorted by the given
// column under the canonical order (descending if desc).
func OrderBy(p *Pipeline, col int, desc bool) ([]table.Row, error) {
	rows, err := p.Collect()
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		c := core.Compare(rows[i][col], rows[j][col])
		if desc {
			return c > 0
		}
		return c < 0
	})
	return rows, nil
}

// TopN returns the n largest rows by column col without sorting the
// whole result: a bounded selection maintained set-at-a-time.
func TopN(p *Pipeline, col, n int) ([]table.Row, error) {
	if n <= 0 {
		return nil, nil
	}
	var top []table.Row
	err := p.Run(func(rows []table.Row) error {
		for _, r := range rows {
			if len(top) < n {
				top = append(top, r.Clone())
				if len(top) == n {
					sortRows(top, col)
				}
				continue
			}
			// top is ascending by col; top[0] is the current minimum.
			if core.Compare(r[col], top[0][col]) <= 0 {
				continue
			}
			top[0] = r.Clone()
			// Restore order by bubbling the new row up.
			for i := 1; i < len(top) && core.Compare(top[i-1][col], top[i][col]) > 0; i++ {
				top[i-1], top[i] = top[i], top[i-1]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(top) < n {
		sortRows(top, col)
	}
	// Return descending (largest first).
	for i, j := 0, len(top)-1; i < j; i, j = i+1, j-1 {
		top[i], top[j] = top[j], top[i]
	}
	return top, nil
}
