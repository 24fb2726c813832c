package exec

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"xst/internal/core"
	"xst/internal/table"
)

// AggKind selects an aggregate function.
type AggKind uint8

// Aggregate kinds. Sum/Min/Max apply to the canonical order (Sum
// requires integer or float columns).
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
)

func (k AggKind) String() string {
	return [...]string{"count", "sum", "min", "max"}[k]
}

// Agg describes one aggregate over a column.
type Agg struct {
	Kind AggKind
	Col  int // ignored for AggCount
}

// cell is the running state of one aggregate of one group; which field
// is live depends on the aggregate's kind.
type cell struct {
	count int64      // Count; for Sum, the low word of the exact total while isInt
	sum   float64    // Sum once a Float has been seen
	isInt bool       // Sum has seen only integers
	hi    int32      // Sum's high word while isInt (it fits isInt's padding)
	ext   core.Value // Min or Max: the extreme so far, nil before the first row
}

// errSumOverflow reports an integer sum whose total leaves int64.
var errSumOverflow = errors.New("exec: sum overflows int64")

// addInt adds the integer hi·2⁶⁴ + uint64(lo) into a Sum cell: exactly,
// in 96 bits, while the cell is integral, so no intermediate total can
// fail and the result does not depend on the order rows or partial
// states arrive in; in float64 once the cell is not. Only the final
// total must fit int64 (see total). hi itself overflows only past 2³¹
// extreme values in one group.
func (c *cell) addInt(hi int32, lo int64) error {
	if !c.isInt {
		c.sum += exactFloat(hi, lo)
		return nil
	}
	l, carry := bits.Add64(uint64(c.count), uint64(lo), 0)
	h := int64(c.hi) + int64(hi) + int64(carry)
	if h != int64(int32(h)) {
		return errSumOverflow
	}
	c.count, c.hi = int64(l), int32(h)
	return nil
}

// addFloat adds a float into a Sum cell, promoting it at the first one.
func (c *cell) addFloat(f float64) {
	if c.isInt {
		c.sum, c.isInt = exactFloat(c.hi, c.count), false
	}
	c.sum += f
}

// total is a Sum cell's result: an Int while integral, failing if the
// exact total does not fit int64, else the float sum.
func (c *cell) total() (core.Value, error) {
	if !c.isInt {
		return core.Float(c.sum), nil
	}
	if int64(c.hi) != c.count>>63 {
		return nil, errSumOverflow
	}
	return core.Int(c.count), nil
}

// exactFloat converts the integer hi·2⁶⁴ + uint64(lo) to float64.
func exactFloat(hi int32, lo int64) float64 {
	if int64(hi) == lo>>63 { // it fits int64
		return float64(lo)
	}
	return float64(hi)*0x1p64 + float64(uint64(lo))
}

// acc is one group: its key and one cell per aggregate.
type acc struct {
	key   core.Value
	cells []cell
}

// AggState accumulates grouped aggregates batch by batch. It is the
// core of the GroupAgg and ParallelGroupAgg operators: feed batches
// through Absorb, then read the result rows once with Rows. Groups are
// filed by the digest of their key in one core.Chains, atoms and sets
// alike.
type AggState struct {
	keyCol int
	aggs   []Agg
	chains core.Chains
	groups []*acc // id → group
	rows   int
	// New groups are carved from these two chunks, which double like an
	// append when they run out: a group costs its table entry and a share
	// of a chunk, not six objects.
	accs  []acc
	cells []cell
}

// NewAggState returns an empty accumulator grouping on keyCol.
func NewAggState(keyCol int, aggs ...Agg) *AggState {
	return &AggState{keyCol: keyCol, aggs: append([]Agg(nil), aggs...)}
}

// Absorb folds one batch into the accumulators. Rows are not retained
// (only their immutable values), so callers may pass operator scratch.
func (s *AggState) Absorb(rows []table.Row) error {
	for _, r := range rows {
		g := s.group(r[s.keyCol])
		for i, a := range s.aggs {
			c := &g.cells[i]
			switch a.Kind {
			case AggCount:
				c.count++
			case AggSum:
				switch v := r[a.Col].(type) {
				case core.Int:
					if err := c.addInt(int32(v>>63), int64(v)); err != nil {
						return err
					}
				case core.Float:
					c.addFloat(float64(v))
				default:
					return fmt.Errorf("exec: sum over non-numeric %v", v)
				}
			case AggMin:
				if c.ext == nil || core.Compare(r[a.Col], c.ext) < 0 {
					c.ext = r[a.Col]
				}
			case AggMax:
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
func (s *AggState) group(key core.Value) *acc {
	d := keyDigest(key)
	for id := s.chains.First(d); id >= 0; id = s.chains.Next(id) {
		if g := s.groups[id]; core.Equal(g.key, key) {
			return g
		}
	}
	g := s.newAcc(key)
	s.chains.Add(d)
	s.groups = append(s.groups, g)
	return g
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
// combined into one result. o is read, not changed. All
// four aggregate kinds are decomposable: counts and sums add, min/max
// re-compare, and a Sum stays an exact integer only if both sides
// stayed integral.
func (s *AggState) Merge(o *AggState) error {
	if s.keyCol != o.keyCol || len(s.aggs) != len(o.aggs) {
		return fmt.Errorf("exec: merging incompatible aggregate states")
	}
	for i := range s.aggs {
		if s.aggs[i] != o.aggs[i] {
			return fmt.Errorf("exec: merging incompatible aggregate states")
		}
	}
	for _, src := range o.groups {
		dst := s.group(src.key)
		for i, a := range s.aggs {
			d, c := &dst.cells[i], &src.cells[i]
			switch a.Kind {
			case AggCount:
				d.count += c.count
			case AggSum:
				if !c.isInt {
					d.addFloat(c.sum)
				} else if err := d.addInt(c.hi, c.count); err != nil {
					return err
				}
			case AggMin:
				if c.ext != nil && (d.ext == nil || core.Compare(c.ext, d.ext) < 0) {
					d.ext = c.ext
				}
			case AggMax:
				if c.ext != nil && (d.ext == nil || core.Compare(c.ext, d.ext) > 0) {
					d.ext = c.ext
				}
			}
		}
	}
	s.rows += o.rows
	return nil
}

// Groups returns the number of distinct keys seen so far.
func (s *AggState) Groups() int { return len(s.groups) }

// RowsIn returns the number of rows absorbed so far.
func (s *AggState) RowsIn() int { return s.rows }

// Rows materializes the aggregate result: (key, agg1, agg2, …) rows in
// canonical key order. The rows are freshly allocated — windows into
// one value slab made here — and retainable. It fails if an integer
// sum's total does not fit int64.
func (s *AggState) Rows() ([]table.Row, error) {
	width := 1 + len(s.aggs)
	out := make([]table.Row, 0, s.Groups())
	vals := make([]core.Value, 0, s.Groups()*width)
	for _, g := range s.groups {
		row := vals[len(vals) : len(vals)+width : len(vals)+width]
		vals = vals[:len(vals)+width]
		row[0] = g.key
		for i, a := range s.aggs {
			c := &g.cells[i]
			switch a.Kind {
			case AggCount:
				row[1+i] = core.Int(c.count)
			case AggSum:
				v, err := c.total()
				if err != nil {
					return nil, err
				}
				row[1+i] = v
			case AggMin, AggMax:
				row[1+i] = c.ext
			}
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return core.Compare(out[i][0], out[j][0]) < 0 })
	return out, nil
}

// GroupAgg is the streaming aggregate operator: Open drains the child
// into an AggState — accumulators only, never the input rows — and
// Next emits the (key, agg…) result in MaxBatchRows chunks. The held
// state is one accumulator per distinct key, the aggregate's sanctioned
// materialization.
type GroupAgg struct {
	child  Operator
	keyCol int
	aggs   []Agg
	queue  []table.Row
	stats  OpStats
	open   bool
}

// NewGroupAgg groups child rows on keyCol and computes aggs per group.
func NewGroupAgg(child Operator, keyCol int, aggs ...Agg) *GroupAgg {
	return &GroupAgg{child: child, keyCol: keyCol, aggs: aggs}
}

// Open implements Operator, consuming the whole child stream into the
// accumulator table with a per-batch cancellation poll.
func (g *GroupAgg) Open(ctx context.Context) error {
	g.stats = OpStats{}
	defer g.stats.timed(time.Now())
	g.open = true
	if err := g.child.Open(ctx); err != nil {
		return err
	}
	st := NewAggState(g.keyCol, g.aggs...)
	for {
		rows, err := g.child.Next()
		if err != nil {
			return err
		}
		if rows == nil {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		g.stats.RowsIn += len(rows)
		if err := st.Absorb(rows); err != nil {
			return err
		}
	}
	rows, err := st.Rows()
	if err != nil {
		return err
	}
	g.queue = rows
	g.stats.HeldRows = st.Groups()
	return nil
}

// Next implements Operator.
func (g *GroupAgg) Next() ([]table.Row, error) {
	defer g.stats.timed(time.Now())
	if !g.open {
		return nil, errOpen(g)
	}
	if len(g.queue) == 0 {
		return nil, nil
	}
	n := min(len(g.queue), MaxBatchRows)
	out := g.queue[:n]
	g.queue = g.queue[n:]
	g.stats.emitted(out)
	return out, nil
}

// Close implements Operator.
func (g *GroupAgg) Close() error {
	g.open = false
	g.queue = nil
	return g.child.Close()
}

// OutSchema implements Operator: (key, agg1, agg2, …) with aggregate
// columns named kind(col).
func (g *GroupAgg) OutSchema() table.Schema {
	in := g.child.OutSchema()
	cols := make([]string, 0, 1+len(g.aggs))
	cols = append(cols, in.Cols[g.keyCol])
	for _, a := range g.aggs {
		if a.Kind == AggCount {
			cols = append(cols, "count")
		} else {
			cols = append(cols, fmt.Sprintf("%s(%s)", a.Kind, in.Cols[a.Col]))
		}
	}
	return table.Schema{Name: in.Name, Cols: cols}
}

// Stats implements Operator.
func (g *GroupAgg) Stats() OpStats { return g.stats }

// Children implements Operator.
func (g *GroupAgg) Children() []Operator { return []Operator{g.child} }

func (g *GroupAgg) String() string {
	in := g.child.OutSchema()
	return fmt.Sprintf("groupagg[%s x%d]", in.Cols[g.keyCol], len(g.aggs))
}
