package exec

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"xst/internal/core"
	"xst/internal/table"
	"xst/internal/trace"
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

// aggCol is one aggregate's running state, an entry per group; which
// arrays are live depends on the aggregate's kind.
type aggCol struct {
	lo []int64 // Count; for Sum, the low word of the exact total while integral
	hi []int32 // Sum's high word while integral
	// Sum once a group has seen a Float: its float total, and whether it
	// has. Both stay nil until some group's does, so a sum over integers
	// pays for neither.
	flt   []float64
	isFlt []bool
	ext   []core.Value // Min or Max: the extreme so far, nil before the first row
}

// reserve empties the state and makes room in it for n groups of an
// aggregate of kind, keeping arrays that have the room.
func (a *aggCol) reserve(kind AggKind, n int) {
	a.flt, a.isFlt = nil, nil
	switch kind {
	case AggCount:
		a.lo = table.Grow(a.lo[:0], n)
	case AggSum:
		a.lo, a.hi = table.Grow(a.lo[:0], n), table.Grow(a.hi[:0], n)
	default:
		a.ext = table.Grow(a.ext[:0], n)
	}
}

// add appends the empty state of a new group.
func (a *aggCol) add(kind AggKind) {
	switch kind {
	case AggCount:
		a.lo = push(a.lo, 0)
	case AggSum:
		a.lo, a.hi = push(a.lo, 0), push(a.hi, 0)
		if a.isFlt != nil {
			a.flt, a.isFlt = push(a.flt, 0), push(a.isFlt, false)
		}
	default:
		a.ext = push(a.ext, nil)
	}
}

// push appends v to s, doubling s when it must move (table.Grow).
func push[T any](s []T, v T) []T { return append(table.Grow(s, len(s)+1), v) }

// errSumOverflow reports an integer sum whose total leaves int64.
var errSumOverflow = errors.New("exec: sum overflows int64")

// addInt adds the integer hi·2⁶⁴ + uint64(lo) into group g's Sum:
// exactly, in 96 bits, while the group's sum is integral, so no
// intermediate total can fail and the result does not depend on the
// order rows or partial states arrive in; in float64 once it is not.
// Only the final total must fit int64 (see sumCol). hi itself
// overflows only past 2³¹ extreme values in one group.
func (a *aggCol) addInt(g int32, hi int32, lo int64) error {
	if a.floated(g) {
		a.flt[g] += exactFloat(hi, lo)
		return nil
	}
	l, carry := bits.Add64(uint64(a.lo[g]), uint64(lo), 0)
	h := int64(a.hi[g]) + int64(hi) + int64(carry)
	if h != int64(int32(h)) {
		return errSumOverflow
	}
	a.lo[g], a.hi[g] = int64(l), int32(h)
	return nil
}

// floated reports whether group g's Sum has seen a Float.
func (a *aggCol) floated(g int32) bool { return a.isFlt != nil && a.isFlt[g] }

// addFloat adds a float into group g's Sum, promoting it at the first one.
func (a *aggCol) addFloat(g int32, f float64) {
	if a.isFlt == nil {
		a.flt, a.isFlt = make([]float64, len(a.lo)), make([]bool, len(a.lo))
	}
	if !a.isFlt[g] {
		a.flt[g], a.isFlt[g] = exactFloat(a.hi[g], a.lo[g]), true
	}
	a.flt[g] += f
}

// sumCol is a Sum's result column over n groups: the low words
// themselves while every total is an integer, each failing if it does
// not fit int64; the totals boxed, Ints and Floats, once a group's is
// not.
func (a *aggCol) sumCol(n int) (table.Col, error) {
	for g := int32(0); g < int32(n); g++ {
		if !a.floated(g) && int64(a.hi[g]) != a.lo[g]>>63 {
			return table.Col{}, errSumOverflow
		}
	}
	if a.isFlt == nil {
		return table.Col{Kind: table.ColInt, Ints: a.lo}, nil
	}
	vals := make([]core.Value, n)
	for g := range vals {
		if a.isFlt[g] {
			vals[g] = core.Float(a.flt[g])
		} else {
			vals[g] = core.Int(a.lo[g])
		}
	}
	return table.Col{Kind: table.ColAny, Vals: vals}, nil
}

// exactFloat converts the integer hi·2⁶⁴ + uint64(lo) to float64.
func exactFloat(hi int32, lo int64) float64 {
	if int64(hi) == lo>>63 { // it fits int64
		return float64(lo)
	}
	return float64(hi)*0x1p64 + float64(uint64(lo))
}

// AggState accumulates grouped aggregates batch by batch. It is the
// core of the GroupAgg and ParallelGroupAgg operators: feed batches
// through Absorb, then read the result once with Result. The groups are
// columns: group id g's key is row g of one key column, which a new key
// is appended to unboxed (and which turns ColAny, as a page's column
// does, when keys of another kind arrive), and its state is entry g of
// each aggregate's arrays, all sized once and doubling past that. Keys
// are filed by digest in one core.Chains, atoms and sets alike.
type AggState struct {
	keyCol   int
	aggs     []Agg
	expected int // groups reserved for; the key column at its first key, once its kind is known
	chains   core.Chains
	keys     table.Col // group id → key
	cols     []aggCol  // per aggregate
	groups   int
	rows     int
	of       []int32 // scratch: the group of each row of the batch being absorbed
	res      table.Batch
	perm     []int32 // Result's batch and permutation
}

// NewAggState returns an empty accumulator grouping on keyCol, its
// tables sized for groups keys (the planner's measured distinct count,
// 0 when it has none); any number may arrive.
func NewAggState(keyCol, groups int, aggs ...Agg) *AggState {
	return new(AggState).reset(keyCol, groups, aggs)
}

// reset empties s for NewAggState's arguments, keeping the capacity of
// its arrays, and returns it.
func (s *AggState) reset(keyCol, groups int, aggs []Agg) *AggState {
	s.keyCol, s.expected, s.groups, s.rows = keyCol, groups, 0, 0
	s.aggs = append(s.aggs[:0], aggs...)
	s.chains.Reset(groups)
	s.cols = table.Grow(s.cols[:0], len(aggs))[:len(aggs)]
	for k, a := range aggs {
		s.cols[k].reserve(a.Kind, groups)
	}
	return s
}

// release scrubs s and puts it back on its free list.
func (s *AggState) release() {
	scrubCol(&s.keys)
	for k := range s.cols {
		scrubVals(s.cols[k].ext)
	}
	scrub(&s.res)
	aggStates.put(s)
}

// Absorb folds one batch into the accumulators: first the group of
// every row, then each aggregate over its column. Nothing of the batch
// is retained, so callers may pass operator scratch.
func (s *AggState) Absorb(b *table.Batch) error {
	key := &b.Cols[s.keyCol]
	of := table.Grow(s.of[:0], b.Len)
	for i := 0; i < b.Len; i++ {
		of = append(of, s.group(key, i))
	}
	s.of = of
	for k := range s.aggs {
		if err := s.fold(k, b); err != nil {
			return err
		}
	}
	s.rows += b.Len
	return nil
}

// fold folds aggregate k over the rows of b into their groups, s.of.
func (s *AggState) fold(k int, b *table.Batch) error {
	a, st := s.aggs[k], &s.cols[k]
	if a.Kind == AggCount {
		for _, g := range s.of {
			st.lo[g]++
		}
		return nil
	}
	col := &b.Cols[a.Col]
	switch a.Kind {
	case AggSum:
		switch col.Kind {
		case table.ColInt:
			for i, g := range s.of {
				x := col.Ints[i]
				if err := st.addInt(g, int32(x>>63), x); err != nil {
					return err
				}
			}
		case table.ColAny:
			for i, g := range s.of {
				switch v := col.Vals[i].(type) {
				case core.Int:
					if err := st.addInt(g, int32(v>>63), int64(v)); err != nil {
						return err
					}
				case core.Float:
					st.addFloat(g, float64(v))
				default:
					return fmt.Errorf("exec: sum over non-numeric %v", v)
				}
			}
		default:
			return fmt.Errorf("exec: sum over non-numeric %v", col.Value(0))
		}
	case AggMin, AggMax:
		sign := a.sign()
		for i, g := range s.of {
			if e := st.ext[g]; e == nil || sign*col.Compare(i, e) < 0 {
				st.ext[g] = col.Value(i)
			}
		}
	}
	return nil
}

// sign is 1 for Min and -1 for Max: a value v replaces the extreme e
// when sign·Compare(v, e) < 0.
func (a Agg) sign() int {
	if a.Kind == AggMax {
		return -1
	}
	return 1
}

// group finds or creates the group of the key at row i of column key.
func (s *AggState) group(key *table.Col, i int) int32 {
	d := key.Digest(i) & digestMask
	for id := s.chains.First(d); id >= 0; id = s.chains.Next(id) {
		if s.keys.Equal(int(id), key, i) {
			return id
		}
	}
	s.chains.Add(d)
	if s.groups == 0 {
		s.keys.Reserve(key.Kind, s.expected)
	}
	s.keys.Append(s.groups, key, i)
	for k, a := range s.aggs {
		s.cols[k].add(a.Kind)
	}
	s.groups++
	return int32(s.groups - 1)
}

// Merge folds another accumulator built over the same keyCol and aggs
// into s, so partial aggregates computed by independent workers can be
// combined into one result: each of o's keys is read off its key
// column and grouped in s. o is read, not changed. All four aggregate
// kinds are decomposable: counts and sums add, min/max re-compare, and
// a Sum stays an exact integer only if both sides stayed integral.
func (s *AggState) Merge(o *AggState) error {
	if s.keyCol != o.keyCol || len(s.aggs) != len(o.aggs) {
		return fmt.Errorf("exec: merging incompatible aggregate states")
	}
	for i := range s.aggs {
		if s.aggs[i] != o.aggs[i] {
			return fmt.Errorf("exec: merging incompatible aggregate states")
		}
	}
	for g := int32(0); g < int32(o.groups); g++ {
		d := s.group(&o.keys, int(g))
		for k, a := range s.aggs {
			dst, src := &s.cols[k], &o.cols[k]
			switch a.Kind {
			case AggCount:
				dst.lo[d] += src.lo[g]
			case AggSum:
				if src.floated(g) {
					dst.addFloat(d, src.flt[g])
				} else if err := dst.addInt(d, src.hi[g], src.lo[g]); err != nil {
					return err
				}
			case AggMin, AggMax:
				if e := src.ext[g]; e != nil && (dst.ext[d] == nil || a.sign()*core.Compare(e, dst.ext[d]) < 0) {
					dst.ext[d] = e
				}
			}
		}
	}
	s.rows += o.rows
	return nil
}

// Groups returns the number of distinct keys seen so far.
func (s *AggState) Groups() int { return s.groups }

// RowsIn returns the number of rows absorbed so far.
func (s *AggState) RowsIn() int { return s.rows }

// Result returns the aggregate result as one batch of (key, agg1,
// agg2, …) columns, a row per group in the order the groups were
// created, and the permutation of its rows that puts the keys in
// canonical order. The batch re-points the state's arrays — the key
// column, the counts, the integral sums' low words — so nothing is
// copied or boxed per group but a float sum; it is valid until the
// next Absorb or Merge. It fails if an integer sum's total does not
// fit int64.
func (s *AggState) Result() (*table.Batch, []int32, error) {
	b := &s.res
	b.Len, b.Cols = s.groups, table.Grow(b.Cols[:0], 1+len(s.aggs))[:1+len(s.aggs)]
	b.Cols[0] = s.keys
	for k, a := range s.aggs {
		st := &s.cols[k]
		switch a.Kind {
		case AggCount:
			b.Cols[1+k] = table.Col{Kind: table.ColInt, Ints: st.lo}
		case AggSum:
			col, err := st.sumCol(s.groups)
			if err != nil {
				return nil, nil, err
			}
			b.Cols[1+k] = col
		default:
			b.Cols[1+k] = table.Col{Kind: table.ColAny, Vals: st.ext}
		}
	}
	perm := table.Grow(s.perm[:0], s.groups)
	for i := range s.groups {
		perm = append(perm, int32(i))
	}
	keys := &b.Cols[0]
	slices.SortFunc(perm, func(i, j int32) int { return keys.CompareAt(int(i), keys, int(j)) })
	s.perm = perm
	return b, perm, nil
}

// ordered hands out the rows of a held batch in the order of a
// permutation, MaxBatchRows at a time, gathered into one batch reused
// from chunk to chunk, taken off the free list at the first: the
// emission of Sort and of the aggregates.
type ordered struct {
	all  *table.Batch
	perm []int32
	out  *table.Batch
}

// next gathers the next chunk, or returns nil when none is left.
func (o *ordered) next() *table.Batch {
	if len(o.perm) == 0 {
		return nil
	}
	if o.out == nil {
		o.out = getBatch()
	}
	n := min(len(o.perm), MaxBatchRows)
	o.out.Gather(o.all, o.perm[:n])
	o.perm = o.perm[n:]
	return o.out
}

// release puts the output batch back and forgets the held rows.
func (o *ordered) release() {
	putBatch(o.out)
	*o = ordered{}
}

// GroupAgg is the streaming aggregate operator: the one-worker
// ParallelGroupAgg.
type GroupAgg struct {
	ParallelGroupAgg
	child [1]Operator
}

// NewGroupAgg computes aggs per keyCol group, sized for groups keys.
func NewGroupAgg(child Operator, keyCol, groups int, aggs ...Agg) *GroupAgg {
	g := &GroupAgg{child: [1]Operator{child}}
	g.ParallelGroupAgg = ParallelGroupAgg{fanIn: fanIn{ops: g.child[:]}, keyCol: keyCol, groups: groups, aggs: aggs}
	return g
}

func (g *GroupAgg) String() string {
	in := g.child[0].OutSchema()
	return fmt.Sprintf("groupagg[%s x%d]", in.Cols[g.keyCol], len(g.aggs))
}

// aggSchema is the output schema of grouping in on keyCol with aggs.
func aggSchema(in table.Schema, keyCol int, aggs []Agg) table.Schema {
	cols := make([]string, 0, 1+len(aggs))
	cols = append(cols, in.Cols[keyCol])
	for _, a := range aggs {
		if a.Kind == AggCount {
			cols = append(cols, "count")
		} else {
			cols = append(cols, fmt.Sprintf("%s(%s)", a.Kind, in.Cols[a.Col]))
		}
	}
	return table.Schema{Name: in.Name, Cols: cols}
}

// ParallelGroupAgg is the partial-aggregate: Open drains N worker
// subtrees concurrently, each into a private AggState, then folds the
// partials with AggState.Merge — the classic partial/final aggregation
// split. The held state, one accumulator per distinct key and never the
// input rows, is the aggregate's sanctioned materialization. Open does
// all the work; Next emits the (key, agg…) result in key order,
// MaxBatchRows rows at a time. aux operators are shared worker
// dependencies (e.g. a HashBuild), opened before the workers start.
type ParallelGroupAgg struct {
	fanIn
	keyCol        int
	groups, share int // keys the merged state and each other one are sized for
	aggs          []Agg

	states []*AggState // the merged state, then the other partials; empty while closed
	out    ordered     // all is nil until built
	stats  OpStats
}

// NewParallelGroupAgg aggregates the union of the workers' outputs,
// grouping on keyCol. The state the others merge into is sized for
// groups keys, each other one for what its share of rows can hold.
func NewParallelGroupAgg(workers []Operator, aux []Operator, keyCol, groups, rows int, aggs ...Agg) *ParallelGroupAgg {
	if len(workers) == 0 {
		panic("exec: ParallelGroupAgg needs at least one worker")
	}
	share := min(groups, (rows+len(workers)-1)/len(workers))
	return &ParallelGroupAgg{fanIn: newFanIn(workers, aux), keyCol: keyCol, groups: groups, share: share, aggs: aggs}
}

// Open implements Operator: parallel partial aggregation, barrier,
// merge.
func (g *ParallelGroupAgg) Open(ctx context.Context) error {
	g.stats = OpStats{}
	defer g.stats.timed(time.Now())
	g.release()
	if err := g.openAux(ctx); err != nil {
		return err
	}
	merged := aggStates.get().reset(g.keyCol, g.groups, g.aggs)
	g.states = append(g.states, merged)
	if err := g.fold(ctx, merged); err != nil {
		return err
	}
	res, perm, err := merged.Result()
	if err != nil {
		return err
	}
	g.out = ordered{all: res, perm: perm}
	g.stats.RowsIn = merged.RowsIn()
	g.stats.HeldRows = merged.Groups()
	return nil
}

// fold drains each worker into a private partial state, merged's
// among them, then merges the others into merged under a "merge" span;
// one worker drains into merged itself.
func (g *ParallelGroupAgg) fold(ctx context.Context, merged *AggState) error {
	if g.Workers() == 1 {
		return drainAll(ctx, "partial", g.workers(), merged)
	}
	for range g.Workers() - 1 {
		g.states = append(g.states, aggStates.get().reset(g.keyCol, g.share, g.aggs))
	}
	states := g.states
	if err := drainAll(ctx, "partial", g.workers(), sinkFunc(func(i int, b *table.Batch) error { return states[i].Absorb(b) })); err != nil {
		return err
	}
	sp := trace.SpanOf(ctx).Start("merge")
	defer sp.End()
	for _, st := range states[1:] {
		if err := merged.Merge(st); err != nil {
			return err
		}
	}
	return nil
}

// take implements sink: a one-worker aggregate's state absorbs every
// batch itself.
func (s *AggState) take(_ int, b *table.Batch) error { return s.Absorb(b) }

// Next implements Operator.
func (g *ParallelGroupAgg) Next() (*table.Batch, error) {
	defer g.stats.timed(time.Now())
	if g.out.all == nil {
		return nil, errOpen(g)
	}
	out := g.out.next()
	if out != nil {
		g.stats.emitted(out)
	}
	return out, nil
}

// Close implements Operator: it puts the held states back.
func (g *ParallelGroupAgg) Close() error {
	g.release()
	return g.closeAll()
}

// release puts the states, merged's first, and the output batch back,
// so that the next Open, which takes merged's first, takes them in the
// same roles.
func (g *ParallelGroupAgg) release() {
	for _, st := range g.states {
		st.release()
	}
	clear(g.states)
	g.states = g.states[:0]
	g.out.release()
}

// OutSchema implements Operator: (key, agg1, agg2, …) with aggregate
// columns named kind(col).
func (g *ParallelGroupAgg) OutSchema() table.Schema {
	return aggSchema(g.fanIn.OutSchema(), g.keyCol, g.aggs)
}

// Stats implements Operator.
func (g *ParallelGroupAgg) Stats() OpStats { return g.stats }

func (g *ParallelGroupAgg) String() string {
	in := g.fanIn.OutSchema()
	return fmt.Sprintf("pgroupagg[%s x%d w=%d]", in.Cols[g.keyCol], len(g.aggs), g.Workers())
}
