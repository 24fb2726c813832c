package plan

import (
	"fmt"

	"xst/internal/core"
	"xst/internal/index"
	"xst/internal/stats"
	"xst/internal/table"
)

// Access-path selection: when the catalog declares indexes, the planner
// can answer a selective predicate through a prestructured set (hash
// point lookup, btree range) instead of a full scan. The decision is
// cost-based — estimated matching rows times a random-access penalty
// against the sequential scan of the whole table — so low-selectivity
// predicates deliberately keep the full scan.

// indexRowCost is the cost of one row fetched by RID relative to one
// row read sequentially by a scan: random access pays for itself only
// when the index prunes at least this factor of the table.
const indexRowCost = 4.0

// IndexKind distinguishes the physical index structures.
type IndexKind uint8

// Index kinds.
const (
	// HashIdx answers equality (point) predicates.
	HashIdx IndexKind = iota
	// BTreeIdx answers ordered range predicates over atom columns.
	BTreeIdx
)

func (k IndexKind) String() string {
	if k == HashIdx {
		return "hash"
	}
	return "btree"
}

// TableIndex is one catalog-declared index the planner may choose.
// Exactly one of Hash/BTree is set, matching Kind. The structures are
// immutable once published: rebuilds swap in fresh ones.
type TableIndex struct {
	Table *table.Table
	Col   string
	Kind  IndexKind
	Hash  *index.HashIndex
	BTree *index.BTree
}

// Catalog is one published snapshot of a database as the compiler sees
// it: the tables by name, their declared indexes and the collected
// statistics, all from the same commit, so a query that resolves its
// tables here plans against indexes built over exactly those tables. A
// nil Catalog (or one with no stats) degrades every estimate to the
// constant model, so planning is deterministic whether or not `.analyze`
// has run.
type Catalog struct {
	Tables  map[string]*table.Table
	Stats   stats.Catalog
	Indexes []*TableIndex
}

// Table resolves a table name in the snapshot.
func (c *Catalog) Table(name string) (*table.Table, bool) {
	if c == nil {
		return nil, false
	}
	t, ok := c.Tables[name]
	return t, ok
}

// indexesOn lists the declared indexes over t, by table identity: a
// commit publishes a fresh *table.Table, and an index answers only for
// the table version it was built over. Scans that resolve their table
// in c.Tables always match.
func (c *Catalog) indexesOn(t *table.Table) []*TableIndex {
	if c == nil {
		return nil
	}
	var out []*TableIndex
	for _, ix := range c.Indexes {
		if ix.Table == t {
			out = append(out, ix)
		}
	}
	return out
}

// IndexAccess is a leaf node reading a table through an index instead
// of scanning it: a point lookup (Eq, hash or btree) or a btree range
// (Lo/Hi, nil = open, inclusive per flag). The output schema is the
// full table schema — residual predicates stay in a Select above. Est
// is the matching-row estimate frozen at plan time so EXPLAIN shows
// the number the choice was made on.
type IndexAccess struct {
	Idx            *TableIndex
	Eq             core.Value
	Lo, Hi         core.Value
	LoIncl, HiIncl bool
	Est            float64
}

// Schema implements Node.
func (a *IndexAccess) Schema() table.Schema { return a.Idx.Table.Schema() }

func (a *IndexAccess) String() string { return "indexscan(" + a.Desc() + ")" }

// Desc renders the access path: table.col, the bound shape, and the
// index kind (e.g. "events.id=42 hash" or "events.ts∈[10,20) btree").
func (a *IndexAccess) Desc() string {
	col := a.Idx.Table.Schema().Name + "." + a.Idx.Col
	var bound string
	switch {
	case a.Eq != nil:
		bound = fmt.Sprintf("%s=%v", col, a.Eq)
	default:
		lo, hi := "-∞", "+∞"
		lb, rb := "(", ")"
		if a.Lo != nil {
			lo = fmt.Sprint(a.Lo)
			if a.LoIncl {
				lb = "["
			}
		}
		if a.Hi != nil {
			hi = fmt.Sprint(a.Hi)
			if a.HiIncl {
				rb = "]"
			}
		}
		bound = fmt.Sprintf("%s∈%s%s,%s%s", col, lb, lo, hi, rb)
	}
	return bound + " " + a.Idx.Kind.String()
}

// chooseAccessPaths rewrites Select(Scan) leaves onto IndexAccess when
// a declared index covers some conjuncts and the cost model says the
// pruned random fetch beats the sequential scan. Unmatched conjuncts
// remain in a residual Select above the index leaf.
func chooseAccessPaths(n Node, cat *Catalog) Node {
	if x, ok := n.(*Select); ok {
		if scan, ok := x.Child.(*Scan); ok {
			if out, ok := indexAccessFor(scan, x.Pred, cat); ok {
				return out
			}
			return x
		}
	}
	return withChildren(n, func(k Node) Node { return chooseAccessPaths(k, cat) })
}

// accessCandidate is one way an index could answer some conjuncts.
type accessCandidate struct {
	node    *IndexAccess
	matched map[int]bool
	est     float64
}

// indexAccessFor tries to turn Select(scan, pred) into (residual-)
// Select over an IndexAccess. ok is false when no index wins.
func indexAccessFor(scan *Scan, pred Pred, cat *Catalog) (Node, bool) {
	idxs := cat.indexesOn(scan.Table)
	if len(idxs) == 0 {
		return nil, false
	}
	var conjuncts []Pred
	if a, ok := pred.(And); ok {
		conjuncts = a
	} else {
		conjuncts = []Pred{pred}
	}
	tableRows := cat.Estimate(scan)
	var best *accessCandidate
	for _, ix := range idxs {
		var c *accessCandidate
		if ix.Kind == HashIdx {
			c = hashCandidate(scan, ix, conjuncts, tableRows, cat)
		} else {
			c = btreeCandidate(scan, ix, conjuncts, tableRows, cat)
		}
		if c != nil && (best == nil || c.est < best.est) {
			best = c
		}
	}
	if best == nil || best.est*indexRowCost >= tableRows {
		return nil, false
	}
	var residual And
	for i, p := range conjuncts {
		if !best.matched[i] {
			residual = append(residual, p)
		}
	}
	var out Node = best.node
	if len(residual) > 0 {
		out = &Select{Child: out, Pred: simplify(residual)}
	}
	return out, true
}

// hashCandidate matches the first equality conjunct on the indexed
// column; the hash path answers nothing else.
func hashCandidate(scan *Scan, ix *TableIndex, conjuncts []Pred, rows float64, cat *Catalog) *accessCandidate {
	for i, p := range conjuncts {
		cmp, ok := p.(Cmp)
		if !ok || cmp.Col != ix.Col || cmp.Op != Eq {
			continue
		}
		est := rows * cat.selOf(scan, cmp)
		return &accessCandidate{
			node:    &IndexAccess{Idx: ix, Eq: cmp.Val, Est: est},
			matched: map[int]bool{i: true},
			est:     est,
		}
	}
	return nil
}

// btreeCandidate combines every range/equality conjunct on the indexed
// column into one btree probe. Bounds must be atoms — OrderKey only
// order-encodes atoms, so a set-valued bound would silently miss rows.
//
// The conjuncts bound one column, so they are anything but independent:
// with statistics the estimate is the histogram's for the combined
// interval, not the product of the one-sided estimates (which puts a
// narrow range around the median at a quarter of the table). Only the
// constant model, which knows no values, still multiplies.
func btreeCandidate(scan *Scan, ix *TableIndex, conjuncts []Pred, rows float64, cat *Catalog) *accessCandidate {
	acc := &IndexAccess{Idx: ix}
	matched := map[int]bool{}
	cs, measured := cat.columnStats(scan, ix.Col)
	sel := 1.0
	for i, p := range conjuncts {
		cmp, ok := p.(Cmp)
		if !ok || cmp.Col != ix.Col {
			continue
		}
		if cmp.Val.Kind() == core.KindSet {
			continue
		}
		switch cmp.Op {
		case Eq:
			// A point probe subsumes any range bounds: lo = hi = v.
			est := rows * cat.selOf(scan, cmp)
			return &accessCandidate{
				node: &IndexAccess{
					Idx: ix, Lo: cmp.Val, Hi: cmp.Val, LoIncl: true, HiIncl: true, Est: est,
				},
				matched: map[int]bool{i: true},
				est:     est,
			}
		case Gt, Ge:
			incl := cmp.Op == Ge
			if acc.Lo == nil || tighterLo(cmp.Val, incl, acc.Lo, acc.LoIncl) {
				acc.Lo, acc.LoIncl = cmp.Val, incl
			}
		case Lt, Le:
			incl := cmp.Op == Le
			if acc.Hi == nil || tighterHi(cmp.Val, incl, acc.Hi, acc.HiIncl) {
				acc.Hi, acc.HiIncl = cmp.Val, incl
			}
		default:
			continue
		}
		matched[i] = true
		if !measured {
			sel *= DefaultSelectivity(cmp)
		}
	}
	if len(matched) == 0 {
		return nil
	}
	if measured {
		// SelectivityRange is lo <= col < hi; move the end points that
		// the probe treats the other way.
		sel = cs.SelectivityRange(acc.Lo, acc.Hi)
		if acc.Lo != nil && !acc.LoIncl {
			sel -= cs.SelectivityEq(acc.Lo)
		}
		if acc.Hi != nil && acc.HiIncl {
			sel += cs.SelectivityEq(acc.Hi)
		}
		sel = clampSel(sel)
	}
	acc.Est = rows * sel
	return &accessCandidate{node: acc, matched: matched, est: acc.Est}
}

// tighterLo reports whether bound (v, incl) is more restrictive than
// the current lower bound (cur, curIncl): larger value, or exclusive at
// the same value.
func tighterLo(v core.Value, incl bool, cur core.Value, curIncl bool) bool {
	c := core.Compare(v, cur)
	return c > 0 || (c == 0 && curIncl && !incl)
}

// tighterHi is tighterLo mirrored: smaller value, or exclusive at the
// same value.
func tighterHi(v core.Value, incl bool, cur core.Value, curIncl bool) bool {
	c := core.Compare(v, cur)
	return c < 0 || (c == 0 && curIncl && !incl)
}

// OptimizeCatalog is the cost-based optimizer: rule rewrites, join
// ordering, build-side selection and access-path selection, every
// estimate from cat.Estimate. A nil catalog plans on the constant model
// and chooses no index.
func OptimizeCatalog(n Node, cat *Catalog) Node {
	n = Optimize(n)
	n = orderJoins(n, cat)
	n = ChooseJoinSides(n, cat)
	n = Optimize(n)
	return chooseAccessPaths(n, cat)
}
