package fed

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/plan"
	"xst/internal/table"
)

// fragment is one per-site unit of work: a subtree of the optimized
// plan decompiled back into query text so a site's own parser,
// optimizer and executor run it against the local partitions. The
// fields mirror the query grammar (from / join / where / group /
// select / limit); rendering is conservative — anything the grammar
// cannot express verbatim (unprintable literals, keyword-colliding
// column names) simply stays at the coordinator.
type fragment struct {
	table string
	meta  *TableMeta
	// joins are site-local join clauses (co-located or scratch-table
	// joins), applied in order after the base table.
	joins     []fragJoin
	joinMetas []*TableMeta
	// where holds rendered conjuncts; preds the structured forms (for
	// selectivity estimates and partition pruning).
	where []string
	preds []plan.Cmp
	// cols is the pushed projection (nil = whole schema), sch the
	// fragment's current output schema.
	cols []string
	sch  table.Schema
	// distinct, groupKey/aggs and limit are pushed unary operators;
	// groupKey turns the fragment into a per-site partial aggregation.
	distinct bool
	groupKey string
	aggs     []plan.AggSpec
	limit    int
}

type fragJoin struct {
	table    string
	leftCol  string
	rightCol string
}

func newFragment(name string, meta *TableMeta, sch table.Schema) *fragment {
	return &fragment{table: name, meta: meta, sch: sch, limit: -1}
}

// plain reports whether more operators may still be pushed beneath the
// fragment's pushed distinct/group/limit (which must stay outermost).
func (f *fragment) plain() bool {
	return !f.distinct && f.groupKey == "" && f.limit < 0
}

func (f *fragment) clone() *fragment {
	g := *f
	g.joins = append([]fragJoin(nil), f.joins...)
	g.joinMetas = append([]*TableMeta(nil), f.joinMetas...)
	g.where = append([]string(nil), f.where...)
	g.preds = append([]plan.Cmp(nil), f.preds...)
	g.cols = append([]string(nil), f.cols...)
	return &g
}

// render decompiles the fragment into query text for the site parser.
func (f *fragment) render() string {
	var b strings.Builder
	b.WriteString("from ")
	b.WriteString(f.table)
	for _, j := range f.joins {
		fmt.Fprintf(&b, " join %s on %s = %s", j.table, j.leftCol, j.rightCol)
	}
	if len(f.where) > 0 {
		b.WriteString(" where ")
		b.WriteString(strings.Join(f.where, " and "))
	}
	if f.groupKey != "" {
		b.WriteString(" group by ")
		b.WriteString(f.groupKey)
		for _, a := range f.aggs {
			b.WriteString(" ")
			b.WriteString(a.String())
		}
	}
	if f.cols != nil || f.distinct {
		cols := f.cols
		if cols == nil {
			cols = f.sch.Cols
		}
		b.WriteString(" select ")
		if f.distinct {
			b.WriteString("distinct ")
		}
		b.WriteString(strings.Join(cols, ", "))
	}
	if f.limit >= 0 {
		fmt.Fprintf(&b, " limit %d", f.limit)
	}
	return b.String()
}

// queryKeywords are identifiers the grammar consumes structurally;
// columns named after them cannot round-trip through rendered text.
var queryKeywords = map[string]bool{
	"from": true, "join": true, "on": true, "where": true, "and": true,
	"group": true, "by": true, "select": true, "distinct": true,
	"order": true, "asc": true, "desc": true, "limit": true,
	"count": true, "sum": true, "min": true, "max": true,
	"true": true, "false": true,
}

// renderableIdent reports whether a column name survives lexing intact.
func renderableIdent(s string) bool {
	if s == "" || queryKeywords[s] {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || unicode.IsLetter(r):
		case i > 0 && unicode.IsDigit(r):
		default:
			return false
		}
	}
	return true
}

func renderableIdents(cols []string) bool {
	for _, c := range cols {
		if !renderableIdent(c) {
			return false
		}
	}
	return true
}

// renderLit renders a literal in query syntax, refusing values the
// lexer cannot round-trip (strings with exotic control bytes, NaN/Inf).
func renderLit(v core.Value) (string, bool) {
	switch x := v.(type) {
	case core.Int:
		return strconv.FormatInt(int64(x), 10), true
	case core.Bool:
		if x {
			return "true", true
		}
		return "false", true
	case core.Float:
		s := strconv.FormatFloat(float64(x), 'f', -1, 64)
		neg := strings.HasPrefix(s, "-")
		body := strings.TrimPrefix(s, "-")
		if body == "" || body[0] < '0' || body[0] > '9' {
			return "", false // NaN, Inf
		}
		if !strings.Contains(body, ".") {
			body += ".0" // an undotted float would lex as an Int
		}
		if neg {
			body = "-" + body
		}
		return body, true
	case core.Str:
		var b strings.Builder
		b.WriteByte('"')
		for i := 0; i < len(x); i++ {
			c := x[i]
			switch c {
			case '"':
				b.WriteString(`\"`)
			case '\\':
				b.WriteString(`\\`)
			case '\n':
				b.WriteString(`\n`)
			case '\t':
				b.WriteString(`\t`)
			default:
				if c < 0x20 || c == 0x7f {
					return "", false // no escape for it in the lexer
				}
				b.WriteByte(c)
			}
		}
		b.WriteByte('"')
		return b.String(), true
	}
	return "", false
}

// renderCmp renders one comparison conjunct. plan.Cmp.String is for
// humans (it writes "!="); the grammar wants "<>".
func renderCmp(c plan.Cmp) (string, bool) {
	if !renderableIdent(c.Col) {
		return "", false
	}
	lit, ok := renderLit(c.Val)
	if !ok {
		return "", false
	}
	var op string
	switch c.Op {
	case plan.Eq:
		op = "="
	case plan.Ne:
		op = "<>"
	case plan.Lt:
		op = "<"
	case plan.Le:
		op = "<="
	case plan.Gt:
		op = ">"
	case plan.Ge:
		op = ">="
	default:
		return "", false
	}
	return c.Col + " " + op + " " + lit, true
}

// renderPred flattens a predicate into rendered conjuncts; ok is false
// when any part cannot round-trip through query text.
func renderPred(p plan.Pred) (texts []string, cmps []plan.Cmp, ok bool) {
	switch x := p.(type) {
	case plan.Cmp:
		t, ok := renderCmp(x)
		if !ok {
			return nil, nil, false
		}
		return []string{t}, []plan.Cmp{x}, true
	case plan.And:
		for _, q := range x {
			ts, cs, ok := renderPred(q)
			if !ok {
				return nil, nil, false
			}
			texts = append(texts, ts...)
			cmps = append(cmps, cs...)
		}
		return texts, cmps, true
	default:
		return nil, nil, false
	}
}

// renderableAggs reports whether a GroupBy's aggregates round-trip:
// renderable columns and pairwise-distinct output names also distinct
// from the key (duplicate names would make the coordinator's merge
// aggregation resolve the wrong column).
func renderableAggs(key string, aggs []plan.AggSpec) bool {
	seen := map[string]bool{key: true}
	for _, a := range aggs {
		if a.Kind != exec.AggCount && !renderableIdent(a.Col) {
			return false
		}
		name := a.String()
		if seen[name] {
			return false
		}
		seen[name] = true
	}
	return true
}

// selectivity estimates the surviving fraction of the fragment's base
// rows under its pushed predicates. Equality conjuncts use 1/distinct
// when the sites have been analyzed (`.analyze` publishes per-column
// distinct counts through __sys.stats); everything else falls back to
// plan.DefaultSelectivity, as plan does without statistics.
func (f *fragment) selectivity() float64 {
	s := 1.0
	for _, p := range f.preds {
		sel := plan.DefaultSelectivity(p)
		if p.Op == plan.Eq {
			if d := f.distinctOf(p.Col); d > 0 {
				sel = 1 / float64(d)
			}
		}
		s *= sel
	}
	return s
}

// distinctOf resolves a column's merged distinct count across the
// fragment's tables (0 = unknown).
func (f *fragment) distinctOf(col string) int {
	for _, m := range append([]*TableMeta{f.meta}, f.joinMetas...) {
		if m == nil {
			continue
		}
		if d, ok := m.Distinct[col]; ok {
			return d
		}
	}
	return 0
}

// estRows estimates the fragment's output cardinality across all sites.
func (f *fragment) estRows() float64 {
	rows := float64(f.meta.Rows())
	for _, jm := range f.joinMetas {
		if r := float64(jm.Rows()); r > rows {
			rows = r
		}
	}
	est := rows * f.selectivity()
	if f.groupKey != "" {
		// One row per key, guessed as an equality's selectivity, as plan
		// estimates a GroupBy without statistics.
		est *= plan.DefaultSelectivity(plan.Cmp{Col: f.groupKey, Op: plan.Eq})
	}
	if f.limit >= 0 && float64(f.limit) < est {
		est = float64(f.limit)
	}
	return est
}

// sites returns the pruned site list the fragment must visit: for each
// partitioned table it touches, equality and range conjuncts on the
// partition column narrow the candidate set, and the per-table sets
// intersect (a co-located join only matches where both sides hold
// rows). Unprunable fragments visit every site.
func (f *fragment) sites(c *Coordinator) []*site {
	cand := make([]bool, len(c.sites))
	for i := range cand {
		cand[i] = true
	}
	metas := append([]*TableMeta{f.meta}, f.joinMetas...)
	for _, m := range metas {
		if m == nil || m.Part == nil {
			continue
		}
		sub := pruneSites(m.Part, f.preds, len(c.sites))
		for i := range cand {
			cand[i] = cand[i] && sub[i]
		}
	}
	var out []*site
	for i, ok := range cand {
		if ok {
			out = append(out, c.sites[i])
		}
	}
	return out
}

// pruneSites marks which sites can hold rows of one partitioned table
// under the pushed conjuncts.
func pruneSites(part *PartSpec, preds []plan.Cmp, n int) []bool {
	cand := make([]bool, n)
	for i := range cand {
		cand[i] = true
	}
	for _, p := range preds {
		if p.Col != part.Col {
			continue
		}
		sub := make([]bool, n)
		switch part.Kind {
		case catalog.PartHash:
			if p.Op != plan.Eq {
				continue
			}
			sub[int(core.Digest(p.Val)%uint64(n))] = true
		case catalog.PartRange:
			for i := 0; i < n; i++ {
				sub[i] = rangeSiteMatches(part.Bounds, i, p)
			}
		default:
			continue
		}
		for i := range cand {
			cand[i] = cand[i] && sub[i]
		}
	}
	return cand
}

// rangeSiteMatches reports whether range-partition site i — owning
// bounds[i-1] <= v < bounds[i] — can hold rows satisfying p.
func rangeSiteMatches(bounds []core.Value, i int, p plan.Cmp) bool {
	// lo/hi are the site's half-open interval; nil = unbounded.
	var lo, hi core.Value
	if i > 0 {
		lo = bounds[i-1]
	}
	if i < len(bounds) {
		hi = bounds[i]
	}
	switch p.Op {
	case plan.Eq:
		return (lo == nil || core.Compare(p.Val, lo) >= 0) &&
			(hi == nil || core.Compare(p.Val, hi) < 0)
	case plan.Lt:
		return lo == nil || core.Compare(lo, p.Val) < 0
	case plan.Le:
		return lo == nil || core.Compare(lo, p.Val) <= 0
	case plan.Gt, plan.Ge:
		return hi == nil || core.Compare(p.Val, hi) < 0
	default:
		return true
	}
}

// RangeSite places one value under a range spec: the first site whose
// upper bound exceeds it.
func RangeSite(v core.Value, bounds []core.Value) int {
	return sort.Search(len(bounds), func(i int) bool {
		return core.Compare(v, bounds[i]) < 0
	})
}

// HashSite places one value under hash partitioning over n sites.
func HashSite(v core.Value, n int) int {
	return int(core.Digest(v) % uint64(n))
}
