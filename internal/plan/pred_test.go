package plan

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/index"
	"xst/internal/store"
	"xst/internal/table"
)

// Eval tests a boxed row under a resolved schema, looking the column up
// by name: the row-at-a-time definition of a comparison that the
// compiled filter (Cmp.filter) is tested against. An unknown column is
// false.
func (c Cmp) Eval(sch table.Schema, r table.Row) bool {
	i := sch.Col(c.Col)
	if i < 0 || int(c.Op) >= len(passes) {
		return false
	}
	cmp := core.Compare(r[i], c.Val)
	switch c.Op {
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// Eval is the conjunction of the conjuncts' Evals.
func (a And) Eval(sch table.Schema, r table.Row) bool {
	for _, p := range a {
		if !eval(p, sch, r) {
			return false
		}
	}
	return true
}

// eval is the oracle Eval of any predicate.
func eval(p Pred, sch table.Schema, r table.Row) bool {
	return p.(interface {
		Eval(table.Schema, table.Row) bool
	}).Eval(sch, r)
}

// evalFilter lifts the oracle to an exec.Filter that boxes every
// candidate row: the materialized executor's restriction, which shares
// nothing with the compiled filters.
func evalFilter(p Pred, sch table.Schema) exec.Filter {
	return func(b *table.Batch, sel []int32) []int32 {
		k := 0
		row := make(table.Row, len(b.Cols))
		for _, i := range sel {
			for c := range b.Cols {
				row[c] = b.Cols[c].Value(int(i))
			}
			if eval(p, sch, row) {
				sel[k], k = i, k+1
			}
		}
		return sel[:k]
	}
}

// crossKindTable stores n rows (id, v, a). v runs through blocks of
// ints, of strings and of every kind mixed — bools, ints, floats with
// ±0.0, strings and sets — so its pages hold unboxed int columns,
// unboxed string columns and boxed mixed ones, and some pages change
// kind part-way. a is v with each set replaced by an atom, the column a
// btree can order.
func crossKindTable(t testing.TB, n int) *table.Table {
	t.Helper()
	pool := store.NewBufferPool(store.NewMemPager(), 256)
	tbl, err := table.Create(pool, table.Schema{Name: "mixed", Cols: []string{"id", "v", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	mixed := []core.Value{
		core.Bool(false), core.Bool(true), core.Int(-3), core.Int(5), core.Int(300),
		core.Float(-2.5), core.Float(0), core.Float(negZero), core.Float(10.5), core.Float(11),
		core.Str(""), core.Str("m"), core.Str("zz"), core.S(core.Int(1)), core.Tuple(core.Str("m")),
	}
	for i := 0; i < n; i++ {
		var v core.Value
		switch block := i / 1000 % 3; block {
		case 0:
			v = core.Int(i%23 - 8)
		case 1:
			v = core.Str(string(rune('a' + i%26)))
		default:
			v = mixed[i%len(mixed)]
		}
		a := v
		if v.Kind() == core.KindSet {
			a = core.Int(int64(i % 11))
		}
		if _, err := tbl.Insert(table.Row{core.Int(int64(i)), v, a}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl.Table()
}

var negZero = math.Copysign(0, -1)

// TestCompiledPredicatesMatchEvalAcrossKinds pins the cross-kind
// comparison rule — values of different kinds order by kind rank before
// value, so amount < 10.5 holds for every Int — on every path a
// predicate can take: the compiled filter over unboxed and boxed
// columns, the row-at-a-time Cmp.Eval oracle, a hash index probe (for
// =) and a btree range (for =, <, <=, >, >=). Each literal kind is
// tried, ±0.0 among them, with each CmpOp.
func TestCompiledPredicatesMatchEvalAcrossKinds(t *testing.T) {
	tbl := crossKindTable(t, 3600)
	ctx := context.Background()
	var rows []table.Row
	if err := tbl.Scan(func(_ store.RID, r table.Row) (bool, error) {
		rows = append(rows, r)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	var kinds [4]bool // a page of unboxed ints, of unboxed strings, of boxed values
	ids, _ := tbl.PageIDs()
	for _, id := range ids {
		b, err := tbl.ReadPage(id, new(table.PageBatch), nil)
		if err != nil {
			t.Fatal(err)
		}
		kinds[b.Cols[1].Kind] = true
	}
	if !kinds[table.ColInt] || !kinds[table.ColStr] || !kinds[table.ColAny] {
		t.Fatalf("the table's pages hold column kinds %v, want ints, strings and boxed values", kinds)
	}
	hash, err := index.BuildHash(ctx, tbl, 1)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := index.BuildBTree(ctx, tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids2 := func(rs []table.Row) string {
		out := make([]int, len(rs))
		for i, r := range rs {
			out[i] = int(r[0].(core.Int))
		}
		slices.Sort(out)
		return fmt.Sprint(out)
	}
	lits := []core.Value{
		core.Bool(false), core.Bool(true), core.Int(-3), core.Int(5), core.Int(300), core.Int(0),
		core.Float(0), core.Float(negZero), core.Float(10.5), core.Float(-2.5),
		core.Str(""), core.Str("m"), core.Str("k"), core.S(core.Int(1)), core.Tuple(core.Str("m")),
	}
	sch := tbl.Schema()
	for _, col := range []string{"v", "a"} {
		for _, lit := range lits {
			for op := Eq; op <= Ge; op++ {
				p := Cmp{Col: col, Op: op, Val: lit}
				var want []table.Row
				for _, r := range rows {
					if p.Eval(sch, r) {
						want = append(want, r)
					}
				}
				got, err := exec.Collect(ctx, exec.NewStage(&exec.Restrict{Filter: CompilePred(p, sch), Name: p.String()}, exec.NewScan(tbl, nil)))
				if err != nil {
					t.Fatal(err)
				}
				if ids2(got) != ids2(want) {
					t.Fatalf("%v: compiled filter keeps %d rows, Cmp.Eval %d", p, len(got), len(want))
				}
				var idx exec.Operator
				switch {
				case col == "v" && op == Eq:
					idx = exec.NewHashIndexScan(tbl, hash, lit, p, nil)
				case col == "a" && op != Ne && lit.Kind() != core.KindSet:
					var lo, hi core.Value
					loIncl, hiIncl := op == Eq || op == Ge, op == Eq || op == Le
					if op == Eq || op == Gt || op == Ge {
						lo = lit
					}
					if op == Eq || op == Lt || op == Le {
						hi = lit
					}
					idx = exec.NewBTreeIndexScan(tbl, bt, lo, hi, loIncl, hiIncl, p, nil)
				default:
					continue
				}
				got, err = exec.Collect(ctx, idx)
				if err != nil {
					t.Fatal(err)
				}
				if ids2(got) != ids2(want) {
					t.Fatalf("%v: index path finds %d rows, Cmp.Eval %d", p, len(got), len(want))
				}
			}
		}
	}
	// The LANGUAGE.md example: every Int is below every Float.
	lt := Cmp{Col: "v", Op: Lt, Val: core.Float(10.5)}
	n, err := exec.Count(ctx, exec.NewStage(&exec.Restrict{Filter: CompilePred(lt, sch)}, exec.NewScan(tbl, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ints, below := 0, 0
	for _, r := range rows {
		switch v := r[1].(type) {
		case core.Int, core.Bool:
			ints++
		case core.Float:
			if v < 10.5 {
				below++
			}
		}
	}
	if n != ints+below {
		t.Fatalf("v < 10.5 keeps %d rows, want every bool and int (%d) and the floats below 10.5 (%d)", n, ints, below)
	}
}
