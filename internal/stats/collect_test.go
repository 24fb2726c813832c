package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
)

// Collect against the row-at-a-time oracle (reference_test.go).

// colKind is what one random column holds.
type colKind int

const (
	kindInts colKind = iota
	kindStrs
	kindFloats // includes +0, −0 and ±Inf (the row codec refuses NaN)
	kindSets   // nested sets and tuples
	kindMixed  // any of the above in one column
	numKinds
)

// negNaN is a NaN whose bits differ from math.NaN()'s.
var negNaN = math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)

func randValue(r *rand.Rand, k colKind) core.Value {
	switch k {
	case kindInts:
		return core.Int(r.Intn(40) - 20)
	case kindStrs:
		return core.Str(fmt.Sprintf("s%02d", r.Intn(30)))
	case kindFloats:
		switch r.Intn(6) {
		case 0:
			return core.Float(0)
		case 1:
			return core.Float(math.Copysign(0, -1))
		case 2:
			return core.Float(math.Inf(1 - 2*r.Intn(2)))
		default:
			return core.Float(float64(r.Intn(20)-10) / 4)
		}
	case kindSets:
		if r.Intn(3) == 0 {
			return core.Tuple(core.Int(r.Intn(4)), core.Str(fmt.Sprint(r.Intn(3))))
		}
		b := core.NewBuilder(3)
		for i := r.Intn(4); i > 0; i-- {
			b.AddClassical(core.Int(r.Intn(5)))
		}
		if r.Intn(2) == 0 {
			b.AddClassical(core.S(core.Int(r.Intn(3))))
		}
		return b.Set()
	default:
		return randValue(r, colKind(r.Intn(int(kindMixed))))
	}
}

// randTable builds a table of rows random columns; rows is 0, 1 or up to
// a few pages' worth.
func randTable(t testing.TB, r *rand.Rand, rows int) (*table.Table, []colKind) {
	t.Helper()
	kinds := make([]colKind, 1+r.Intn(4))
	cols := make([]string, len(kinds))
	for i := range kinds {
		kinds[i] = colKind(r.Intn(int(numKinds)))
		cols[i] = fmt.Sprintf("c%d", i)
	}
	tbl, err := table.Create(store.NewBufferPool(store.NewMemPager(), 16), table.Schema{Name: "r", Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		row := make(table.Row, len(kinds))
		for c, k := range kinds {
			row[c] = randValue(r, k)
		}
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl.Table(), kinds
}

func sameValue(a, b core.Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return core.Compare(a, b) == 0
}

// columnValues reads column c back in scan order.
func columnValues(t *testing.T, tbl *table.Table, c int) []core.Value {
	t.Helper()
	var out []core.Value
	if err := tbl.Scan(func(_ store.RID, r table.Row) (bool, error) {
		out = append(out, r[c])
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCollectMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		rows := r.Intn(700)
		switch trial % 10 {
		case 0:
			rows = 0
		case 1:
			rows = 1
		}
		tbl, kinds := randTable(t, r, rows)
		got, err := Collect(tbl)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refCollect(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != want.Rows || len(got.Columns) != len(want.Columns) {
			t.Fatalf("trial %d: rows %d/%d columns %d/%d", trial, got.Rows, want.Rows, len(got.Columns), len(want.Columns))
		}
		for c, g := range got.Columns {
			w := want.Columns[c]
			ctx := fmt.Sprintf("trial %d (%d rows) column %d (kind %d)", trial, rows, c, kinds[c])
			if g.Rows() != w.Rows() || !sameValue(g.Min, w.Min) || !sameValue(g.Max, w.Max) {
				t.Fatalf("%s: rows/min/max %d %v %v, reference %d %v %v", ctx, g.Rows(), g.Min, g.Max, w.Rows(), w.Min, w.Max)
			}
			if len(g.Bounds()) != len(w.Bounds()) {
				t.Fatalf("%s: %d bounds, reference %d", ctx, len(g.Bounds()), len(w.Bounds()))
			}
			for i := range g.Bounds() {
				if !sameValue(g.Bounds()[i], w.Bounds()[i]) {
					t.Fatalf("%s: bound %d = %v, reference %v", ctx, i, g.Bounds()[i], w.Bounds()[i])
				}
			}
			// Distinct is the card of the column's value set — what the
			// algebra sees — and the reference's count of encodings.
			vals := columnValues(t, tbl, c)
			if n := core.Card(core.S(vals...)); g.Distinct != n || g.Distinct != w.Distinct {
				t.Fatalf("%s: distinct %d, reference %d, the column's set has %d elements", ctx, g.Distinct, w.Distinct, n)
			}
		}
	}
}

// TestDistinctFollowsCompare pins which distinct count is intended:
// runs of core.Compare-equal values, i.e. the card of the column's value
// set. On every storable value that is also the reference's count of
// encoding keys, because the codec writes +0 and −0 alike. They differ
// only on NaN, which is not a value (the row codec refuses it):
// core.Compare orders every NaN first and equal, so a column of them
// counts once, while their encodings keep the raw bits apart.
func TestDistinctFollowsCompare(t *testing.T) {
	tbl, err := table.Create(store.NewBufferPool(store.NewMemPager(), 8), table.Schema{Name: "f", Cols: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, 1.5, math.Inf(1)} {
		if _, err := tbl.Insert(table.Row{core.Float(f)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Collect(tbl.Table())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refCollect(tbl.Table())
	if err != nil {
		t.Fatal(err)
	}
	if g, r := got.Columns[0].Distinct, ref.Columns[0].Distinct; g != 3 || r != 3 {
		t.Fatalf("distinct = %d, reference %d, want 3 (±0, 1.5, +Inf)", g, r)
	}

	nans := []core.Value{core.Float(2), core.Float(math.NaN()), core.Float(0), core.Float(negNaN), core.Float(math.Copysign(0, -1))}
	keys := map[string]bool{}
	for _, v := range nans {
		keys[core.Key(v)] = true
	}
	col := buildColumn(nans)
	if col.Distinct != 3 || len(keys) != 4 || col.Rows() != 5 {
		t.Fatalf("NaN column: distinct %d (%d keys) rows %d, want 3 (NaN, ±0, 2), 4 and 5", col.Distinct, len(keys), col.Rows())
	}
	if !math.IsNaN(float64(col.Min.(core.Float))) || col.Max != core.Float(2) {
		t.Fatalf("NaN column: min/max = %v/%v, want NaN/2 (NaN orders first)", col.Min, col.Max)
	}
}

func BenchmarkCollect(b *testing.B) {
	pool := store.NewBufferPool(store.NewMemPager(), 1024)
	tbl, err := table.Create(pool, table.Schema{Name: "users", Cols: []string{"id", "city", "score"}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		row := table.Row{core.Int(i), core.Str(fmt.Sprintf("city-%03d", i%100)), core.Int(i * 7 % 1000)}
		if _, err := tbl.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Collect(tbl.Table()); err != nil {
			b.Fatal(err)
		}
	}
}
