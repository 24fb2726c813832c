package stats

import (
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
)

func statTable(t *testing.T, n int) *table.Table {
	t.Helper()
	pool := store.NewBufferPool(store.NewMemPager(), 64)
	tbl, err := table.Create(pool, table.Schema{Name: "t", Cols: []string{"id", "bucket", "label"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tbl.Insert(table.Row{
			core.Int(i),
			core.Int(i % 10),
			core.Str("label-" + string(rune('a'+i%3))),
		})
	}
	return tbl.Table()
}

func TestCollectBasics(t *testing.T) {
	ts, err := Collect(statTable(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 1000 {
		t.Fatalf("rows = %d", ts.Rows)
	}
	if ts.Columns[0].Distinct != 1000 {
		t.Fatalf("id distinct = %d", ts.Columns[0].Distinct)
	}
	if ts.Columns[1].Distinct != 10 {
		t.Fatalf("bucket distinct = %d", ts.Columns[1].Distinct)
	}
	if ts.Columns[2].Distinct != 3 {
		t.Fatalf("label distinct = %d", ts.Columns[2].Distinct)
	}
	if !core.Equal(ts.Columns[0].Min, core.Int(0)) || !core.Equal(ts.Columns[0].Max, core.Int(999)) {
		t.Fatalf("min/max = %v/%v", ts.Columns[0].Min, ts.Columns[0].Max)
	}
}

func TestSelectivityEq(t *testing.T) {
	ts, _ := Collect(statTable(t, 1000))
	c := ts.Columns[1] // 10 distinct buckets
	if got := c.SelectivityEq(core.Int(3)); got != 0.1 {
		t.Fatalf("eq selectivity = %v", got)
	}
	// Out of range → 0.
	if got := c.SelectivityEq(core.Int(99)); got != 0 {
		t.Fatalf("out-of-range selectivity = %v", got)
	}
}

func TestSelectivityLess(t *testing.T) {
	ts, _ := Collect(statTable(t, 1000))
	c := ts.Columns[0] // uniform ids 0..999
	cases := []struct {
		v  int
		lo float64
		hi float64
	}{
		{0, 0, 0},
		{500, 0.4, 0.6},
		{1000, 0.9, 1.0},
	}
	for _, tc := range cases {
		got := c.SelectivityLess(core.Int(tc.v))
		if got < tc.lo || got > tc.hi {
			t.Fatalf("P(id < %d) = %v, want in [%v, %v]", tc.v, got, tc.lo, tc.hi)
		}
	}
	// Range selectivity ~ 0.25 for a quarter of the domain.
	r := c.SelectivityRange(core.Int(250), core.Int(500))
	if r < 0.15 || r > 0.35 {
		t.Fatalf("range selectivity = %v", r)
	}
	if c.SelectivityRange(core.Int(500), core.Int(250)) != 0 {
		t.Fatal("inverted range must be 0")
	}
}

func TestEmptyTableStats(t *testing.T) {
	pool := store.NewBufferPool(store.NewMemPager(), 8)
	tbl, _ := table.Create(pool, table.Schema{Name: "e", Cols: []string{"x"}})
	ts, err := Collect(tbl.Table())
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 0 {
		t.Fatal("rows must be 0")
	}
	c := ts.Columns[0]
	if c.SelectivityEq(core.Int(1)) != 0 || c.SelectivityLess(core.Int(1)) != 0 {
		t.Fatal("empty selectivities must be 0")
	}
}

func TestCollectAll(t *testing.T) {
	a := statTable(t, 10)
	cat, err := CollectAll(a)
	if err != nil {
		t.Fatal(err)
	}
	if cat["t"] == nil || cat["t"].Rows != 10 {
		t.Fatal("catalog wrong")
	}
}

// TestSelectivityBoundaries is the table-driven regression suite for
// the [0,1] clamp, inverted-range, open-bound, and out-of-histogram
// behavior of SelectivityLess/SelectivityRange.
func TestSelectivityBoundaries(t *testing.T) {
	ts, err := Collect(statTable(t, 1000)) // ids uniform 0..999
	if err != nil {
		t.Fatal(err)
	}
	c := ts.Columns[0]
	empty := ColumnStats{}
	cases := []struct {
		name   string
		col    ColumnStats
		lo, hi core.Value
		min    float64
		max    float64
	}{
		{"inverted", c, core.Int(900), core.Int(100), 0, 0},
		{"inverted at bounds", c, core.Int(999), core.Int(0), 0, 0},
		{"below min", c, core.Int(-100), core.Int(-1), 0, 0},
		{"above max", c, core.Int(2000), core.Int(3000), 0, 0},
		{"spanning all", c, core.Int(-100), core.Int(5000), 1, 1},
		{"open low", c, nil, core.Int(500), 0.4, 0.6},
		{"open high", c, core.Int(500), nil, 0.4, 0.6},
		{"open both", c, nil, nil, 1, 1},
		{"degenerate lo=hi", c, core.Int(500), core.Int(500), 0, 0.1},
		{"empty column", empty, core.Int(0), core.Int(10), 0, 0},
		{"empty open", empty, nil, nil, 0, 0},
	}
	for _, tc := range cases {
		got := tc.col.SelectivityRange(tc.lo, tc.hi)
		if got < tc.min || got > tc.max {
			t.Errorf("%s: SelectivityRange = %v, want in [%v, %v]", tc.name, got, tc.min, tc.max)
		}
		if got < 0 || got > 1 {
			t.Errorf("%s: SelectivityRange = %v escapes [0, 1]", tc.name, got)
		}
	}
	lessCases := []struct {
		name string
		v    core.Value
		min  float64
		max  float64
	}{
		{"below min", core.Int(-5), 0, 0},
		{"at min", core.Int(0), 0, 0},
		{"above max", core.Int(5000), 1, 1},
		{"nil is open", nil, 1, 1},
		{"midpoint", core.Int(500), 0.4, 0.6},
	}
	for _, tc := range lessCases {
		got := c.SelectivityLess(tc.v)
		if got < tc.min || got > tc.max {
			t.Errorf("%s: SelectivityLess = %v, want in [%v, %v]", tc.name, got, tc.min, tc.max)
		}
	}
}

func TestStatsCodecRoundTrip(t *testing.T) {
	ts, err := Collect(statTable(t, 500))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTableStats(ts.Value())
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != ts.Rows || len(got.Columns) != len(ts.Columns) {
		t.Fatalf("round trip shape: rows %d→%d cols %d→%d",
			ts.Rows, got.Rows, len(ts.Columns), len(got.Columns))
	}
	for i := range ts.Columns {
		a, b := ts.Columns[i], got.Columns[i]
		if a.Distinct != b.Distinct || a.rows != b.rows {
			t.Fatalf("col %d counts: %+v vs %+v", i, a, b)
		}
		if !core.Equal(a.Min, b.Min) || !core.Equal(a.Max, b.Max) {
			t.Fatalf("col %d min/max drift", i)
		}
		if len(a.bounds) != len(b.bounds) {
			t.Fatalf("col %d bounds %d vs %d", i, len(a.bounds), len(b.bounds))
		}
		for j := range a.bounds {
			if !core.Equal(a.bounds[j], b.bounds[j]) {
				t.Fatalf("col %d bound %d drift", i, j)
			}
		}
		// Decoded stats answer the same questions.
		if x, y := a.SelectivityEq(core.Int(3)), b.SelectivityEq(core.Int(3)); x != y {
			t.Fatalf("col %d eq selectivity %v vs %v", i, x, y)
		}
		if x, y := a.SelectivityLess(core.Int(200)), b.SelectivityLess(core.Int(200)); x != y {
			t.Fatalf("col %d less selectivity %v vs %v", i, x, y)
		}
	}
	// Empty tables survive the short column form.
	pool := store.NewBufferPool(store.NewMemPager(), 8)
	tbl, _ := table.Create(pool, table.Schema{Name: "e", Cols: []string{"x", "y"}})
	ets, err := Collect(tbl.Table())
	if err != nil {
		t.Fatal(err)
	}
	eg, err := DecodeTableStats(ets.Value())
	if err != nil {
		t.Fatal(err)
	}
	if eg.Rows != 0 || len(eg.Columns) != 2 || eg.Columns[0].Min != nil {
		t.Fatalf("empty round trip: %+v", eg)
	}
	// Corrupt values are rejected, not mis-decoded.
	if _, err := DecodeTableStats(core.Int(7)); err == nil {
		t.Fatal("want error for non-tuple stats value")
	}
	if _, err := DecodeTableStats(core.Tuple(core.Str("x"), core.Tuple())); err == nil {
		t.Fatal("want error for bad row count")
	}
}

func TestSmallTableHistogram(t *testing.T) {
	// Fewer rows than buckets must not panic or misbehave.
	ts, err := Collect(statTable(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	c := ts.Columns[0]
	if got := c.SelectivityLess(core.Int(2)); got <= 0 || got > 1 {
		t.Fatalf("small-table selectivity = %v", got)
	}
}
