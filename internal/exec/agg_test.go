package exec_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/table"
)

// groupAgg runs a GroupAgg over a scan of tbl.
func groupAgg(tbl *table.Table, keyCol int, aggs ...exec.Agg) ([]table.Row, error) {
	return exec.Collect(context.Background(), exec.NewGroupAgg(exec.NewScan(tbl, nil), keyCol, 0, aggs...))
}

func TestGroupAggCountSum(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 90) // cities rotate a,b,c; score = i%10
	rows, err := groupAgg(tbl, 1,
		exec.Agg{Kind: exec.AggCount},
		exec.Agg{Kind: exec.AggSum, Col: 2},
		exec.Agg{Kind: exec.AggMin, Col: 2},
		exec.Agg{Kind: exec.AggMax, Col: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if !core.Equal(r[1], core.Int(30)) {
			t.Fatalf("count = %v", r[1])
		}
		// Scores 0..9 appear 3× per city → sum 135.
		if !core.Equal(r[2], core.Int(135)) {
			t.Fatalf("sum = %v", r[2])
		}
		if !core.Equal(r[3], core.Int(0)) || !core.Equal(r[4], core.Int(9)) {
			t.Fatalf("min/max = %v/%v", r[3], r[4])
		}
	}
	// Keys sorted canonically.
	for i := 1; i < len(rows); i++ {
		if core.Compare(rows[i-1][0], rows[i][0]) >= 0 {
			t.Fatal("group keys unsorted")
		}
	}
}

func TestGroupAggCount(t *testing.T) {
	pool := newPool()
	tbl := makeUsers(t, pool, 99)
	rows, err := groupAgg(tbl, 1, exec.Agg{Kind: exec.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if !core.Equal(r[1], core.Int(33)) {
			t.Fatalf("group %v = %v", r[0], r[1])
		}
	}
}

// TestGroupAggSumFloatPromotion: a group's sum turns Float at its first
// float, and only that group's, whether the float arrives in the rows
// or in a partial state merged in, before or after other groups exist.
func TestGroupAggSumFloatPromotion(t *testing.T) {
	pool := newPool()
	tbl, _ := table.Create(pool, table.Schema{Name: "m", Cols: []string{"k", "v"}})
	in := []table.Row{
		{core.Str("a"), core.Int(1)}, {core.Str("b"), core.Int(2)},
		{core.Str("a"), core.Float(0.5)}, {core.Str("c"), core.Int(3)},
	}
	for _, r := range in {
		tbl.Insert(r)
	}
	want := []core.Value{core.Float(1.5), core.Int(2), core.Int(3)}
	check := func(how string, rows []table.Row, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			if !core.Equal(r[1], want[i]) {
				t.Fatalf("%s: group %v sums to %v, want %v", how, r[0], r[1], want[i])
			}
		}
	}
	rows, err := groupAgg(tbl, 0, exec.Agg{Kind: exec.AggSum, Col: 1})
	check("absorb", rows, err)
	sum := exec.Agg{Kind: exec.AggSum, Col: 1}
	first, second := exec.NewAggState(0, 0, sum), exec.NewAggState(0, 0, sum)
	if err := first.Absorb(table.BatchOf(in[:2], 2)); err != nil {
		t.Fatal(err)
	}
	if err := second.Absorb(table.BatchOf(in[2:], 2)); err != nil {
		t.Fatal(err)
	}
	if err := first.Merge(second); err != nil {
		t.Fatal(err)
	}
	rows, err = exec.AggRows(first)
	check("merge", rows, err)
}

func TestGroupAggSumNonNumeric(t *testing.T) {
	pool := newPool()
	tbl, _ := table.Create(pool, table.Schema{Name: "m", Cols: []string{"k", "v"}})
	tbl.Insert(table.Row{core.Str("a"), core.Str("nope")})
	if _, err := groupAgg(tbl, 0, exec.Agg{Kind: exec.AggSum, Col: 1}); err == nil {
		t.Fatal("sum over strings must fail")
	}
}

// sumCases are the integer-sum edge cases: exact past 2^53, a clean
// error when the total overflows int64 either way but none when only
// an intermediate total does, and float promotion unchanged. A nil
// want means the sum must fail.
var sumCases = []struct {
	name string
	in   []core.Value
	want core.Value
}{
	{"{2^53, 1}", []core.Value{core.Int(1 << 53), core.Int(1)}, core.Int(1<<53 + 1)},
	{"{2^53+1}", []core.Value{core.Int(1<<53 + 1)}, core.Int(1<<53 + 1)},
	{"overflow", []core.Value{core.Int(math.MaxInt64), core.Int(1)}, nil},
	{"negative overflow", []core.Value{core.Int(math.MinInt64), core.Int(-1)}, nil},
	{"overflow then back", []core.Value{core.Int(math.MaxInt64), core.Int(1), core.Int(-1)}, core.Int(math.MaxInt64)},
	{"negative overflow then back", []core.Value{core.Int(math.MinInt64), core.Int(-1), core.Int(1)}, core.Int(math.MinInt64)},
	{"overflow then float", []core.Value{core.Int(math.MaxInt64), core.Int(math.MaxInt64), core.Float(0)}, core.Float(0x1p64)},
	{"int then float", []core.Value{core.Int(1), core.Float(0.5)}, core.Float(1.5)},
	{"float then int", []core.Value{core.Float(0.5), core.Int(1)}, core.Float(1.5)},
}

// checkSum compares one group-by-k sum result against a sumCases want.
func checkSum(t *testing.T, how string, rows []table.Row, err error, want core.Value) {
	t.Helper()
	if want == nil {
		if err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Fatalf("%s: sum = %v (err %v), want an overflow error", how, rows, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", how, err)
	}
	if len(rows) != 1 || !core.Equal(rows[0][1], want) {
		t.Fatalf("%s: sum = %v, want %v", how, rows, want)
	}
}

// TestAggSumExactOverInts runs sumCases through one AggState, through
// states merged one row at a time, and through a ParallelGroupAgg with
// one worker scan per input value.
func TestAggSumExactOverInts(t *testing.T) {
	sum := exec.Agg{Kind: exec.AggSum, Col: 1}
	for _, tc := range sumCases {
		t.Run(tc.name, func(t *testing.T) {
			rows := make([]table.Row, len(tc.in))
			for i, v := range tc.in {
				rows[i] = table.Row{core.Str("k"), v}
			}

			result := func(st *exec.AggState, err error) ([]table.Row, error) {
				if err != nil {
					return nil, err
				}
				return exec.AggRows(st)
			}

			st := exec.NewAggState(0, 0, sum)
			got, err := result(st, st.Absorb(table.BatchOf(rows, 2)))
			checkSum(t, "absorb", got, err, tc.want)

			merged := exec.NewAggState(0, 0, sum)
			for _, r := range rows {
				part := exec.NewAggState(0, 0, sum)
				if err = part.Absorb(table.BatchOf([]table.Row{r}, 2)); err != nil {
					t.Fatal(err)
				}
				if err = merged.Merge(part); err != nil {
					break
				}
			}
			got, err = result(merged, err)
			checkSum(t, "merge", got, err, tc.want)

			pool := newPool()
			workers := make([]exec.Operator, len(rows))
			for i, r := range rows {
				tbl, err := table.Create(pool, table.Schema{Name: "m", Cols: []string{"k", "v"}})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tbl.Insert(r); err != nil {
					t.Fatal(err)
				}
				workers[i] = exec.NewScan(tbl, nil)
			}
			got, err = exec.Collect(context.Background(), exec.NewParallelGroupAgg(workers, nil, 0, 0, 0, sum))
			checkSum(t, "parallel", got, err, tc.want)
		})
	}
}

// TestGroupAggKeyPathsAgree groups a mix of atom, set and tuple keys
// that look alike through GroupAgg's one keyed table — with the full
// digest and with every key on one chain — and checks it against the
// keying that files atoms and encoded sets in two maps.
func TestGroupAggKeyPathsAgree(t *testing.T) {
	pool := newPool()
	tbl, err := table.Create(pool, table.Schema{Name: "mixed", Cols: []string{"k", "v"}})
	if err != nil {
		t.Fatal(err)
	}
	keys := []core.Value{
		core.Int(1), core.Str("a"), core.Bool(true), core.Float(2.5),
		core.S(core.Int(1)),     // set key: must not collide with Int(1)
		core.S(core.Str("a")),   // set key: must not collide with Str("a")
		core.Tuple(core.Int(1)), // tuple key
		core.Str("1"),           // string that looks like an int
	}
	var rows []table.Row
	for i := 0; i < 80; i++ {
		r := table.Row{keys[i%len(keys)], core.Int(i)}
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	want := refGroupAgg([][]table.Row{rows}, 0, 1)
	if len(want) != len(keys) {
		t.Fatalf("reference groups = %d, want %d", len(want), len(keys))
	}
	for name, mask := range map[string]uint64{"full digest": ^uint64(0), "one chain": 0} {
		t.Run(name, func(t *testing.T) {
			defer exec.SetDigestMask(mask)()
			got, err := groupAgg(tbl, 0,
				exec.Agg{Kind: exec.AggCount}, exec.Agg{Kind: exec.AggSum, Col: 1},
				exec.Agg{Kind: exec.AggMin, Col: 1}, exec.Agg{Kind: exec.AggMax, Col: 1})
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, got, want)
		})
	}
}

// BenchmarkGroupAggKeys groups 20 000 rows on an interned scalar key
// through AggState's keyed table; the allocs/op column shows a group
// costs a table entry, not a per-row key string.
//
//	go test -bench=GroupAggKeys -benchmem ./internal/exec/
func BenchmarkGroupAggKeys(b *testing.B) {
	pool := newPool()
	tbl := makeUsers(b, pool, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := groupAgg(tbl, 1, exec.Agg{Kind: exec.AggCount}, exec.Agg{Kind: exec.AggSum, Col: 2})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatalf("groups = %d", len(rows))
		}
	}
}

// TestReservedAggStateAllocs: an AggState reserved for n groups that
// meets n distinct keys, and a second one it is merged into, allocate
// the same number of times whatever n is — the keyed table, the key
// column and the aggregate arrays are each made once and never move.
func TestReservedAggStateAllocs(t *testing.T) {
	aggs := []exec.Agg{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: 1}}
	var want float64
	for i, n := range []int{1 << 8, 1 << 12, 1 << 16} {
		b := &table.Batch{Len: n, Cols: []table.Col{{Kind: table.ColInt}, {Kind: table.ColInt}}}
		for k := 0; k < n; k++ {
			b.Cols[0].Ints = append(b.Cols[0].Ints, int64(k*7919))
			b.Cols[1].Ints = append(b.Cols[1].Ints, int64(k))
		}
		got := testing.AllocsPerRun(3, func() {
			st, into := exec.NewAggState(0, n, aggs...), exec.NewAggState(0, n, aggs...)
			if err := st.Absorb(b); err != nil {
				t.Fatal(err)
			}
			if err := into.Merge(st); err != nil {
				t.Fatal(err)
			}
			if _, _, err := into.Result(); err != nil || into.Groups() != n {
				t.Fatalf("%d groups of %d, err %v", into.Groups(), n, err)
			}
		})
		if i == 0 {
			want = got
		}
		t.Logf("%d groups: %.0f allocations", n, got)
		if got != want {
			t.Errorf("%d groups: %.0f allocations, %.0f at %d groups", n, got, want, 1<<8)
		}
	}
}

// TestParallelGroupAggSizesShares: grouping n distinct keys at four
// workers reserves the full count only in the state the others merge
// into; each other worker reserves for its quarter of the rows, so the
// aggregate allocates well under twice what the serial one does, where
// four full reservations would take about four times.
func TestParallelGroupAggSizesShares(t *testing.T) {
	const n = 1 << 15
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{core.Int(i), core.Int(i)}
	}
	aggs := []exec.Agg{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: 1}}
	bytes := func(op func() exec.Operator) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if got, err := exec.Count(context.Background(), op()); err != nil || got != n {
			t.Fatalf("%d groups of %d, err %v", got, n, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	serial := bytes(func() exec.Operator { return exec.NewGroupAgg(&rowsOp{rows: rows}, 0, n, aggs...) })
	par := bytes(func() exec.Operator { return exec.NewParallelGroupAgg(split(rows, 4), nil, 0, n, n, aggs...) })
	t.Logf("serial %d B, four workers %d B", serial, par)
	if par > 2*serial {
		t.Errorf("four workers allocate %d B, over twice the serial %d B", par, serial)
	}
}

// TestGroupHintsAgree: the group count an aggregate is sized for
// changes no answer. Hints of none, one, the true count and ten times
// it (with input rows in proportion, so that the other workers' share
// runs from none to all of them) give the same rows, serially and at
// two and four workers, over
// int keys, string keys and keys whose kinds change between batches.
func TestGroupHintsAgree(t *testing.T) {
	const n, groups = 3000, 500
	aggs := []exec.Agg{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: 1}, {Kind: exec.AggMin, Col: 1}, {Kind: exec.AggMax, Col: 1}}
	for name, key := range map[string]func(i int) core.Value{
		"int": func(i int) core.Value { return core.Int(i % groups * 7919) },
		"str": func(i int) core.Value { return core.Str(fmt.Sprintf("key-%d", i%groups)) },
		"mixed": func(i int) core.Value {
			if i%3 == 0 {
				return collisionKeys[i%len(collisionKeys)]
			}
			return core.Int(i % groups)
		},
	} {
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = table.Row{key(i), core.Int(i)}
		}
		want, err := exec.Collect(context.Background(), exec.NewGroupAgg(&rowsOp{rows: rows}, 0, 0, aggs...))
		if err != nil {
			t.Fatal(err)
		}
		for _, hint := range []int{0, 1, groups, 10 * groups} {
			for _, dop := range []int{1, 2, 4} {
				var op exec.Operator = exec.NewGroupAgg(&rowsOp{rows: rows}, 0, hint, aggs...)
				if dop > 1 {
					op = exec.NewParallelGroupAgg(split(rows, dop), nil, 0, hint, hint*n/groups, aggs...)
				}
				got, err := exec.Collect(context.Background(), op)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s hint %d dop %d: %d groups, want %d", name, hint, dop, len(got), len(want))
				}
				for i := range got {
					if !core.Equal(got[i].Tuple(), want[i].Tuple()) {
						t.Fatalf("%s hint %d dop %d: row %d is %v, want %v", name, hint, dop, i, got[i], want[i])
					}
				}
			}
		}
	}
}
