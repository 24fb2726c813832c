package exec_test

import (
	"context"
	"fmt"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/store"
	"xst/internal/table"
)

// rowsOp streams fixed rows in batches of two, in boxed columns: a leaf
// that, unlike a table scan, keeps a -0.0 key as it is (the row codec
// normalizes it) and never holds a key unboxed.
type rowsOp struct {
	rows []table.Row
	pos  int
	open bool
}

func (o *rowsOp) Open(ctx context.Context) error { o.pos, o.open = 0, true; return ctx.Err() }
func (o *rowsOp) Next() (*table.Batch, error) {
	if !o.open {
		return nil, fmt.Errorf("rowsOp: Next before Open")
	}
	if o.pos == len(o.rows) {
		return nil, nil
	}
	n := min(2, len(o.rows)-o.pos)
	o.pos += n
	return table.BatchOf(o.rows[o.pos-n:o.pos], 2), nil
}
func (o *rowsOp) Close() error { o.open = false; return nil }
func (o *rowsOp) OutSchema() table.Schema {
	return table.Schema{Name: "keys", Cols: []string{"k", "v"}}
}
func (o *rowsOp) Stats() exec.OpStats       { return exec.OpStats{} }
func (o *rowsOp) Children() []exec.Operator { return nil }
func (o *rowsOp) String() string            { return "rows" }

// collisionKeys are keys that must stay apart though an atom and a set
// (Int(1), S(Int(1)), Tuple(Int(1))), or a string and an encoding, may
// look alike — and +0.0/-0.0, which must group and join as one key.
var collisionKeys = []core.Value{
	core.Int(1), core.Str("1"), core.Str("a"), core.S(core.Int(1)), core.S(core.Str("a")),
	core.Tuple(core.Int(1)), core.Bool(true), core.Float(2.5), core.Float(0), core.Float(negZero()),
}

func negZero() float64 { z := 0.0; return -z }

// keyRows is n rows (collisionKeys[i%len], Int(i+base)).
func keyRows(n, base int) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{collisionKeys[i%len(collisionKeys)], core.Int(i + base)}
	}
	return rows
}

// split deals rows round-robin into n row sources.
func split(rows []table.Row, n int) []exec.Operator {
	parts := make([]exec.Operator, n)
	for i := range parts {
		var own []table.Row
		for j := i; j < len(rows); j += n {
			own = append(own, rows[j])
		}
		parts[i] = &rowsOp{rows: own}
	}
	return parts
}

// TestKeyedTablesUnderCollisions narrows the key digest to a few bits,
// then to none, so that unequal keys share digests in every keyed
// table: each operator must still answer what the two-map keying it
// replaced answers (reference_test.go), as a multiset — over boxed keys
// of every kind, and over int and string keys read unboxed from a scan
// against the same keys boxed, probe against build and the reverse.
func TestKeyedTablesUnderCollisions(t *testing.T) {
	probe, build := keyRows(60, 0), keyRows(20, 100)
	var parts [][]table.Row
	for _, op := range split(probe, 3) {
		parts = append(parts, op.(*rowsOp).rows)
	}
	aggs := []exec.Agg{{Kind: exec.AggCount}, {Kind: exec.AggSum, Col: 1}, {Kind: exec.AggMin, Col: 1}, {Kind: exec.AggMax, Col: 1}}
	wantGroups := refGroupAgg(parts, 0, 1)
	keys := make([]table.Row, len(probe))
	for i, r := range probe {
		keys[i] = r[:1]
	}
	wantDistinct := refDistinct(keys)
	if len(wantGroups) != len(collisionKeys)-1 || len(wantDistinct) != len(collisionKeys)-1 {
		t.Fatalf("oracle: %d groups, %d distinct keys, want %d", len(wantGroups), len(wantDistinct), len(collisionKeys)-1)
	}
	for name, mask := range map[string]uint64{"no bits": 0, "low 2 bits": 3, "top 3 bits": 7 << 61} {
		t.Run(name, func(t *testing.T) {
			defer exec.SetDigestMask(mask)()
			check := func(what string, op exec.Operator, want []table.Row) {
				t.Helper()
				got, err := exec.Collect(context.Background(), op)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				t.Run(what, func(t *testing.T) { sameRows(t, got, want) })
			}
			check("hashjoin", exec.NewHashJoin(&rowsOp{rows: probe}, &rowsOp{rows: build}, 0, 0),
				refHashJoin(probe, build, 0, 0, 1))
			for _, n := range []int{2, 3} {
				hb := exec.NewHashBuild(split(build, n), 0)
				pw := split(probe, n)
				for i := range pw {
					pw[i] = exec.NewProbeJoin(pw[i], hb, 0)
				}
				check(fmt.Sprintf("hashbuild x%d", n), exec.NewGather(pw, hb), refHashJoin(probe, build, 0, 0, n))
			}
			check("groupagg", exec.NewGroupAgg(&rowsOp{rows: probe}, 0, 0, aggs...), wantGroups)
			check("parallelgroupagg", exec.NewParallelGroupAgg(split(probe, 3), nil, 0, 0, 0, aggs...), wantGroups)
			check("distinct", exec.NewStages(&rowsOp{rows: probe}, &exec.Project{Cols: []int{0}}, &exec.Distinct{}), wantDistinct)

			// Typed keys: a scan holds an all-int or all-string key column
			// unboxed, rowsOp holds the same keys boxed. Each keyed table
			// must file and confirm a key the same way from either column.
			for _, kind := range typedKeyKinds {
				probe, build := typedRows(60, 0, kind.key), typedRows(20, 100, kind.key)
				ptab, btab := storedRows(t, probe), storedRows(t, build)
				wantJoin := refHashJoin(probe, build, 0, 0, 1)
				check(kind.name+"/hashjoin unboxed probe", exec.NewHashJoin(exec.NewScan(ptab, nil), &rowsOp{rows: build}, 0, 0), wantJoin)
				check(kind.name+"/hashjoin unboxed build", exec.NewHashJoin(&rowsOp{rows: probe}, exec.NewScan(btab, nil), 0, 0), wantJoin)
				for _, unboxedBuild := range []bool{false, true} {
					builders, probes := split(build, 2), morselScans(ptab, 2)
					if unboxedBuild {
						builders, probes = morselScans(btab, 2), split(probe, 2)
					}
					hb := exec.NewHashBuild(builders, 0)
					for i := range probes {
						probes[i] = exec.NewProbeJoin(probes[i], hb, 0)
					}
					check(fmt.Sprintf("%s/hashbuild unboxed build=%v", kind.name, unboxedBuild), exec.NewGather(probes, hb), wantJoin)
				}
				both := func() []exec.Operator { return []exec.Operator{exec.NewScan(ptab, nil), &rowsOp{rows: probe}} }
				check(kind.name+"/parallelgroupagg", exec.NewParallelGroupAgg(both(), nil, 0, 0, 0, aggs...), refGroupAgg([][]table.Row{probe, probe}, 0, 1))
				keys := make([]table.Row, len(probe))
				for i, r := range probe {
					keys[i] = r[:1]
				}
				check(kind.name+"/distinct", exec.NewStages(exec.NewGather(both()), &exec.Project{Cols: []int{0}}, &exec.Distinct{}), refDistinct(keys))
			}
		})
	}
}

// typedKeyKinds are key columns of one kind each, which a scan holds
// unboxed: ints that box and strings.
var typedKeyKinds = []struct {
	name string
	key  func(i int) core.Value
}{
	{"int", func(i int) core.Value { return core.Int(int64(i%9) * 1000) }},
	{"str", func(i int) core.Value { return core.Str(fmt.Sprintf("key-%d", i%9)) }},
}

// typedRows is n rows (key(i), Int(i+base)).
func typedRows(n, base int, key func(int) core.Value) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{key(i), core.Int(int64(i + base))}
	}
	return rows
}

// storedRows writes rows to a table of their own.
func storedRows(t *testing.T, rows []table.Row) *table.Table {
	t.Helper()
	tbl, err := table.Create(newPool(), table.Schema{Name: "keys", Cols: []string{"k", "v"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// morselScans is n scan workers sharing tbl's pages.
func morselScans(tbl *table.Table, n int) []exec.Operator {
	src := tbl.NewMorselSource()
	ws := make([]exec.Operator, n)
	for i := range ws {
		ws[i] = exec.NewMorselScan(src, nil)
	}
	return ws
}

// joinTables is the 4 000-user build and 40 000-order probe of the
// allocation budget and BenchmarkHashJoinBuild, in a pool that holds
// both, so a scan's allocations do not depend on eviction.
func joinTables(t testing.TB) (users, orders *table.Table) {
	pool := store.NewBufferPool(store.NewMemPager(), 4096)
	return makeUsers(t, pool, 4000), makeOrders(t, pool, 40000, 4000)
}

// TestKeyedBuildAllocs holds the keyed tables to a budget that does not
// grow with the keys: a join's build side and Distinct's seen-set cost a
// few geometric slabs and table resizes, not an object per key or row.
// The trees are drained by Count, which boxes no result row.
func TestKeyedBuildAllocs(t *testing.T) {
	users, orders := joinTables(t)
	allocs := func(mk func() exec.Operator) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := exec.Count(context.Background(), mk()); err != nil {
				t.Fatal(err)
			}
		})
	}
	scanUsers := allocs(func() exec.Operator { return exec.NewScan(users, nil) })
	scanOrders := allocs(func() exec.Operator { return exec.NewScan(orders, nil) })
	join := allocs(func() exec.Operator {
		return exec.NewHashJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 0, 0)
	})
	distinct := allocs(func() exec.Operator {
		return exec.NewStages(exec.NewScan(users, nil), &exec.Project{Cols: []int{1}}, &exec.Distinct{})
	})
	const budget = 64
	joinExtra, distinctExtra := join-scanUsers-scanOrders, distinct-scanUsers
	t.Logf("beyond the scans: HashJoin %+.0f, Project+Distinct %+.0f", joinExtra, distinctExtra)
	if joinExtra > budget {
		t.Errorf("HashJoin(orders, users) allocates %.0f beyond its two scans, budget %d", joinExtra, budget)
	}
	if distinctExtra > budget {
		t.Errorf("Project{city}+Distinct allocates %.0f beyond its scan, budget %d", distinctExtra, budget)
	}
}

// BenchmarkHashJoinBuild joins 40 000 orders against a 4 000-user build
// side; allocs/op shows what the keyed build table costs.
//
//	go test -run='^$' -bench=HashJoinBuild -benchmem ./internal/exec/
func BenchmarkHashJoinBuild(b *testing.B) {
	users, orders := joinTables(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := exec.Stream(context.Background(),
			exec.NewHashJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 0, 0),
			func(rows []table.Row) error { n += len(rows); return nil })
		if err != nil {
			b.Fatal(err)
		}
		if n != 40000 {
			b.Fatalf("joined %d rows, want 40000", n)
		}
	}
}
