package exec_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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
			check("hashjoin", exec.NewHashJoin(&rowsOp{rows: probe}, &rowsOp{rows: build}, 0, 0, 0),
				refHashJoin(probe, build, 0, 0, 1))
			for _, n := range []int{2, 3} {
				hb := exec.NewHashBuild(split(build, n), 0, 0)
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
				check(kind.name+"/hashjoin unboxed probe", exec.NewHashJoin(exec.NewScan(ptab, nil), &rowsOp{rows: build}, 0, 0, 0), wantJoin)
				check(kind.name+"/hashjoin unboxed build", exec.NewHashJoin(&rowsOp{rows: probe}, exec.NewScan(btab, nil), 0, 0, 0), wantJoin)
				for _, unboxedBuild := range []bool{false, true} {
					builders, probes := split(build, 2), morselScans(ptab, 2)
					if unboxedBuild {
						builders, probes = morselScans(btab, 2), split(probe, 2)
					}
					hb := exec.NewHashBuild(builders, 0, 0)
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

// TestHashBuildDigestsOnce: a build takes one key digest per build row —
// a parallel build files each partition under the digests that picked
// it — and its keyed tables are the ones filing each partition's rows
// under digests taken afresh builds: every row's digest walks the same
// ids, with the digest whole and narrowed to collide.
func TestHashBuildDigestsOnce(t *testing.T) {
	build := append(keyRows(900, 0), typedRows(900, 0, typedKeyKinds[1].key)...)
	walk := func(c *core.Chains, d uint64) (ids []int32) {
		for id := c.First(d); id >= 0; id = c.Next(id) {
			ids = append(ids, id)
		}
		return ids
	}
	for _, mask := range []uint64{^uint64(0), 3, 0} {
		defer exec.SetDigestMask(mask)()
		for _, n := range []int{1, 2, 3} {
			hb := exec.NewHashBuild(split(build, n), 0, 0)
			stop := exec.CountDigests()
			err := hb.Open(context.Background())
			if digests := stop(); err != nil || digests != int64(len(build)) {
				t.Fatalf("mask %#x, %d builders: %d digests of %d rows, %v", mask, n, digests, len(build), err)
			}
			rows, ids, tables := exec.Partitions(hb)
			filed := 0
			for p := range tables {
				part := ids[p]
				if n == 1 { // one partition: every row
					for r := range rows.Len {
						part = append(part, int32(r))
					}
				}
				filed += len(part)
				ref := core.NewChains(len(part))
				for _, r := range part {
					ref.Add(rows.Cols[0].Digest(int(r)) & mask)
				}
				for _, r := range part {
					d := rows.Cols[0].Digest(int(r)) & mask
					if n > 1 && d%uint64(n) != uint64(p) {
						t.Fatalf("mask %#x, %d builders: row %d in partition %d, its digest picks %d", mask, n, r, p, d%uint64(n))
					}
					if got, want := walk(&tables[p], d), walk(&ref, d); !slices.Equal(got, want) {
						t.Fatalf("mask %#x, %d builders: row %d walks %v, want %v", mask, n, r, got, want)
					}
				}
			}
			if filed != len(build) {
				t.Fatalf("mask %#x, %d builders: %d rows filed of %d", mask, n, filed, len(build))
			}
			if err := hb.Close(); err != nil {
				t.Fatal(err)
			}
		}
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
	return tbl.Table()
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

// TestHashBuildReserve joins under every kind of build-row estimate —
// none, exact, under and over — at one and two builders, over build keys
// a scan holds as ints and as strings, boxed (ColAny) keys, and ints
// that turn boxed midway, with the digest whole and narrowed to
// collide: the estimate sizes arrays only, so every case answers
// refHashJoin's rows.
func TestHashBuildReserve(t *testing.T) {
	const n = 2000 // build rows: several pages, so a build outgrows an under-estimate batch by batch
	type side struct {
		probe, build []table.Row
		builders     func(k int) []exec.Operator
	}
	sides := map[string]side{}
	for _, kind := range typedKeyKinds {
		build := typedRows(n, 100, kind.key)
		tab := storedRows(t, build)
		sides[kind.name] = side{typedRows(30, 0, kind.key), build, func(k int) []exec.Operator {
			if k == 1 {
				return []exec.Operator{exec.NewScan(tab, nil)}
			}
			return morselScans(tab, k)
		}}
	}
	anyBuild := keyRows(n, 100)
	sides["any"] = side{keyRows(30, 0), anyBuild, func(k int) []exec.Operator { return split(anyBuild, k) }}
	// mixed: int keys a scan holds unboxed, then the same keys boxed, so
	// the copy reserved at an int batch is demoted to ColAny past it.
	intBuild := typedRows(n, 100, typedKeyKinds[0].key)
	intTab := storedRows(t, intBuild)
	sides["mixed"] = side{typedRows(30, 0, typedKeyKinds[0].key), append(intBuild, intBuild...), func(k int) []exec.Operator {
		both := []exec.Operator{exec.NewScan(intTab, nil), &rowsOp{rows: intBuild}}
		if k == 1 {
			return []exec.Operator{exec.NewGather(both)}
		}
		return both
	}}
	for name, mask := range map[string]uint64{"whole digest": ^uint64(0), "no bits": 0} {
		t.Run(name, func(t *testing.T) {
			defer exec.SetDigestMask(mask)()
			for kind, s := range sides {
				m := len(s.build)
				for _, est := range []int{0, m, m / 7, 3 * m} {
					for _, k := range []int{1, 2} {
						var op exec.Operator
						if builders := s.builders(k); k == 1 {
							op = exec.NewHashJoin(&rowsOp{rows: s.probe}, builders[0], 0, 0, est)
						} else {
							hb := exec.NewHashBuild(builders, 0, est)
							probes := split(s.probe, k)
							for i := range probes {
								probes[i] = exec.NewProbeJoin(probes[i], hb, 0)
							}
							op = exec.NewGather(probes, hb)
						}
						got, err := exec.Collect(context.Background(), op)
						if err != nil {
							t.Fatalf("%s est=%d x%d: %v", kind, est, k, err)
						}
						t.Run(fmt.Sprintf("%s/est=%d/x%d", kind, est, k), func(t *testing.T) {
							sameRows(t, got, refHashJoin(s.probe, s.build, 0, 0, k))
						})
					}
				}
			}
		})
	}
}

// TestHashJoinEmptyBuild: a build side that delivers no batch at all
// (an empty table's scan) joins to no rows, at one builder and two,
// with and without an estimate, instead of filing a batch that has no
// columns.
func TestHashJoinEmptyBuild(t *testing.T) {
	probe := keyRows(30, 0)
	for _, est := range []int{0, 10} {
		for _, k := range []int{1, 2} {
			var op exec.Operator
			if k == 1 {
				op = exec.NewHashJoin(&rowsOp{rows: probe}, &rowsOp{}, 0, 0, est)
			} else {
				hb := exec.NewHashBuild([]exec.Operator{&rowsOp{}, &rowsOp{}}, 0, est)
				probes := split(probe, k)
				for i := range probes {
					probes[i] = exec.NewProbeJoin(probes[i], hb, 0)
				}
				op = exec.NewGather(probes, hb)
			}
			got, err := exec.Collect(context.Background(), op)
			if err != nil || len(got) != 0 {
				t.Fatalf("est=%d x%d: %d rows, %v; want none", est, k, len(got), err)
			}
		}
	}
}

// TestHashBuildReservedOnce holds a one-builder build with an exact
// estimate to the operator, its list of builders, its memory's holder
// and one allocation per array — the batch's column headers, the id and
// score ints, the city offsets and bytes (the first batch's mean string,
// rounded up, is at least any row's mean here), and the keyed table's
// heads and ids and the list of tables — and its bytes to the arrays
// reserved for n rows. Without
// the estimate each column array doubles its way up from the first
// page instead. Each run starts from empty free lists (two collections
// empty a sync.Pool), so it measures a build that recycles nothing.
func TestHashBuildReservedOnce(t *testing.T) {
	users, _ := joinTables(t)
	n := users.Count()
	run := func(mk func() exec.Operator) (allocs float64, bytes uint64) {
		f := func() {
			runtime.GC()
			runtime.GC()
			if _, err := exec.Count(context.Background(), mk()); err != nil {
				t.Fatal(err)
			}
		}
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(5, f)
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 6 // AllocsPerRun runs f once more to warm up
	}
	scanAllocs, scanBytes := run(func() exec.Operator { return exec.NewScan(users, nil) })
	build := func(est int) (float64, uint64) {
		a, b := run(func() exec.Operator { return exec.NewHashBuild([]exec.Operator{exec.NewScan(users, nil)}, 0, est) })
		return a - scanAllocs, b - scanBytes
	}
	sizedAllocs, sizedBytes := build(n)
	unsizedAllocs, unsizedBytes := build(0)
	t.Logf("beyond the scan, %d rows: sized %.0f allocations, %d bytes; unsized %.0f, %d", n, sizedAllocs, sizedBytes, unsizedAllocs, unsizedBytes)
	// operator and builders, column headers, four column arrays, three
	// keyed-table arrays (heads, ids and the list of tables), the build's
	// recycled holder, and the free list's per-processor table and its
	// entry in the runtime's list of pools, both dropped by a collection
	budget := 2 + 1 + 4 + 3 + 1 + 2
	if raceEnabled {
		budget++
	}
	if sizedAllocs > float64(budget) {
		t.Errorf("an exactly sized build allocates %.0f beyond its scan, want at most %d, one per array", sizedAllocs, budget)
	}
	// Columns: two ints (8 B), an offset (4 B) and the city's bytes (at
	// most 8 B) a row; the keyed table: a link (4 B) and a digest (8 B) a
	// row, and heads of 4 B, at most four a row.
	if budget := uint64(n*(8+8+4+8) + n*(4+8+16) + 1<<10); sizedBytes > budget {
		t.Errorf("an exactly sized build allocates %d bytes beyond its scan, budget %d", sizedBytes, budget)
	}
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
		return exec.NewHashJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 0, 0, 0)
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
			exec.NewHashJoin(exec.NewScan(orders, nil), exec.NewScan(users, nil), 0, 0, 0),
			func(rows []table.Row) error { n += len(rows); return nil })
		if err != nil {
			b.Fatal(err)
		}
		if n != 40000 {
			b.Fatalf("joined %d rows, want 40000", n)
		}
	}
}
