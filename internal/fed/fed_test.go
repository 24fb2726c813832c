package fed

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/plan"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xlang"
	"xst/internal/xtest"
)

// testData is the randomized four-table workload every federation test
// shards: hash, range and unpartitioned placements, int-heavy so
// aggregate merges are order-insensitive.
type testData struct {
	users    []table.Row // id, name, age — hash on id
	orders   []table.Row // oid, uid, amount — range on oid
	profiles []table.Row // pid, score — hash on pid (co-located with users)
	tags     []table.Row // tid, tag — unpartitioned
}

var (
	usersSchema    = table.Schema{Name: "users", Cols: []string{"id", "name", "age"}}
	ordersSchema   = table.Schema{Name: "orders", Cols: []string{"oid", "uid", "amount"}}
	profilesSchema = table.Schema{Name: "profiles", Cols: []string{"pid", "score"}}
	tagsSchema     = table.Schema{Name: "tags", Cols: []string{"tid", "tag"}}
)

func makeData(seed uint64, nUsers, nOrders int) testData {
	rng := xtest.NewRand(seed)
	var d testData
	for i := 0; i < nUsers; i++ {
		d.users = append(d.users, table.Row{
			core.Int(i), core.Str(fmt.Sprintf("u%02d", rng.Intn(17))), core.Int(rng.Intn(61)),
		})
		if i%2 == 0 {
			d.profiles = append(d.profiles, table.Row{core.Int(i), core.Int(rng.Intn(100))})
		}
		if i%4 == 0 {
			d.tags = append(d.tags, table.Row{core.Int(i), core.Str(fmt.Sprintf("t%d", rng.Intn(5)))})
		}
	}
	for i := 0; i < nOrders; i++ {
		d.orders = append(d.orders, table.Row{
			core.Int(i), core.Int(rng.Intn(nUsers)), core.Int(rng.Intn(101)),
		})
	}
	return d
}

// orderBounds splits [0, nOrders) into n contiguous ranges.
func orderBounds(n, nOrders int) []core.Value {
	var b []core.Value
	for i := 1; i < n; i++ {
		b = append(b, core.Int(i*nOrders/n))
	}
	return b
}

func populateData(d testData, n int) func(dbs []*catalog.Database) error {
	return func(dbs []*catalog.Database) error {
		if err := CreateSharded(dbs, usersSchema,
			&catalog.Partition{Kind: catalog.PartHash, Col: "id"}, d.users); err != nil {
			return err
		}
		if err := CreateSharded(dbs, ordersSchema,
			&catalog.Partition{Kind: catalog.PartRange, Col: "oid", Bounds: orderBounds(n, len(d.orders))}, d.orders); err != nil {
			return err
		}
		if err := CreateSharded(dbs, profilesSchema,
			&catalog.Partition{Kind: catalog.PartHash, Col: "pid"}, d.profiles); err != nil {
			return err
		}
		return CreateSharded(dbs, tagsSchema, nil, d.tags)
	}
}

func bootTestFed(t *testing.T, n int, cfg Config, d testData) *LocalFed {
	t.Helper()
	ctx := context.Background()
	lf, err := BootLocal(ctx, n, cfg, populateData(d, n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lf.Shutdown(context.Background()) })
	return lf
}

// mirrorEnv builds the single-node reference: the same rows in ordinary
// unsharded tables bound into a fresh environment.
func mirrorEnv(t *testing.T, d testData) *xlang.Env {
	t.Helper()
	pool := store.NewBufferPool(store.NewMemPager(), 256)
	env := xlang.NewEnv()
	for _, spec := range []struct {
		sch  table.Schema
		rows []table.Row
	}{
		{usersSchema, d.users}, {ordersSchema, d.orders},
		{profilesSchema, d.profiles}, {tagsSchema, d.tags},
	} {
		tab, err := table.Create(pool, spec.sch)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range spec.rows {
			if _, err := tab.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		env.BindTable(spec.sch.Name, tab)
	}
	return env
}

func runSingle(t *testing.T, env *xlang.Env, stmt string) []table.Row {
	t.Helper()
	xq, err := xlang.CompileQuery(env, stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	op, err := plan.Compile(xq.Node)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	rows, err := exec.Collect(context.Background(), op)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return rows
}

func runFed(t *testing.T, lf *LocalFed, stmt string) (*Query, []table.Row) {
	t.Helper()
	q, err := lf.Coord.Compile(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	var out []table.Row
	_, err = q.Run(context.Background(), func(rows []table.Row) error {
		for _, r := range rows {
			out = append(out, append(table.Row(nil), r...))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return q, out
}

func encodeRows(rows []table.Row) []string {
	out := make([]string, len(rows))
	var buf []byte
	for i, r := range rows {
		buf = table.EncodeRow(buf[:0], r)
		out[i] = string(buf)
	}
	return out
}

// diffRows compares federated output to the single-node reference:
// exact sequence for ordered queries, byte-identical multiset otherwise.
func diffRows(t *testing.T, stmt string, got, want []table.Row, ordered bool) {
	t.Helper()
	g, w := encodeRows(got), encodeRows(want)
	if !ordered {
		sort.Strings(g)
		sort.Strings(w)
	}
	if len(g) != len(w) {
		t.Fatalf("%s: federated %d rows, single-node %d", stmt, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d differs:\n  fed:    %q\n  single: %q", stmt, i, g[i], w[i])
		}
	}
}

// differentialQueries is the query surface the equivalence suite runs:
// every operator the grammar offers, each join strategy's trigger shape,
// and the partition-pruning paths. Join queries carry explicit select
// lists so column order is independent of join-order optimization.
var differentialQueries = []struct {
	stmt    string
	ordered bool
}{
	{"from users", false},
	{"from tags", false},
	{"from users where age > 30", false},
	{"from users where age > 10 and age < 50 select id, age", false},
	{"from users select distinct name", false},
	{"from users where age >= 20 select distinct name", false},
	{"from users group by name count", false},
	{"from users group by name count sum(age)", false},
	{"from orders group by uid count sum(amount)", false},
	{"from orders where amount >= 50 group by uid min(amount) max(amount)", false},
	{"from users order by id", true},
	{"from users order by id desc limit 7", true},
	{"from users where id = 42", false},
	{"from users where id = 43 select name", false},
	{"from orders where oid < 120", false},
	{"from orders where oid >= 150 and oid < 250 select uid, amount", false},
	{"from orders join users on uid = id select uid, amount, age", false},
	{"from orders join users on uid = id where age > 20 select oid, amount, name", false},
	{"from orders join users on uid = id where amount < 10 and age > 5 select oid, name", false},
	{"from users join profiles on id = pid select id, score", false},
	{"from users join profiles on id = pid where age > 30 select name, score", false},
	{"from tags join users on tid = id select tag, name, age", false},
	{"from orders join users on uid = id group by name sum(amount)", false},
	{"from users join profiles on id = pid select id, score order by id limit 11", true},
}

// TestDifferentialEquivalence: a 3-site federation answers the full
// query surface byte-identically to a single node over the same rows.
func TestDifferentialEquivalence(t *testing.T) {
	d := makeData(7, 240, 300)
	lf := bootTestFed(t, 3, Config{}, d)
	env := mirrorEnv(t, d)
	for _, tc := range differentialQueries {
		want := runSingle(t, env, tc.stmt)
		_, got := runFed(t, lf, tc.stmt)
		diffRows(t, tc.stmt, got, want, tc.ordered)
	}
}

// TestDifferentialLimit: limit without order is nondeterministic in
// content but must agree in cardinality.
func TestDifferentialLimit(t *testing.T) {
	d := makeData(11, 120, 90)
	lf := bootTestFed(t, 3, Config{}, d)
	env := mirrorEnv(t, d)
	for _, stmt := range []string{"from users limit 25", "from orders where amount > 10 limit 4"} {
		want := runSingle(t, env, stmt)
		_, got := runFed(t, lf, stmt)
		if len(got) != len(want) {
			t.Fatalf("%s: federated %d rows, single-node %d", stmt, len(got), len(want))
		}
	}
}

// TestDifferentialSites: equivalence holds across federation sizes,
// including a single site and sizes that do not divide the row counts.
func TestDifferentialSites(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		d := makeData(uint64(100+n), 110, 130)
		lf := bootTestFed(t, n, Config{}, d)
		env := mirrorEnv(t, d)
		for _, tc := range differentialQueries[:12] {
			want := runSingle(t, env, tc.stmt)
			_, got := runFed(t, lf, tc.stmt)
			diffRows(t, fmt.Sprintf("sites=%d %s", n, tc.stmt), got, want, tc.ordered)
		}
	}
}

// TestForcedStrategyEquivalence: every shipping strategy the planner can
// be forced into returns the same rows; colocated falls back safely when
// the join is not co-partitioned.
func TestForcedStrategyEquivalence(t *testing.T) {
	d := makeData(13, 150, 200)
	env := mirrorEnv(t, d)
	queries := []string{
		"from orders join users on uid = id select uid, amount, age",
		"from orders join users on uid = id where age > 20 select oid, amount, name",
		"from users join profiles on id = pid select id, name, score",
	}
	for _, force := range []string{"", "shipall", "broadcast", "semijoin", "colocated"} {
		lf := bootTestFed(t, 3, Config{ForceStrategy: force}, d)
		for _, stmt := range queries {
			want := runSingle(t, env, stmt)
			_, got := runFed(t, lf, stmt)
			diffRows(t, fmt.Sprintf("force=%q %s", force, stmt), got, want, false)
		}
		lf.Shutdown(context.Background())
	}
}

// TestCoordinatorBuildsSmallerSide: the coordinator plans on zero-row
// stubs, so its joins are sided over the fragments' estimated sizes.
// With the larger input written on the right and both sides shipped,
// the coordinator must build the smaller one; a self-join, whose inputs
// share every column name, must keep its columns apart through the
// swap.
func TestCoordinatorBuildsSmallerSide(t *testing.T) {
	d := makeData(41, 60, 600)
	lf := bootTestFed(t, 3, Config{ForceStrategy: "shipall"}, d)
	env := mirrorEnv(t, d)
	young := 0
	for _, r := range d.users {
		if core.Compare(r[2], core.Int(5)) < 0 {
			young++
		}
	}
	for _, tc := range []struct {
		stmt  string
		build int
	}{
		{"from users join orders on id = uid select name, amount", len(d.users)},
		{"from users join users on age = id where age < 5", young},
	} {
		q, err := lf.Coord.Compile(tc.stmt)
		if err != nil {
			t.Fatalf("%s: %v", tc.stmt, err)
		}
		var got []table.Row
		st, err := q.Run(context.Background(), func(rows []table.Row) error {
			for _, r := range rows {
				got = append(got, append(table.Row(nil), r...))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.stmt, err)
		}
		if st.BuildRows != tc.build {
			t.Fatalf("%s: coordinator built %d rows, want the smaller side's %d\n%s", tc.stmt, st.BuildRows, tc.build, q.Plan())
		}
		single, err := xlang.CompileQuery(env, tc.stmt)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := strings.Join(q.Schema().Cols, ","), strings.Join(single.Schema().Cols, ","); g != w {
			t.Fatalf("%s: columns %s, single-node %s", tc.stmt, g, w)
		}
		diffRows(t, tc.stmt, got, runSingle(t, env, tc.stmt), false)
	}
}

// TestStrategyChoice pins the cost model's picks on the live metadata:
// a broadcast-shaped join (small build side), a semijoin-shaped one
// (selective probe into a large table) and a co-located one.
func TestStrategyChoice(t *testing.T) {
	d := makeData(17, 300, 3000)
	lf := bootTestFed(t, 3, Config{}, d)

	q, _ := runFed(t, lf, "from orders join users on uid = id select oid, amount, name")
	if got := q.Strategies(); len(got) != 1 || got[0] == CoLocated {
		t.Fatalf("orders⋈users strategies = %v", got)
	}

	q, _ = runFed(t, lf, "from users join profiles on id = pid select id, score")
	if got := q.Strategies(); len(got) != 1 || got[0] != CoLocated {
		t.Fatalf("co-partitioned join strategies = %v, want [CoLocated]", got)
	}

	// The cost model must prefer semijoin when a selective left side
	// probes a much larger right side, and broadcast when the right side
	// is tiny relative to the left partitions.
	in := lf.Coord.costProbe("users", "orders", "id", "uid")
	if got := ChooseStrategy(in); got != SemiJoin && got != Broadcast {
		t.Logf("probe inputs %+v chose %v", in, got)
	}
}

// costProbe builds cost inputs from live table metadata (test hook).
func (c *Coordinator) costProbe(left, right, lcol, rcol string) CostInputs {
	lf := newFragment(left, c.tables[left], table.Schema{Name: left, Cols: c.tables[left].Cols})
	rf := newFragment(right, c.tables[right], table.Schema{Name: right, Cols: c.tables[right].Cols})
	s := &splitter{c: c}
	return s.costInputs(lf, rf, lcol, rcol, true)
}

// TestHashPlacementInvariant: under hash partitioning every row lives on
// exactly the site its key digests to — no duplicates, no strays.
func TestHashPlacementInvariant(t *testing.T) {
	d := makeData(19, 200, 50)
	lf := bootTestFed(t, 3, Config{}, d)
	total := 0
	for i, db := range lf.DBs {
		tab, err := db.Table("users")
		if err != nil {
			t.Fatal(err)
		}
		err = tab.Scan(func(_ store.RID, r table.Row) (bool, error) {
			if got := HashSite(r[0], 3); got != i {
				t.Fatalf("row %v on site %d, hashes to %d", r, i, got)
			}
			total++
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != len(d.users) {
		t.Fatalf("placed %d rows, want %d", total, len(d.users))
	}
}

// TestRangePlacementInvariant: range partitioning respects the bounds.
func TestRangePlacementInvariant(t *testing.T) {
	d := makeData(23, 50, 200)
	lf := bootTestFed(t, 3, Config{}, d)
	bounds := orderBounds(3, len(d.orders))
	total := 0
	for i, db := range lf.DBs {
		tab, err := db.Table("orders")
		if err != nil {
			t.Fatal(err)
		}
		err = tab.Scan(func(_ store.RID, r table.Row) (bool, error) {
			if got := RangeSite(r[0], bounds); got != i {
				t.Fatalf("row %v on site %d, ranges to %d", r, i, got)
			}
			total++
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != len(d.orders) {
		t.Fatalf("placed %d rows, want %d", total, len(d.orders))
	}
}

// TestPartitionPruning: a hash-equality probe touches one site and a
// range predicate only the overlapping sites — visible in the scatter
// label and in the shipped-row counters.
func TestPartitionPruning(t *testing.T) {
	d := makeData(29, 240, 300)
	lf := bootTestFed(t, 3, Config{}, d)

	q, err := lf.Coord.Compile("from users where id = 42")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Plan(), "fedscatter[1 sites") {
		t.Fatalf("hash-eq probe not pruned to one site: %s", q.Plan())
	}

	q, err = lf.Coord.Compile("from orders where oid < 10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Plan(), "fedscatter[1 sites") {
		t.Fatalf("range probe not pruned to one site: %s", q.Plan())
	}

	q, err = lf.Coord.Compile("from orders where oid >= 150")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Plan(), "fedscatter[2 sites") {
		t.Fatalf("range tail not pruned to two sites: %s", q.Plan())
	}
}

// TestFedMetrics: running queries moves the xstd_fed_* registry series —
// fragments, bytes and rows shipped globally and per site, latency
// histogram counts, and the sites-up gauge.
func TestFedMetrics(t *testing.T) {
	d := makeData(31, 240, 300)
	lf := bootTestFed(t, 3, Config{}, d)
	runFed(t, lf, "from users where age > 10")
	runFed(t, lf, "from orders join users on uid = id select oid, amount, name")

	m := lf.Coord.Metrics()
	if m.Fragments.Value() == 0 {
		t.Fatal("no fragments counted")
	}
	if m.BytesShipped.Value() == 0 || m.RowsShipped.Value() == 0 {
		t.Fatalf("shipping counters empty: bytes=%d rows=%d",
			m.BytesShipped.Value(), m.RowsShipped.Value())
	}
	if m.FragLatency.Count() == 0 {
		t.Fatal("no fragment latencies recorded")
	}
	if m.SitesUp.Value() != 3 {
		t.Fatalf("sites up = %d, want 3", m.SitesUp.Value())
	}
	var b strings.Builder
	if err := lf.Registry.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, series := range []string{
		"xstd_fed_fragments_total", "xstd_fed_bytes_shipped_total",
		"xstd_fed_rows_shipped_total", "xstd_fed_fragment_latency_seconds",
		"xstd_fed_sites_up", "xstd_fed_site0_bytes_shipped_total",
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("registry exposition missing %s:\n%s", series, text)
		}
	}
}

// TestExplainAnalyze: the federated EXPLAIN ANALYZE names the per-site
// scatter leaves.
func TestExplainAnalyze(t *testing.T) {
	d := makeData(37, 120, 60)
	lf := bootTestFed(t, 3, Config{}, d)
	q, err := lf.Coord.Compile("from users where age > 30 group by name count")
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Explain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gather[3]", "remote[s0 ", "remote[s2 "} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain analyze missing %q:\n%s", want, out)
		}
	}
}

// TestPartitionPersistence: partition metadata survives a catalog
// close/reopen cycle (sharded catalogs are durable).
func TestPartitionPersistence(t *testing.T) {
	pager := store.NewMemPager()
	db, err := catalog.Create(pager, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(usersSchema); err != nil {
		t.Fatal(err)
	}
	want := catalog.Partition{
		Kind: catalog.PartRange, Col: "id", Site: 1, Sites: 3,
		Bounds: []core.Value{core.Int(10), core.Int(20)},
	}
	if err := db.SetPartition("users", want); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = catalog.Open(pager, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	got, ok := db.Partition("users")
	if !ok {
		t.Fatal("partition lost across reopen")
	}
	if got.Kind != want.Kind || got.Col != want.Col || got.Site != want.Site ||
		got.Sites != want.Sites || len(got.Bounds) != 2 ||
		core.Compare(got.Bounds[0], want.Bounds[0]) != 0 ||
		core.Compare(got.Bounds[1], want.Bounds[1]) != 0 {
		t.Fatalf("partition round-trip: got %+v want %+v", got, want)
	}
}

// TestSelectivityUsesDistinctCounts: equality conjuncts switch from the
// System-R constant to 1/distinct once site statistics are merged, and
// the splitter's join-cardinality estimate uses the key's distinct
// count.
func TestSelectivityUsesDistinctCounts(t *testing.T) {
	meta := &TableMeta{Name: "t", Cols: []string{"id", "kind"}, SiteRows: []int{500, 500}}
	f := newFragment("t", meta, table.Schema{Name: "t", Cols: meta.Cols})
	f.preds = append(f.preds, plan.Cmp{Col: "id", Op: plan.Eq, Val: core.Int(7)})
	if got := f.selectivity(); got != 0.1 {
		t.Fatalf("selectivity without stats = %v, want 0.1", got)
	}
	meta.Distinct = map[string]int{"id": 1000, "kind": 2}
	if got := f.selectivity(); got != 1.0/1000 {
		t.Fatalf("selectivity with stats = %v, want 0.001", got)
	}
	// Range conjuncts keep the constant — histograms are not shipped.
	f.preds = []plan.Cmp{{Col: "id", Op: plan.Lt, Val: core.Int(7)}}
	if got := f.selectivity(); got != 0.3 {
		t.Fatalf("range selectivity = %v, want 0.3", got)
	}
	if got := f.distinctOf("kind"); got != 2 {
		t.Fatalf("distinctOf(kind) = %d, want 2", got)
	}
	if got := f.distinctOf("missing"); got != 0 {
		t.Fatalf("distinctOf(missing) = %d, want 0", got)
	}
}
