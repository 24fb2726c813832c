package relational

import (
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
)

// makeUsers creates a users table: (id int, city str, score int).
func makeUsers(t testing.TB, n int) *table.Table {
	t.Helper()
	pool := store.NewBufferPool(store.NewMemPager(), 64)
	tbl, err := table.Create(pool, table.Schema{Name: "users", Cols: []string{"id", "city", "score"}})
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"ann-arbor", "boston", "chicago"}
	for i := 0; i < n; i++ {
		row := table.Row{core.Int(i), core.Str(cities[i%3]), core.Int(i % 10)}
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl.Table()
}

// makeOrders creates an orders table: (uid int, amount int).
func makeOrders(t testing.TB, n, users int) *table.Table {
	t.Helper()
	pool := store.NewBufferPool(store.NewMemPager(), 64)
	tbl, err := table.Create(pool, table.Schema{Name: "orders", Cols: []string{"uid", "amount"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := table.Row{core.Int(i % users), core.Int(i * 7 % 100)}
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl.Table()
}

func TestTableScan(t *testing.T) {
	tbl := makeUsers(t, 120)
	rows, err := Collect(NewTableScan(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 120 {
		t.Fatalf("scanned %d rows", len(rows))
	}
	if !core.Equal(rows[7][0], core.Int(7)) {
		t.Fatal("scan order wrong")
	}
}

func TestNextBeforeOpen(t *testing.T) {
	tbl := makeUsers(t, 3)
	s := NewTableScan(tbl)
	if _, _, err := s.Next(); err == nil {
		t.Fatal("Next before Open must fail")
	}
	j := &NestedLoopJoin{Left: NewTableScan(tbl), Right: NewTableScan(tbl)}
	if _, _, err := j.Next(); err == nil {
		t.Fatal("join Next before Open must fail")
	}
}

func TestFilter(t *testing.T) {
	tbl := makeUsers(t, 100)
	city := tbl.Schema().Col("city")
	it := &Filter{Child: NewTableScan(tbl), Pred: ColEq(city, core.Str("boston"))}
	n, err := Count(it)
	if err != nil {
		t.Fatal(err)
	}
	if n != 33 {
		t.Fatalf("boston rows = %d, want 33", n)
	}
}

func TestPredicateCombinators(t *testing.T) {
	r := table.Row{core.Int(5), core.Str("x")}
	if !And(ColGE(0, core.Int(5)), ColLess(0, core.Int(6)))(r) {
		t.Fatal("And failed")
	}
	if !Or(ColEq(1, core.Str("y")), ColEq(1, core.Str("x")))(r) {
		t.Fatal("Or failed")
	}
	if Not(ColEq(0, core.Int(5)))(r) {
		t.Fatal("Not failed")
	}
	if !ColRange(0, core.Int(0), core.Int(10))(r) || ColRange(0, core.Int(6), core.Int(9))(r) {
		t.Fatal("ColRange failed")
	}
	if ColEqCol(0, 1)(r) {
		t.Fatal("ColEqCol failed")
	}
}

func TestProject(t *testing.T) {
	tbl := makeUsers(t, 10)
	it := &Project{Child: NewTableScan(tbl), Cols: []int{2, 0}}
	rows, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0]) != 2 || !core.Equal(rows[3][1], core.Int(3)) {
		t.Fatalf("projected rows wrong: %v", rows[3])
	}
	sch := it.Schema()
	if sch.Cols[0] != "score" || sch.Cols[1] != "id" {
		t.Fatalf("schema = %v", sch.Cols)
	}
	bad := &Project{Child: NewTableScan(tbl), Cols: []int{9}}
	if err := bad.Open(); err == nil {
		t.Fatal("out-of-range projection must fail")
	}
}

func TestLimit(t *testing.T) {
	tbl := makeUsers(t, 50)
	rows, err := Collect(&Limit{Child: NewTableScan(tbl), N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("limit returned %d", len(rows))
	}
}

func TestSort(t *testing.T) {
	tbl := makeUsers(t, 40)
	score := tbl.Schema().Col("score")
	it := &Sort{Child: NewTableScan(tbl), Col: score}
	rows, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if core.Compare(rows[i-1][score], rows[i][score]) > 0 {
			t.Fatal("not sorted")
		}
	}
	if _, _, err := (&Sort{Child: NewTableScan(tbl), Col: 0}).Next(); err == nil {
		t.Fatal("Sort Next before Open must fail")
	}
}

func TestNestedLoopJoin(t *testing.T) {
	users := makeUsers(t, 12)
	orders := makeOrders(t, 30, 12)
	j := &NestedLoopJoin{
		Left:     NewTableScan(orders),
		Right:    NewTableScan(users),
		LeftCol:  0, // uid
		RightCol: 0, // id
	}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("join produced %d rows, want 30", len(rows))
	}
	for _, r := range rows {
		if !core.Equal(r[0], r[2]) {
			t.Fatalf("join key mismatch in %v", r)
		}
		if len(r) != 5 {
			t.Fatalf("joined arity = %d", len(r))
		}
	}
	sch := j.Schema()
	if sch.Cols[0] != "orders.uid" || sch.Cols[2] != "users.id" {
		t.Fatalf("join schema = %v", sch.Cols)
	}
}

func TestHashJoinAgreesWithNLJ(t *testing.T) {
	users := makeUsers(t, 20)
	orders := makeOrders(t, 55, 20)
	nlj := &NestedLoopJoin{Left: NewTableScan(orders), Right: NewTableScan(users), LeftCol: 0, RightCol: 0}
	hj := &HashJoin{Left: NewTableScan(orders), Right: NewTableScan(users), LeftCol: 0, RightCol: 0}
	a, err := Collect(nlj)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(hj)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("NLJ %d rows vs HJ %d rows", len(a), len(b))
	}
	// Compare as multisets of encoded rows.
	count := map[string]int{}
	for _, r := range a {
		count[string(table.EncodeRow(nil, r))]++
	}
	for _, r := range b {
		count[string(table.EncodeRow(nil, r))]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("row multiset mismatch at %q: %d", k, v)
		}
	}
}

func TestGroupCount(t *testing.T) {
	tbl := makeUsers(t, 99)
	city := tbl.Schema().Col("city")
	g := &GroupCount{Child: NewTableScan(tbl), Col: city}
	rows, err := Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if !core.Equal(r[1], core.Int(33)) {
			t.Fatalf("group %v count = %v, want 33", r[0], r[1])
		}
	}
	if sch := g.Schema(); sch.Cols[1] != "count" {
		t.Fatalf("schema = %v", sch.Cols)
	}
}

func TestComposedPipeline(t *testing.T) {
	// σ(city = chicago) → π(id) → sort → limit 3.
	tbl := makeUsers(t, 60)
	city := tbl.Schema().Col("city")
	pipe := &Limit{
		N: 3,
		Child: &Sort{
			Col: 0,
			Child: &Project{
				Cols: []int{0},
				Child: &Filter{
					Child: NewTableScan(tbl),
					Pred:  ColEq(city, core.Str("chicago")),
				},
			},
		},
	}
	rows, err := Collect(pipe)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || !core.Equal(rows[0][0], core.Int(2)) {
		t.Fatalf("pipeline rows = %v", rows)
	}
}

func TestScanTouchesPagesPerRecord(t *testing.T) {
	// The record-at-a-time discipline: one pool access per record, so
	// hits+misses is at least the row count.
	tbl := makeUsers(t, 300)
	tbl.Pool().ResetStats()
	if _, err := Collect(NewTableScan(tbl)); err != nil {
		t.Fatal(err)
	}
	st := tbl.Pool().Stats()
	if st.Hits+st.Misses < 300 {
		t.Fatalf("record scan touched pool only %d times for 300 rows", st.Hits+st.Misses)
	}
}

func TestMergeJoinAgreesWithHashJoin(t *testing.T) {
	users := makeUsers(t, 25)
	orders := makeOrders(t, 80, 25)
	mj := &MergeJoin{Left: NewTableScan(orders), Right: NewTableScan(users), LeftCol: 0, RightCol: 0}
	hj := &HashJoin{Left: NewTableScan(orders), Right: NewTableScan(users), LeftCol: 0, RightCol: 0}
	a, err := Collect(mj)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(hj)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, r := range a {
		count[string(table.EncodeRow(nil, r))]++
	}
	for _, r := range b {
		count[string(table.EncodeRow(nil, r))]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("merge/hash multiset mismatch at %q: %d", k, v)
		}
	}
	// Merge join output is ordered by the join key.
	for i := 1; i < len(a); i++ {
		if core.Compare(a[i-1][0], a[i][0]) > 0 {
			t.Fatal("merge join output unordered")
		}
	}
}

func TestMergeJoinDuplicateRuns(t *testing.T) {
	// Both sides carry duplicate keys: runs must cross-product.
	pool := store.NewBufferPool(store.NewMemPager(), 16)
	l, _ := table.Create(pool, table.Schema{Name: "l", Cols: []string{"k", "v"}})
	r, _ := table.Create(pool, table.Schema{Name: "r", Cols: []string{"k", "w"}})
	for i := 0; i < 3; i++ {
		l.Insert(table.Row{core.Int(1), core.Int(i)})
		r.Insert(table.Row{core.Int(1), core.Int(10 + i)})
	}
	l.Insert(table.Row{core.Int(2), core.Int(99)})
	mj := &MergeJoin{Left: NewTableScan(l.Table()), Right: NewTableScan(r.Table()), LeftCol: 0, RightCol: 0}
	rows, err := Collect(mj)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("run join produced %d rows, want 9", len(rows))
	}
	if _, _, err := (&MergeJoin{Left: NewTableScan(l.Table()), Right: NewTableScan(r.Table())}).Next(); err == nil {
		t.Fatal("Next before Open must fail")
	}
}

func TestIndexScan(t *testing.T) {
	users := makeUsers(t, 60)
	idx, err := BuildHashIndex(users, users.Schema().Col("city"))
	if err != nil {
		t.Fatal(err)
	}
	is := &IndexScan{Table: users, Index: idx, Key: core.Str("boston")}
	rows, err := Collect(is)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("index scan found %d rows, want 20", len(rows))
	}
	for _, r := range rows {
		if !core.Equal(r[1], core.Str("boston")) {
			t.Fatalf("wrong row %v", r)
		}
	}
	// Agreement with a full filter scan.
	n, _ := Count(&Filter{Child: NewTableScan(users), Pred: ColEq(1, core.Str("boston"))})
	if n != len(rows) {
		t.Fatalf("index scan %d vs filter %d", len(rows), n)
	}
	// Absent key yields nothing; Next before Open errors.
	missing := &IndexScan{Table: users, Index: idx, Key: core.Str("nowhere")}
	if n, _ := Count(missing); n != 0 {
		t.Fatal("absent key must be empty")
	}
	if _, _, err := (&IndexScan{Table: users, Index: idx, Key: core.Str("x")}).Next(); err == nil {
		t.Fatal("Next before Open must fail")
	}
}

func TestIndexScanComposesWithOperators(t *testing.T) {
	users := makeUsers(t, 90)
	idx, _ := BuildHashIndex(users, users.Schema().Col("city"))
	pipe := &Project{
		Cols: []int{0},
		Child: &Filter{
			Child: &IndexScan{Table: users, Index: idx, Key: core.Str("chicago")},
			Pred:  ColLess(2, core.Int(5)),
		},
	}
	rows, err := Collect(pipe)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("composed index pipeline empty")
	}
}

func TestIndexRangeScan(t *testing.T) {
	users := makeUsers(t, 200) // ids 0..199
	bt, err := BuildBTreeIndex(users, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs := &IndexRangeScan{Table: users, Index: bt, Lo: core.Int(50), Hi: core.Int(60)}
	rows, err := Collect(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("range scan found %d rows, want 10", len(rows))
	}
	for i, r := range rows {
		if !core.Equal(r[0], core.Int(50+i)) {
			t.Fatalf("range order wrong at %d: %v", i, r[0])
		}
	}
	// Unbounded above.
	rs2 := &IndexRangeScan{Table: users, Index: bt, Lo: core.Int(195)}
	n, err := Count(rs2)
	if err != nil || n != 5 {
		t.Fatalf("unbounded range = %d, %v", n, err)
	}
	// Agreement with a filter scan across multi-byte boundaries (the
	// order-key property: 127/128 and beyond sort numerically).
	rs3 := &IndexRangeScan{Table: users, Index: bt, Lo: core.Int(120), Hi: core.Int(140)}
	got, _ := Count(rs3)
	want, _ := Count(&Filter{Child: NewTableScan(users), Pred: ColRange(0, core.Int(120), core.Int(140))})
	if got != want {
		t.Fatalf("range scan %d vs filter %d", got, want)
	}
	if _, _, err := (&IndexRangeScan{Table: users, Index: bt}).Next(); err == nil {
		t.Fatal("Next before Open must fail")
	}
}
