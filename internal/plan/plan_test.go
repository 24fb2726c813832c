package plan

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xtest"
)

// Test tables use globally unique column names so join schemas resolve
// unambiguously (the documented requirement).
func testTables(t testing.TB, users, orders int) (*table.Table, *table.Table) {
	t.Helper()
	pool := store.NewBufferPool(store.NewMemPager(), 128)
	u, err := table.Create(pool, table.Schema{Name: "users", Cols: []string{"uid", "city", "score"}})
	if err != nil {
		t.Fatal(err)
	}
	o, err := table.Create(pool, table.Schema{Name: "orders", Cols: []string{"oid", "ouid", "amount"}})
	if err != nil {
		t.Fatal(err)
	}
	r := xtest.NewRand(21)
	for i := 0; i < users; i++ {
		u.Insert(table.Row{core.Int(i), core.Str("city-" + string(rune('a'+r.Intn(4)))), core.Int(r.Intn(100))})
	}
	for i := 0; i < orders; i++ {
		o.Insert(table.Row{core.Int(i), core.Int(r.Intn(users)), core.Int(r.Intn(1000))})
	}
	return u.Table(), o.Table()
}

func fingerprint(rows []table.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(table.EncodeRow(nil, r))
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, a, b []table.Row) {
	t.Helper()
	fa, fb := fingerprint(a), fingerprint(b)
	if len(fa) != len(fb) {
		t.Fatalf("row counts differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestExecuteScanSelectProject(t *testing.T) {
	u, _ := testTables(t, 100, 0)
	p := &Project{
		Cols: []string{"uid"},
		Child: &Select{
			Child: &Scan{Table: u},
			Pred:  Cmp{Col: "city", Op: Eq, Val: core.Str("city-a")},
		},
	}
	rows, sch, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.Cols) != 1 || sch.Cols[0] != "uid" {
		t.Fatalf("schema = %v", sch.Cols)
	}
	if len(rows) == 0 {
		t.Fatal("no rows selected")
	}
	for _, r := range rows {
		if len(r) != 1 {
			t.Fatalf("bad arity: %v", r)
		}
	}
}

func TestCmpOperators(t *testing.T) {
	sch := table.Schema{Cols: []string{"x"}}
	row := table.Row{core.Int(5)}
	cases := []struct {
		op   CmpOp
		val  int
		want bool
	}{
		{Eq, 5, true}, {Eq, 4, false},
		{Ne, 4, true}, {Ne, 5, false},
		{Lt, 6, true}, {Lt, 5, false},
		{Le, 5, true}, {Le, 4, false},
		{Gt, 4, true}, {Gt, 5, false},
		{Ge, 5, true}, {Ge, 6, false},
	}
	batch := table.BatchOf([]table.Row{row}, 1)
	passes := func(p Pred) bool { return len(CompilePred(p, sch)(batch, []int32{0})) == 1 }
	for _, c := range cases {
		p := Cmp{Col: "x", Op: c.op, Val: core.Int(c.val)}
		if got := p.Eval(sch, row); got != c.want {
			t.Errorf("5 %v %d = %v, want %v", c.op, c.val, got, c.want)
		}
		if got := passes(p); got != c.want {
			t.Errorf("compiled: 5 %v %d = %v, want %v", c.op, c.val, got, c.want)
		}
	}
	// Unknown column is false, not a panic.
	if unknown := (Cmp{Col: "nope", Op: Eq, Val: core.Int(1)}); unknown.Eval(sch, row) || passes(unknown) {
		t.Fatal("unknown column must evaluate false")
	}
}

func TestExecuteJoin(t *testing.T) {
	u, o := testTables(t, 20, 60)
	j := &Join{
		Left: &Scan{Table: o}, Right: &Scan{Table: u},
		LeftCol: "ouid", RightCol: "uid",
	}
	rows, sch, err := Execute(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 60 {
		t.Fatalf("join rows = %d", len(rows))
	}
	li, ri := sch.Col("ouid"), sch.Col("uid")
	for _, r := range rows {
		if !core.Equal(r[li], r[ri]) {
			t.Fatalf("key mismatch %v", r)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	u, o := testTables(t, 5, 5)
	bad := []Node{
		&Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "nope", RightCol: "uid"},
		&Project{Child: &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"}, Cols: []string{"nope"}},
	}
	for _, n := range bad {
		if _, _, err := Execute(n); err == nil {
			t.Fatalf("Execute(%v) must fail", n)
		}
	}
}

func TestMergeSelects(t *testing.T) {
	u, _ := testTables(t, 10, 0)
	n := &Select{
		Child: &Select{
			Child: &Scan{Table: u},
			Pred:  Cmp{Col: "score", Op: Ge, Val: core.Int(10)},
		},
		Pred: Cmp{Col: "score", Op: Lt, Val: core.Int(90)},
	}
	opt := Optimize(n)
	s, ok := opt.(*Select)
	if !ok {
		t.Fatalf("optimized to %T", opt)
	}
	if _, ok := s.Child.(*Scan); !ok {
		t.Fatalf("selects not merged: %v", opt)
	}
	if _, ok := s.Pred.(And); !ok {
		t.Fatal("merged predicate must be a conjunction")
	}
}

func TestPushSelectBelowJoin(t *testing.T) {
	u, o := testTables(t, 10, 30)
	n := &Select{
		Child: &Join{
			Left: &Scan{Table: o}, Right: &Scan{Table: u},
			LeftCol: "ouid", RightCol: "uid",
		},
		Pred: And{
			Cmp{Col: "amount", Op: Lt, Val: core.Int(500)},    // orders side
			Cmp{Col: "city", Op: Eq, Val: core.Str("city-a")}, // users side
		},
	}
	opt := Optimize(n)
	j, ok := opt.(*Join)
	if !ok {
		t.Fatalf("selection not fully pushed: %v", opt)
	}
	if _, ok := j.Left.(*Select); !ok {
		t.Fatalf("left side missing pushed select: %v", opt)
	}
	if _, ok := j.Right.(*Select); !ok {
		t.Fatalf("right side missing pushed select: %v", opt)
	}
}

func TestPushSelectBelowProject(t *testing.T) {
	u, _ := testTables(t, 10, 0)
	n := &Select{
		Child: &Project{Child: &Scan{Table: u}, Cols: []string{"uid", "score"}},
		Pred:  Cmp{Col: "score", Op: Ge, Val: core.Int(50)},
	}
	opt := Optimize(n)
	if _, ok := opt.(*Project); !ok {
		t.Fatalf("select not pushed below project: %v", opt)
	}
}

func TestPruneJoinColumns(t *testing.T) {
	u, o := testTables(t, 10, 30)
	n := &Project{
		Cols: []string{"oid", "city"},
		Child: &Join{
			Left: &Scan{Table: o}, Right: &Scan{Table: u},
			LeftCol: "ouid", RightCol: "uid",
		},
	}
	opt := Optimize(n)
	// The inner join's inputs must now be projections dropping unused
	// columns (amount, score).
	s := opt.String()
	if !strings.Contains(s, "project[oid,ouid]") || !strings.Contains(s, "project[uid,city]") {
		t.Fatalf("join inputs not pruned: %v", s)
	}
}

// TestPruneJoinColumnsPerSide: each side of a join keeps its own key and
// the columns the projection reads from it. With orders(id, uid, amount)
// and users(id, name, city) joined on uid = id, the right key id keeps no
// orders.id on the left; a projection of users.id, which is named so
// only while the left has an id, keeps the left's id; and every pruned
// plan answers the rows and column names of the unpruned one.
func TestPruneJoinColumnsPerSide(t *testing.T) {
	pool := store.NewBufferPool(store.NewMemPager(), 128)
	o, err := table.Create(pool, table.Schema{Name: "orders", Cols: []string{"id", "uid", "amount"}})
	if err != nil {
		t.Fatal(err)
	}
	u, err := table.Create(pool, table.Schema{Name: "users", Cols: []string{"id", "name", "city"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 20 {
		u.Insert(table.Row{core.Int(i), core.Str(fmt.Sprint("user-", i)), core.Str(fmt.Sprint("city-", i%3))})
	}
	for i := range 60 {
		o.Insert(table.Row{core.Int(100 + i), core.Int(i % 25), core.Int(i * 7 % 50)})
	}
	for _, c := range []struct {
		cols        []string
		left, right string // each side's projection
	}{
		{[]string{"amount", "city"}, "project[uid,amount]", "project[id,city]"},
		{[]string{"id", "city"}, "project[id,uid]", "project[id,city]"},
		{[]string{"users.id", "amount"}, "project[id,uid,amount]", "project[id]"},
	} {
		n := &Project{Cols: c.cols, Child: &Join{Left: &Scan{Table: o.Table()}, Right: &Scan{Table: u.Table()}, LeftCol: "uid", RightCol: "id"}}
		opt := Optimize(n)
		j := opt.(*Project).Child.(*Join)
		if l, r := j.Left.String(), j.Right.String(); !strings.HasPrefix(l, c.left) || !strings.HasPrefix(r, c.right) {
			t.Errorf("select %v: sides %s and %s, want %s… and %s…", c.cols, l, r, c.left, c.right)
		}
		want, wsch, err := Execute(n)
		if err != nil {
			t.Fatal(err)
		}
		got, gsch, err := Execute(opt)
		if err != nil {
			t.Fatalf("select %v: %v", c.cols, err)
		}
		if !reflect.DeepEqual(gsch.Cols, wsch.Cols) {
			t.Errorf("select %v: columns %v, want %v", c.cols, gsch.Cols, wsch.Cols)
		}
		sameRows(t, got, want)
	}
}

// optimizePlans are the rule-rewrite corpus: pushdown through a join
// and a projection, and stacked selections.
func optimizePlans(t *testing.T) []Node {
	u, o := testTables(t, 30, 120)
	return []Node{
		&Select{
			Child: &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"},
			Pred: And{
				Cmp{Col: "amount", Op: Lt, Val: core.Int(700)},
				Cmp{Col: "city", Op: Ne, Val: core.Str("city-b")},
			},
		},
		&Project{
			Cols: []string{"oid", "score"},
			Child: &Select{
				Child: &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"},
				Pred:  Cmp{Col: "score", Op: Ge, Val: core.Int(20)},
			},
		},
		&Select{
			Child: &Select{
				Child: &Project{Child: &Scan{Table: u}, Cols: []string{"uid", "score"}},
				Pred:  Cmp{Col: "score", Op: Ge, Val: core.Int(10)},
			},
			Pred: Cmp{Col: "score", Op: Lt, Val: core.Int(95)},
		},
	}
}

func TestOptimizePreservesResults(t *testing.T) {
	for i, p := range optimizePlans(t) {
		naive, _, err := Execute(p)
		if err != nil {
			t.Fatalf("plan %d naive: %v", i, err)
		}
		optimized, _, err := Execute(Optimize(p))
		if err != nil {
			t.Fatalf("plan %d optimized: %v", i, err)
		}
		sameRows(t, naive, optimized)
	}
}

// TestOptimizedScansFewerRows: pushdown shrinks the join input. The
// projected two-conjunct cases are E12 at quick scale (500 users, 2 500
// orders, 50 %, 5 % and 0.5 % of amounts).
func TestOptimizedScansFewerRows(t *testing.T) {
	join := func(u, o *table.Table) Node {
		return &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"}
	}
	u, o := testTables(t, 200, 1000)
	plans := []Node{&Select{Child: join(u, o), Pred: Cmp{Col: "amount", Op: Lt, Val: core.Int(50)}}}
	u, o = testTables(t, 500, 2500)
	for _, limit := range []int64{500, 50, 5} {
		plans = append(plans, &Project{Cols: []string{"oid", "city"}, Child: &Select{
			Child: join(u, o),
			Pred: And{
				Cmp{Col: "amount", Op: Lt, Val: core.Int(limit)},
				Cmp{Col: "score", Op: Ge, Val: core.Int(10)},
			},
		}})
	}
	for i, n := range plans {
		_, _, naiveStats, err := ExecuteStats(n)
		if err != nil {
			t.Fatal(err)
		}
		_, _, optStats, err := ExecuteStats(Optimize(n))
		if err != nil {
			t.Fatal(err)
		}
		if optStats.RowsJoined >= naiveStats.RowsJoined {
			t.Fatalf("plan %d: pushdown did not reduce join input: %d vs %d",
				i, optStats.RowsJoined, naiveStats.RowsJoined)
		}
	}
}

func TestOptimizeFixedPoint(t *testing.T) {
	u, o := testTables(t, 10, 20)
	n := &Project{
		Cols: []string{"oid"},
		Child: &Select{
			Child: &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"},
			Pred:  Cmp{Col: "city", Op: Eq, Val: core.Str("city-a")},
		},
	}
	once := Optimize(n)
	twice := Optimize(once)
	if once.String() != twice.String() {
		t.Fatalf("optimizer not idempotent:\n%v\n%v", once, twice)
	}
}

func TestPlanStrings(t *testing.T) {
	u, _ := testTables(t, 1, 0)
	n := &Project{
		Cols: []string{"uid"},
		Child: &Select{
			Child: &Scan{Table: u},
			Pred:  And{Cmp{Col: "score", Op: Gt, Val: core.Int(1)}},
		},
	}
	s := n.String()
	for _, want := range []string{"project[uid]", "select[", "scan(users)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("plan string %q missing %q", s, want)
		}
	}
}

func TestExplain(t *testing.T) {
	u, o := testTables(t, 50, 200)
	n := &Project{
		Cols: []string{"oid"},
		Child: &Select{
			Child: &Join{Left: &Scan{Table: o}, Right: &Scan{Table: u}, LeftCol: "ouid", RightCol: "uid"},
			Pred:  Cmp{Col: "city", Op: Eq, Val: core.Str("city-a")},
		},
	}
	out := Explain(n)
	for _, want := range []string{
		"project[oid]", "└─ select[", "└─ join[ouid=uid]",
		"├─ scan(orders)", "└─ scan(users)", "est 200",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain output missing %q:\n%s", want, out)
		}
	}
	// Every node on its own line: 5 lines.
	if got := strings.Count(out, "\n"); got != 5 {
		t.Fatalf("Explain has %d lines, want 5:\n%s", got, out)
	}
}

// TestWithChildrenKeepsFields rebuilds every node type withChildren
// rebuilds over a new child, each field set to a value no zero value
// equals: every field that is not a child must survive the rewrite, or
// a pass after sizeKeyed drops an estimate such as GroupBy.Groups or
// Join.BuildRows.
func TestWithChildrenKeepsFields(t *testing.T) {
	old, repl := &Scan{}, &Scan{}
	for _, n := range []Node{&Select{}, &Project{}, &Join{}, &Distinct{}, &Sort{}, &Limit{}, &GroupBy{}, &Rename{}} {
		v := reflect.ValueOf(n).Elem()
		for i := 0; i < v.NumField(); i++ {
			fillField(t, v.Field(i), old, i+1)
		}
		if len(children(n)) == 0 {
			t.Fatalf("%T: no children", n)
		}
		got := withChildren(n, func(Node) Node { return repl })
		if got == n {
			t.Fatalf("%T: not rebuilt over a new child", n)
		}
		g := reflect.ValueOf(got).Elem()
		for i := 0; i < v.NumField(); i++ {
			name, want, have := v.Type().Field(i).Name, v.Field(i).Interface(), g.Field(i).Interface()
			if v.Field(i).Type() == nodeType {
				want = Node(repl)
			}
			if !reflect.DeepEqual(have, want) {
				t.Errorf("%T.%s = %v after the rewrite, want %v", n, name, have, want)
			}
		}
	}
}

var (
	nodeType = reflect.TypeFor[Node]()
	predType = reflect.TypeFor[Pred]()
)

// fillField sets f to a value its zero value is not, derived from seed:
// a Node field to child, a predicate to a comparison, anything else by
// its kind.
func fillField(t *testing.T, f reflect.Value, child Node, seed int) {
	t.Helper()
	switch {
	case f.Type() == nodeType:
		f.Set(reflect.ValueOf(child))
		return
	case f.Type() == predType:
		f.Set(reflect.ValueOf(Cmp{Col: "c", Op: Le, Val: core.Int(int64(seed))}))
		return
	}
	switch f.Kind() {
	case reflect.String:
		f.SetString(fmt.Sprint("f", seed))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(int64(seed))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(uint64(seed))
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(float64(seed) + 0.5)
	case reflect.Slice:
		s := reflect.MakeSlice(f.Type(), 1, 1)
		fillField(t, s.Index(0), child, seed)
		f.Set(s)
	case reflect.Struct:
		for i := 0; i < f.NumField(); i++ {
			fillField(t, f.Field(i), child, seed+i)
		}
	default:
		t.Fatalf("no value to fill a %s field with", f.Type())
	}
}
