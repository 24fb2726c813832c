package xlang

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"xst/internal/core"
	"xst/internal/index"
	"xst/internal/plan"
	"xst/internal/stats"
	"xst/internal/store"
	"xst/internal/table"
)

// analyticCatalog is the benchmark's analytic database at a tenth of its
// size: users(id, city, score) hash-indexed on id, orders(id, uid,
// amount) btree-indexed on id with amounts in [0, 1000), both analyzed.
func analyticCatalog(t *testing.T) *plan.Catalog {
	t.Helper()
	pool := store.NewBufferPool(store.NewMemPager(), 256)
	r := rand.New(rand.NewSource(1))
	mk := func(name string, cols []string, n int, row func(i int) table.Row) *table.Table {
		tb, err := table.Create(pool, table.Schema{Name: name, Cols: cols})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := tb.Insert(row(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tb.Table()
	}
	users := mk("users", []string{"id", "city", "score"}, 400, func(i int) table.Row {
		return table.Row{core.Int(i), core.Str(fmt.Sprintf("city-%03d", r.Intn(50))), core.Int(r.Intn(100))}
	})
	orders := mk("orders", []string{"id", "uid", "amount"}, 4000, func(i int) table.Row {
		return table.Row{core.Int(i), core.Int(r.Intn(400)), core.Int(r.Intn(1000))}
	})
	sc, err := stats.CollectAll(users, orders)
	if err != nil {
		t.Fatal(err)
	}
	h, err := index.BuildHash(context.Background(), users, 0)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := index.BuildBTree(context.Background(), orders, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &plan.Catalog{
		Tables: map[string]*table.Table{"users": users, "orders": orders},
		Stats:  sc,
		Indexes: []*plan.TableIndex{
			{Table: users, Col: "id", Kind: plan.HashIdx, Hash: h},
			{Table: orders, Col: "id", Kind: plan.BTreeIdx, BTree: bt},
		},
	}
}

// TestTemplatesMatchCompiles holds the statement-template cache to a
// compile from scratch: at every literal of the benchmark's filters, and
// at every histogram bound of orders.id and one either side of it, with
// one bound or two on a side, a compile against a warm catalog gives the
// plan (estimates and sized
// keyed tables included), EXPLAIN and degree of parallelism that a
// compile against a fresh copy of the catalog gives.
func TestTemplatesMatchCompiles(t *testing.T) {
	defer func(th int) { plan.ParallelThreshold = th }(plan.ParallelThreshold)
	plan.ParallelThreshold = 1000 // so the DOP follows the estimates
	cat := analyticCatalog(t)
	env := NewEnv()
	hits := 0
	check := func(src string) {
		t.Helper()
		warm, err := CompileAt(env, cat, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		fresh := &plan.Catalog{Tables: cat.Tables, Stats: cat.Stats, Indexes: cat.Indexes}
		cold, err := CompileAt(env, fresh, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if warm.Cached {
			hits++
		}
		if we, ce := plan.Explain(warm.Node), plan.Explain(cold.Node); we != ce || warm.DOP() != cold.DOP() ||
			!reflect.DeepEqual(warm.Node, cold.Node) {
			t.Fatalf("%s (cached %v):\n%sdop %d\ncompiled:\n%sdop %d", src, warm.Cached, we, warm.DOP(), ce, cold.DOP())
		}
	}
	for k := 0; k <= 1000; k++ {
		check(fmt.Sprintf("from orders join users on uid = id where amount < %d select amount, city", k))
		check(fmt.Sprintf("from orders where amount >= %d select id", k))
	}
	if hits < 1800 {
		t.Fatalf("%d of 2002 filter compiles hit a template", hits)
	}
	cs := cat.Stats["orders"].Columns[0]
	ks := []int64{int64(cs.Min.(core.Int)) - 1, int64(cs.Max.(core.Int)) + 1}
	for _, b := range cs.Bounds() {
		ks = append(ks, int64(b.(core.Int))-1, int64(b.(core.Int)), int64(b.(core.Int))+1)
	}
	for _, k := range ks {
		for _, d := range []int64{20, 0} { // d = 0: lo = hi
			check(fmt.Sprintf("from orders where id >= %d and id < %d select id, uid, amount", k, k+d))
			check(fmt.Sprintf("from orders where id >= %d and id < %d select id, uid, amount", k-d, k))
		}
		// Two bounds on one side: which one the probe keeps is the order
		// of the two literals.
		for _, d := range []int64{1, 0, -1} {
			check(fmt.Sprintf("from orders where id >= %d and id > %d select id", k, k+d))
			check(fmt.Sprintf("from orders where id < %d and id <= %d select id", k, k+d))
		}
	}
}

// TestTemplateLiteralErrors: a literal that does not convert fails a
// statement of a cached shape as it fails a compile from scratch.
func TestTemplateLiteralErrors(t *testing.T) {
	cat := analyticCatalog(t)
	env := NewEnv()
	for _, src := range []string{"from orders where amount < 5 select id", "from orders where amount < 6 select id"} {
		if _, err := CompileAt(env, cat, src); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{
		"from orders where amount < 99999999999999999999 select id",
		"from orders where amount < -99999999999999999999 select id",
	} {
		_, hot := CompileAt(env, cat, src)
		_, cold := CompileAt(env, &plan.Catalog{Tables: cat.Tables, Stats: cat.Stats, Indexes: cat.Indexes}, src)
		if hot == nil || cold == nil || hot.Error() != cold.Error() {
			t.Fatalf("%s: cached shape answered %v, a fresh compile %v", src, hot, cold)
		}
	}
}
