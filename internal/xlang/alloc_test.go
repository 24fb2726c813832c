package xlang

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"xst/internal/index"
	"xst/internal/plan"
	"xst/internal/stats"
	"xst/internal/table"
)

// indexedEnv binds the users table of queryEnv through a planner
// catalog with collected statistics and a hash index on uid, as a
// database session sees it.
func indexedEnv(t testing.TB, users int) *Env {
	t.Helper()
	env := queryEnv(t, users, 0)
	u, _ := env.Table("users")
	sc, err := stats.CollectAll(u)
	if err != nil {
		t.Fatal(err)
	}
	h, err := index.BuildHash(context.Background(), u, 0)
	if err != nil {
		t.Fatal(err)
	}
	cat := &plan.Catalog{
		Tables:  map[string]*table.Table{"users": u},
		Stats:   sc,
		Indexes: []*plan.TableIndex{{Table: u, Col: "uid", Kind: plan.HashIdx, Hash: h}},
	}
	env.BindPlanCatalog(func() *plan.Catalog { return cat })
	return env
}

// pointQuery compiles the warm indexed point query the allocation
// budget and BenchmarkQueryRun measure, and a runner that counts its
// result rows.
func pointQuery(t testing.TB) (*Query, func() int) {
	t.Helper()
	q, err := CompileQuery(indexedEnv(t, 2000), "from users where uid = 42 select uid, city")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(q.Node), "indexscan") {
		t.Fatalf("point query skipped the index:\n%s", plan.Explain(q.Node))
	}
	ctx := context.Background()
	return q, func() int {
		rows := 0
		if _, err := q.Run(ctx, func(b *table.Batch) error { rows += b.Len; return nil }); err != nil {
			t.Fatal(err)
		}
		return rows
	}
}

// TestIndexedPointQueryAllocs is the allocation budget of running a
// warm point query through the hash index: lowering and the probe; the
// one result row leaves as a batch, unboxed. An untraced statement must not pay for the per-operator
// estimates only a trace span shows (that cost three allocations).
func TestIndexedPointQueryAllocs(t *testing.T) {
	budget := 12.0
	if raceEnabled {
		budget++ // a batch's column headers take one more (Batch.setWidth)
	}
	_, run := pointQuery(t)
	if n := run(); n != 1 {
		t.Fatalf("point query returned %d rows, want 1", n)
	}
	if got := testing.AllocsPerRun(100, func() { run() }); got > budget {
		t.Fatalf("warm indexed point query: %.0f allocations per run, budget %.0f", got, budget)
	}
}

// BenchmarkQueryRun measures Query.Run of the warm indexed point query.
func BenchmarkQueryRun(b *testing.B) {
	_, run := pointQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if run() != 1 {
			b.Fatal("point query lost its row")
		}
	}
}

// TestFrontEndAllocs is the front end's per-statement allocation
// budget: IsQuery reads a statement's first two fields in place; lex
// without a buffer reserves its token list once from the source length,
// so a point-lookup statement costs that one list; lex into the token
// buffer CompileAt keeps between statements costs nothing; and parsing
// an expression adds one object per node and per list of members,
// elements or arguments, none for a token that starts no literal.
func TestFrontEndAllocs(t *testing.T) {
	const point = "from users where id = 12345 select id, city, score"
	if got := testing.AllocsPerRun(100, func() { IsQuery(point) }); got != 0 {
		t.Errorf("IsQuery: %.0f allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { lex(nil, point) }); got != 1 {
		t.Errorf("lex of a point lookup: %.0f allocations, want 1", got)
	}
	buf, _ := lex(nil, point)
	if got := testing.AllocsPerRun(100, func() { buf, _ = lex(buf[:0], point) }); got != 0 {
		t.Errorf("lex of a point lookup into a reused buffer: %.0f allocations, want 0", got)
	}
	// card, its arguments, the image, f, the set, its members, the
	// tuple, its elements and the literal.
	const image = "card(f[{<12345>}])"
	if got := testing.AllocsPerRun(100, func() { Parse(image) }); got != 10 {
		t.Errorf("Parse(%q): %.0f allocations, want 10 with the token list", image, got)
	}
}

// TestIsQueryMatchesFields holds IsQuery to its definition over
// strings.Fields: a statement is a query when its first field is
// `from` and a second field follows that is not `:=`.
func TestIsQueryMatchesFields(t *testing.T) {
	for _, src := range []string{
		"", "from", "from ", " from\tusers", "from := 1", "from:= 1", "from users",
		" from users ", "fromusers", "From users", "from\n:=", "x := from users",
		"from \xff", "\xfffrom users", "from\u0085users where id = 1",
	} {
		fs := strings.Fields(src)
		want := len(fs) >= 2 && fs[0] == "from" && fs[1] != ":="
		if got := IsQuery(src); got != want {
			t.Errorf("IsQuery(%q) = %v, want %v", src, got, want)
		}
	}
}

// TestCompileHitAllocs is the compile-hit budget: a repeat CompileAt of
// a point lookup at one catalog version, with a different literal each
// time, binds the literal into the cached plan. It allocates the Query,
// the boxed literal, the copied IndexAccess leaf and the Project above
// it, where a compile from scratch made 16 objects and 1 376 B.
func TestCompileHitAllocs(t *testing.T) {
	env := indexedEnv(t, 2000)
	rt := env.Pin()
	srcs := make([]string, 103)
	for i := range srcs {
		srcs[i] = "from users where uid = " + strconv.Itoa(1000+i) + " select uid, city"
	}
	i := 0
	compile := func() *Query {
		q, err := CompileAt(env, rt.Snap, srcs[i])
		if err != nil {
			t.Fatal(err)
		}
		i++
		return q
	}
	if compile().Cached || !compile().Cached {
		t.Fatal("the first compile of a shape must miss and the second hit")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	allocs := testing.AllocsPerRun(100, func() {
		if !compile().Cached {
			t.Fatalf("%s missed", srcs[i-1])
		}
	})
	runtime.ReadMemStats(&ms)
	bytes := float64(ms.TotalAlloc-before) / 101
	t.Logf("compile hit: %.1f objects and %.0f B per call", allocs, bytes)
	// The race detector's sync.Pool drops a share of what is put back, so
	// the token buffer is remade at random there.
	if !raceEnabled && (allocs > 4 || bytes > 256) {
		t.Fatalf("compile hit: %.1f objects and %.0f B per call, budget 4 and 256", allocs, bytes)
	}
}

// TestCompileMissAllocs is the compile-miss budget: the first point
// lookup of its shape at a fresh catalog parses it, optimizes it and
// remembers the plan. The parser takes the where literals shape already
// converted for the cache key, where converting them again cost one more
// boxed literal (21 objects).
func TestCompileMissAllocs(t *testing.T) {
	env := indexedEnv(t, 2000)
	rt := env.Pin()
	cats := make([]*plan.Catalog, 101)
	for i := range cats {
		cats[i] = &plan.Catalog{Tables: rt.Snap.Tables, Stats: rt.Snap.Stats, Indexes: rt.Snap.Indexes}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		q, err := CompileAt(env, cats[i], "from users where uid = 1234 select uid, city")
		if err != nil || q.Cached {
			t.Fatalf("compile at a fresh catalog: cached %v (%v)", q != nil && q.Cached, err)
		}
		i++
	})
	if !raceEnabled && allocs > 20 {
		t.Fatalf("compile miss: %.1f objects, budget 20", allocs)
	}
}
