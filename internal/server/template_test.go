package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xst/internal/core"
	"xst/internal/table"
	"xst/internal/trace"
)

// pointSpan traces stmt and returns its index-scan span, if any.
func pointSpan(t *testing.T, c *Client, stmt string) (trace.SpanSnapshot, bool) {
	t.Helper()
	snap, err := c.Trace(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	var ix trace.SpanSnapshot
	found := false
	snap.Walk(func(sp trace.SpanSnapshot, _ int) {
		if strings.HasPrefix(sp.Name, "indexscan(") {
			ix, found = sp, true
		}
	})
	return ix, found
}

// TestPlanCacheFollowsVersions: a statement of a shape cached at one
// catalog version runs a plan of the version it pins. After
// `.createindex` it takes the new index, after `.analyze` it is
// estimated from the statistics, and after `.load` it reads the loaded
// rows. Every compiled statement counts as one hit or one miss.
func TestPlanCacheFollowsVersions(t *testing.T) {
	db := durableDB(t)
	if _, err := db.CreateTable(table.Schema{Name: "users", Cols: []string{"id", "name"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(context.Background(), "users", usersRows(0, 200)); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{DB: db})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	point := func(k int) string { return fmt.Sprintf("from users where id = %d select id, name", k) }
	for k := 40; k < 44; k++ {
		if _, ok := pointSpan(t, c, point(k)); ok {
			t.Fatalf("%s took an index before one was created", point(k))
		}
	}
	if m := srv.MetricsSnapshot(); m.PlanCacheHits != 3 || m.PlanCacheMisses != 1 {
		t.Fatalf("four statements of one shape: %d hits, %d misses; want 3 and 1", m.PlanCacheHits, m.PlanCacheMisses)
	}
	if _, err := c.Eval(".createindex users id hash"); err != nil {
		t.Fatal(err)
	}
	ix, ok := pointSpan(t, c, point(44))
	if !ok || ix.Rows != 1 || ix.EstRows != 20 {
		t.Fatalf("after .createindex: index span %v (%+v), want rows 1 at the unanalyzed estimate 20", ok, ix)
	}
	if _, err := c.Eval(".analyze"); err != nil {
		t.Fatal(err)
	}
	if ix, ok = pointSpan(t, c, point(45)); !ok || ix.EstRows != 1 {
		t.Fatalf("after .analyze: index span %v (%+v), want est 1", ok, ix)
	}
	loadChunk(t, c, "users", nil, usersRows(200, 10))
	for k := 200; k < 210; k++ {
		if rows := queryRows(t, c, point(k)); len(rows) != 1 || rows[0] != fmt.Sprintf(`<%d,"u">`, k) {
			t.Fatalf("%s after .load = %q", point(k), rows)
		}
	}
	// One miss per version and one for the __sys.metrics read itself,
	// which compiles uncached.
	metrics := metricsOf(t, c)
	if metrics["xstd_plan_cache_hits_total"] != 12 || metrics["xstd_plan_cache_misses_total"] != 5 {
		t.Fatalf("__sys.metrics plan cache: %d hits, %d misses; want 12 and 5",
			metrics["xstd_plan_cache_hits_total"], metrics["xstd_plan_cache_misses_total"])
	}
}

// TestPlanCacheUnderLoad: four sessions run the same three shapes with
// different literals while a fifth `.load`s into the table they read;
// every answer is one the committed rows give, and once the loads are
// in every session reads them. Run under -race in CI.
func TestPlanCacheUnderLoad(t *testing.T) {
	db := durableDB(t)
	if _, err := db.CreateTable(table.Schema{Name: "users", Cols: []string{"id", "name"}}); err != nil {
		t.Fatal(err)
	}
	const first, chunk, loads = 400, 5, 40
	if err := db.Load(context.Background(), "users", usersRows(0, first)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(context.Background(), "users", "id", "hash"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{DB: db})
	dial := func() *Client {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	loader := dial()
	readers := []*Client{dial(), dial(), dial(), dial()}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				k := (n*7 + i*101) % (first - 3)
				check := func(stmt string, ok func(rows []string) bool) bool {
					var rows []string
					_, err := c.Query(stmt, func(rs []string) error { rows = append(rows, rs...); return nil })
					if err != nil || !ok(rows) {
						t.Errorf("session %d: %s = %q, %v", i, stmt, rows, err)
						return false
					}
					return true
				}
				if !check(fmt.Sprintf("from users where id = %d select id", k), func(rows []string) bool {
					return len(rows) == 1 && rows[0] == fmt.Sprintf("<%d>", k)
				}) || !check(fmt.Sprintf("from users where id > %d and id <= %d select name", k, k+3), func(rows []string) bool {
					return len(rows) == 3 && rows[0] == `<"u">` && rows[2] == `<"u">`
				}) || !check(fmt.Sprintf("from users where id >= %d select id", k), func(rows []string) bool {
					extra := len(rows) - (first - k)
					return extra >= 0 && extra%chunk == 0 && extra <= loads*chunk
				}) {
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < loads; i++ {
		loadChunk(t, loader, "users", nil, usersRows(first+i*chunk, chunk))
	}
	close(done)
	wg.Wait()
	// Once the loads are in, every session's cached shape reads them.
	last := first + loads*chunk - 1
	for i, c := range readers {
		if rows := queryRows(t, c, "from users where id >= 7 select id"); len(rows) != last-6 {
			t.Fatalf("session %d after the loads: %d rows, want %d", i, len(rows), last-6)
		}
		if rows := queryRows(t, c, fmt.Sprintf("from users where id = %d select id", last)); len(rows) != 1 {
			t.Fatalf("session %d after the loads: row %d = %q", i, last, rows)
		}
	}
}

// TestPlanCacheKeepsSessionTables: a session's scratch table is never
// compiled into a cached plan, so two sessions that bind different
// scratch tables of one name each read their own rows.
func TestPlanCacheKeepsSessionTables(t *testing.T) {
	db := durableDB(t)
	_, addr := startServer(t, Config{DB: db})
	var clients []*Client
	for _, name := range []string{"a", "b"} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rows := make([]table.Row, 20)
		for k := range rows {
			rows[k] = table.Row{core.Int(int64(k)), core.Str(name)}
		}
		loadChunk(t, c, "__mine", []string{"id", "who"}, rows)
		clients = append(clients, c)
	}
	for k := 0; k < 20; k++ {
		for i, name := range []string{"a", "b"} {
			stmt := fmt.Sprintf("from __mine where id = %d select who", k)
			if rows := queryRows(t, clients[i], stmt); len(rows) != 1 || rows[0] != fmt.Sprintf(`<"%s">`, name) {
				t.Fatalf("session %s: %s = %q", name, stmt, rows)
			}
		}
	}
}
