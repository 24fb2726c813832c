package server

import (
	"context"
	"runtime"
	"testing"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/xlang"
)

func usersRows(from, n int) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{core.Int(int64(from + i)), core.Str("u")}
	}
	return rows
}

// TestExpressionsSeeForeignCommits: a table name in an expression is the
// table as of the statement, not a copy taken when the server booted.
func TestExpressionsSeeForeignCommits(t *testing.T) {
	db := durableDB(t)
	if _, err := db.CreateTable(table.Schema{Name: "users", Cols: []string{"id", "name"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(context.Background(), "users", usersRows(0, 3)); err != nil {
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
	a, b := dial(), dial()
	eval := func(c *Client, stmt, want string) {
		t.Helper()
		got, err := c.Eval(stmt)
		if err != nil || got != want {
			t.Fatalf("%s = %q, %v; want %q", stmt, got, err, want)
		}
	}

	eval(b, "card(users)", "3")
	// A query pins its own snapshot; B's next expression must not keep it.
	if resp, err := b.Query("from users select id", nil); err != nil || resp.Rows != 3 {
		t.Fatalf("B's query: %+v, %v", resp, err)
	}
	loadChunk(t, a, "users", nil, usersRows(3, 1))
	eval(b, "card(users)", "4")
	eval(b, "card(users[{<3>}])", "1")

	// A table A creates after B connected resolves in B.
	loadChunk(t, a, "fresh", []string{"x"}, []table.Row{{core.Int(1)}, {core.Int(2)}})
	eval(b, "card(fresh)", "2")

	// B's binding shadows the table for B only.
	eval(b, "users := {1}", "{1}")
	eval(b, "card(users)", "1")
	eval(a, "card(users)", "4")

	// Reserved names stay symbols.
	eval(a, `__meta = "__meta"`, "true")
	eval(a, `__sys.queries = "__sys.queries"`, "true")
}

// bootRows is the size of TestBootDoesNotMaterialize's table, and
// bootAllocBound what server.New may allocate over it: it measured
// ≈ 32 KiB when written, and 19 MiB while boot still materialised every
// table.
const (
	bootRows       = 100_000
	bootAllocBound = 256 << 10
)

// TestBootDoesNotMaterialize: booting a server over a large database
// costs what the server's own structures cost, not the data; the first
// statement that names the table builds its set.
func TestBootDoesNotMaterialize(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100 000-row table")
	}
	db, err := catalog.Create(store.NewMemPager(), 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(table.Schema{Name: "users", Cols: []string{"id", "name"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(context.Background(), "users", usersRows(0, bootRows)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srv, err := New(Config{DB: db})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bootAllocBound {
		t.Fatalf("server.New over %d rows allocated %d bytes, bound %d", bootRows, alloc, bootAllocBound)
	}
	v, err := xlang.Eval(srv.baseEnv.Clone(), "card(users)")
	if err != nil || !core.Equal(v, core.Int(bootRows)) {
		t.Fatalf("card(users) after boot = %v, %v", v, err)
	}
}
