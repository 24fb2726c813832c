package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/trace"
)

// startServer runs a server on a loopback port and returns it with its
// address and a stop function.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	// Wait for the listener to bind.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("server did not start")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, srv.Addr()
}

func testDB(t *testing.T) *catalog.Database {
	t.Helper()
	db, err := catalog.Create(store.NewMemPager(), 32)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable(table.Schema{Name: "cities", Cols: []string{"id", "name"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"ann-arbor", "chicago", "detroit"} {
		if _, err := tb.Insert(table.Row{core.Int(int64(i + 1)), core.Str(name)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// bigPairsStmt builds `name := {<1,1>, <2,2>, …}` with n pairs — raw
// material for expensive cross products.
func bigPairsStmt(name string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s := {", name)
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "<%d,%d>", i, i)
	}
	b.WriteString("}")
	return b.String()
}

func TestEvalAndIsolation(t *testing.T) {
	_, addr := startServer(t, Config{DB: testDB(t)})
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Raw (non-JSON) statement lines work too.
	if _, err := c1.conn.Write([]byte("{1,2}+{3}\n")); err != nil {
		t.Fatal(err)
	}
	if !c1.sc.Scan() {
		t.Fatal("no response to raw line")
	}
	if !strings.Contains(c1.sc.Text(), "result") {
		t.Fatalf("raw line response = %s", c1.sc.Text())
	}

	// Shared table bindings are visible in every session.
	for _, c := range []*Client{c1, c2} {
		got, err := c.Eval("card(cities)")
		if err != nil {
			t.Fatal(err)
		}
		if got != "3" {
			t.Fatalf("card(cities) = %q, want 3", got)
		}
	}

	// Session bindings are isolated: c1's x must not leak into c2,
	// where the unbound identifier evaluates to the symbol "x".
	if _, err := c1.Eval("x := {1,2,3}"); err != nil {
		t.Fatal(err)
	}
	got1, err := c1.Eval("card(x)")
	if err != nil || got1 != "3" {
		t.Fatalf("c1 card(x) = %q, %v", got1, err)
	}
	got2, err := c2.Eval("x = {1,2,3}")
	if err != nil {
		t.Fatal(err)
	}
	if got2 != "false" {
		t.Fatalf("c2 sees c1's binding: x = {1,2,3} → %q", got2)
	}
}

// TestConcurrentSessions exercises ≥64 concurrent connections, each
// running a private statement sequence against the shared catalog —
// the acceptance run for race-freedom (go test -race ./internal/server).
func TestConcurrentSessions(t *testing.T) {
	srv, addr := startServer(t, Config{DB: testDB(t), MaxWorkers: 16})
	const conns = 64
	var wg sync.WaitGroup
	errc := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			if _, err := c.Eval(fmt.Sprintf("mine := {%d, %d}", i, i+1000)); err != nil {
				errc <- err
				return
			}
			for q := 0; q < 10; q++ {
				got, err := c.Eval("card(mine + cities)")
				if err != nil {
					errc <- fmt.Errorf("conn %d: %w", i, err)
					return
				}
				if got != "5" {
					errc <- fmt.Errorf("conn %d: card = %q, want 5", i, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	snap := srv.MetricsSnapshot()
	if snap.QueriesOK < conns*11 {
		t.Errorf("queries_ok = %d, want ≥ %d", snap.QueriesOK, conns*11)
	}
	if snap.ConnsTotal < conns {
		t.Errorf("conns_total = %d, want ≥ %d", snap.ConnsTotal, conns)
	}
}

// TestQueryDeadline proves a deadline aborts a long-running query: a
// triple cross product that would take far longer than the 50ms budget
// returns a deadline error promptly instead of running to completion.
func TestQueryDeadline(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Eval(bigPairsStmt("A", 300)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := c.Do(Request{Stmt: "cross(cross(A, A), A)", TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if resp.Error == "" || !strings.Contains(resp.Error, "deadline") {
		t.Fatalf("expected deadline error, got result=%.40q error=%q", resp.Result, resp.Error)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — deadline did not abort the hot loop", elapsed)
	}
	if got := srv.MetricsSnapshot().QueriesTimeout; got != 1 {
		t.Errorf("queries_timeout = %d, want 1", got)
	}
}

// TestAdmissionControl fills the single worker slot with a slow query
// and checks the next query is rejected rather than queued forever.
func TestAdmissionControl(t *testing.T) {
	_, addr := startServer(t, Config{MaxWorkers: 1, QueueTimeout: 20 * time.Millisecond})
	slow, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := slow.Eval(bigPairsStmt("A", 300)); err != nil {
		t.Fatal(err)
	}
	slowDone := make(chan error, 1)
	go func() {
		_, err := slow.Do(Request{Stmt: "card(cross(A, A))", TimeoutMS: 2000})
		slowDone <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the slow query take the slot

	fast, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	resp, err := fast.Do(Request{Stmt: "card({1})"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "busy") {
		t.Fatalf("expected busy rejection, got result=%q error=%q", resp.Result, resp.Error)
	}
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdown starts a query, shuts the server down while it
// is in flight, and checks the query still gets its answer (drain) and
// Serve/Shutdown complete cleanly.
func TestGracefulShutdown(t *testing.T) {
	srv, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	for srv.Addr() == "" {
		time.Sleep(time.Millisecond)
	}

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Eval(bigPairsStmt("A", 200)); err != nil {
		t.Fatal(err)
	}
	type evalResult struct {
		resp Response
		err  error
	}
	inflight := make(chan evalResult, 1)
	go func() {
		resp, err := c.Do(Request{Stmt: "card(cross(A, A))", TimeoutMS: 10000})
		inflight <- evalResult{resp, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the query start

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if err := <-done; err != ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight query lost during shutdown: %v", r.err)
	}
	if r.resp.Error != "" || r.resp.Result != "40000" {
		t.Fatalf("in-flight query answer = %q / %q, want 40000", r.resp.Result, r.resp.Error)
	}
	// New connections must be refused after shutdown.
	if c2, err := Dial(srv.Addr()); err == nil {
		c2.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestAdminCommands covers .ping, .tables, .stats and .quit. The read
// commands stream view rows like any query.
func TestAdminCommands(t *testing.T) {
	_, addr := startServer(t, Config{DB: testDB(t)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got, err := c.Eval(".ping"); err != nil || got != "pong" {
		t.Fatalf(".ping = %q, %v", got, err)
	}
	if got := queryRows(t, c, ".tables"); len(got) != 1 || !strings.HasPrefix(got[0], `<"cities",<"id","name">,3,`) {
		t.Fatalf(".tables = %q", got)
	}
	if _, err := c.Eval("card(cities)"); err != nil {
		t.Fatal(err)
	}
	ledger := metricsOf(t, c)
	if ledger["xstd_queries_ok_total"] == 0 || ledger["xstd_query_latency_seconds"] == 0 {
		t.Fatalf(".stats shows no traffic: %v", ledger)
	}
	if _, ok := ledger["xstd_pool_capacity"]; !ok {
		t.Fatal(".stats missing buffer-pool series with a database attached")
	}
	resp, err := c.Do(Request{Stmt: ".quit"})
	if err != nil || resp.Result != "bye" {
		t.Fatalf(".quit = %+v, %v", resp, err)
	}
}

func TestParseRequest(t *testing.T) {
	cases := []struct {
		line string
		want Request
	}{
		{`{"id":7,"stmt":"card({1})","timeout_ms":250}`, Request{ID: 7, Stmt: "card({1})", TimeoutMS: 250}},
		{`{1,2}+{3}`, Request{Stmt: `{1,2}+{3}`}},
		{`  .stats  `, Request{Stmt: ".stats"}},
		{`{"stmt":""}`, Request{Stmt: `{"stmt":""}`}}, // empty stmt → raw line
	}
	for _, tc := range cases {
		if got := ParseRequest(tc.line); got != tc.want {
			t.Errorf("ParseRequest(%q) = %+v, want %+v", tc.line, got, tc.want)
		}
	}
}

// TestAnalyzeAndCreateIndex covers the statistics/index admin surface:
// .analyze persists stats (visible in __sys.stats's distinct counts),
// .createindex builds an index, and a traced point query shows the
// planner choosing the index access path with its estimate attached.
func TestAnalyzeAndCreateIndex(t *testing.T) {
	db, err := catalog.Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable(table.Schema{Name: "events", Cols: []string{"id", "kind"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		kind := "view"
		if i%2 == 1 {
			kind = "click"
		}
		if _, err := tb.Insert(table.Row{core.Int(int64(i)), core.Str(kind)}); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startServer(t, Config{DB: db})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got, err := c.Eval(".createindex events id hash"); err != nil || !strings.Contains(got, "events.id") {
		t.Fatalf(".createindex = %q, %v", got, err)
	}
	if _, err := c.Eval(".createindex events id trie"); err == nil {
		t.Fatal("bad index kind must fail")
	}
	if got, err := c.Eval(".analyze"); err != nil || got != "analyzed 1 tables" {
		t.Fatalf(".analyze = %q, %v", got, err)
	}

	// Statistics show up in the view a coordinator reads.
	stats := queryRows(t, c, `from __sys.stats where tbl = "events"`)
	if len(stats) != 2 || stats[0] != `<"events","id",200,200>` || stats[1] != `<"events","kind",200,2>` {
		t.Fatalf("__sys.stats = %q", stats)
	}

	// A traced point query must run through the index, estimate attached.
	snap, err := c.Trace("from events where id = 42")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	snap.Walk(func(sp trace.SpanSnapshot, _ int) {
		if strings.HasPrefix(sp.Name, "indexscan(") {
			found = true
			if sp.Rows != 1 || sp.EstRows != 1 {
				t.Errorf("indexscan span rows=%d est=%d, want 1/1", sp.Rows, sp.EstRows)
			}
		}
	})
	if !found {
		t.Fatalf("no indexscan span in trace:\n%s", snap.Render())
	}

	// A half-the-table predicate must stay on the full scan.
	snap, err = c.Trace(`from events where kind = "view"`)
	if err != nil {
		t.Fatal(err)
	}
	snap.Walk(func(sp trace.SpanSnapshot, _ int) {
		if strings.HasPrefix(sp.Name, "indexscan(") {
			t.Errorf("wide predicate chose index: %s", sp.Name)
		}
	})
}
