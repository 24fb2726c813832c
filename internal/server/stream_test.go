package server

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/store"
	"xst/internal/table"
)

// streamDB builds a database whose nums table spans several pages, so a
// full scan streams as multiple batch lines.
func streamDB(t *testing.T, rows int) *catalog.Database {
	t.Helper()
	db, err := catalog.Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	nums := make([]table.Row, rows)
	for i := range nums {
		nums[i] = table.Row{core.Int(i), core.Int(i % 7)}
	}
	loadTable(t, db, table.Schema{Name: "nums", Cols: []string{"n", "mod"}}, nums)
	return db
}

// streamLines sends req and hands each batch line's rows to fn, and
// returns the number of batch lines and the final response. It checks
// that every line holds at most exec.MaxBatchRows rows and maxLine
// bytes, and that every line but the last is full, by rows or by bytes:
// its next line's first row would not have fitted in it.
func streamLines(t *testing.T, c *Client, req Request, fn func(rows []string)) (lines int, final Response) {
	t.Helper()
	id, _, err := c.Send(req)
	prevRows, prevLen := 0, 0
	for err == nil {
		var n int
		if final, n, err = c.Recv(id); err != nil || !final.More {
			break
		}
		batch := final.Batch
		if len(batch) == 0 || len(batch) > exec.MaxBatchRows || n+1 > maxLine {
			t.Fatalf("line %d: %d rows, %d bytes", lines, len(batch), n+1)
		}
		if next := len(appendString(nil, batch[0])) + 1; lines > 0 && prevRows < exec.MaxBatchRows && prevLen+next <= maxLine {
			t.Fatalf("line %d not full: %d rows, %d bytes, and the next row takes %d", lines-1, prevRows, prevLen, next)
		}
		prevRows, prevLen, lines = len(batch), n+1, lines+1
		fn(batch)
	}
	if err != nil {
		t.Fatal(err)
	}
	return lines, final
}

// TestQueryStreaming drives a query statement over the wire: its rows
// arrive in full More-marked lines, cut across the scan's page-sized
// batches, before the summary, and batches_streamed counts the lines.
func TestQueryStreaming(t *testing.T) {
	srv, addr := startServer(t, Config{DB: streamDB(t, 3000)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows, sum, want, wantSum := 0, 0, 0, 0
	for i := 0; i < 3000; i++ {
		if i%7 < 6 {
			want, wantSum = want+1, wantSum+i
		}
	}
	lines, resp := streamLines(t, c, Request{Stmt: "from nums where mod < 6 select n"}, func(batch []string) {
		for _, r := range batch {
			n, err := strconv.Atoi(strings.Trim(r, "<>"))
			if err != nil {
				t.Fatalf("row %q", r)
			}
			rows, sum = rows+1, sum+n
		}
	})
	if rows != want || resp.Rows != want || sum != wantSum {
		t.Fatalf("streamed %d rows summing to %d, summary says %d, want %d summing to %d", rows, sum, resp.Rows, want, wantSum)
	}
	if lines < 3 {
		t.Fatalf("%d batch lines, want a stream of at least 3", lines)
	}
	if !strings.Contains(resp.Result, "rows") {
		t.Fatalf("summary result = %q", resp.Result)
	}

	snap := srv.MetricsSnapshot()
	if snap.RowsStreamed != uint64(want) || snap.BatchesStreamed != uint64(lines) {
		t.Fatalf("metrics rows_streamed=%d batches_streamed=%d, want %d/%d",
			snap.RowsStreamed, snap.BatchesStreamed, want, lines)
	}
	if snap.QueriesOK == 0 {
		t.Fatal("streamed query not counted as ok")
	}
}

// TestWideResultLines: a join whose 1 024-row batch renders past the
// client's 1 MiB line limit arrives whole, in lines of at most maxLine
// bytes, and the connection stays usable.
func TestWideResultLines(t *testing.T) {
	db, err := catalog.Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	wide := make([]table.Row, 300)
	for i := range wide {
		wide[i] = table.Row{core.Int(0), core.Str(fmt.Sprintf("%03d", i) + strings.Repeat("s", 697))}
	}
	loadTable(t, db, table.Schema{Name: "w", Cols: []string{"k", "s"}}, wide)
	_, addr := startServer(t, Config{DB: db})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows := 0
	_, resp := streamLines(t, c, Request{Stmt: "from w join w on k = k", TimeoutMS: 60_000},
		func(batch []string) { rows += len(batch) })
	if resp.Error != "" || rows != 300*300 || resp.Rows != rows {
		t.Fatalf("streamed %d rows, summary %+v, want %d", rows, resp, 300*300)
	}
	if got, err := c.Eval("card({1,2})"); err != nil || got != "2" {
		t.Fatalf("connection after the wide result: %q, %v", got, err)
	}
}

// TestWritesPerStatement: a result that fits one line goes out with its
// final line in one write, and so does an empty one.
func TestWritesPerStatement(t *testing.T) {
	srv, addr := startServer(t, Config{DB: pointDB(t)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for stmt, want := range map[string]int{pointStmt: 1, "from users where id = 5000 select id": 0} {
		before := srv.MetricsSnapshot().Writes
		resp, err := c.Do(Request{Stmt: stmt})
		if err != nil || resp.Error != "" || len(resp.Batch) != want {
			t.Fatalf("%s = %+v, %v; want %d rows", stmt, resp, err, want)
		}
		if got := srv.MetricsSnapshot().Writes - before; got != 1 {
			t.Errorf("%s: %d writes, want 1", stmt, got)
		}
	}
	// The counter is a __sys.metrics row, read at query open.
	resp, err := c.Do(Request{Stmt: `from __sys.metrics where name = "xstd_writes_total" select value`})
	if err != nil || len(resp.Batch) != 1 || resp.Batch[0] != "<2>" {
		t.Fatalf("xstd_writes_total row = %+v, %v; want <2>", resp, err)
	}
}

// TestClientBatchOwnership: Recv's Batch is rewritten by the next line
// but a string kept from it is not, and Do's Batch — of one line or
// many — is the caller's own.
func TestClientBatchOwnership(t *testing.T) {
	_, addr := startServer(t, Config{DB: streamDB(t, 3000)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, _, err := c.Send(Request{Stmt: "from nums select n"})
	if err != nil {
		t.Fatal(err)
	}
	var kept []string // the first row of each line
	for {
		resp, _, err := c.Recv(id)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.More {
			break
		}
		kept = append(kept, resp.Batch[0])
	}
	if want := []string{"<0>", "<1024>", "<2048>"}; !slices.Equal(kept, want) {
		t.Fatalf("first rows of the lines read %q after the stream, want %q", kept, want)
	}

	one, err := c.Do(Request{Stmt: "from nums where n < 3 select n"})
	if err != nil {
		t.Fatal(err)
	}
	many, err := c.Do(Request{Stmt: "from nums where n < 2000 select n"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(Request{Stmt: "from nums where n >= 1000 select n"}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(one.Batch, []string{"<0>", "<1>", "<2>"}) || len(many.Batch) != 2000 || many.Batch[1999] != "<1999>" {
		t.Fatalf("Do results changed by later calls: %q, %d rows ending %q", one.Batch, len(many.Batch), many.Batch[len(many.Batch)-1])
	}
}

// TestQueryDoAccumulates checks the plain Do path collects every
// streamed batch into the final response.
func TestQueryDoAccumulates(t *testing.T) {
	_, addr := startServer(t, Config{DB: streamDB(t, 2500)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(Request{Stmt: "from nums select n"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("query error: %s", resp.Error)
	}
	if len(resp.Batch) != 2500 || resp.Rows != 2500 {
		t.Fatalf("accumulated %d rows (summary %d), want 2500", len(resp.Batch), resp.Rows)
	}
	if resp.Batch[0] != "<0>" {
		t.Fatalf("first row rendered as %q", resp.Batch[0])
	}
}

// TestQueryWireErrors checks compile errors surface as normal error
// responses and leave the connection usable.
func TestQueryWireErrors(t *testing.T) {
	srv, addr := startServer(t, Config{DB: streamDB(t, 10)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, stmt := range []string{"from nosuch", "from nums where nope = 1"} {
		resp, err := c.Do(Request{Stmt: stmt})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Error == "" || len(resp.Batch) != 0 {
			t.Fatalf("%q: expected error response, got %+v", stmt, resp)
		}
	}
	// The session still works after failed queries.
	if got, err := c.Eval("card({1,2})"); err != nil || got != "2" {
		t.Fatalf("session broken after query errors: %q, %v", got, err)
	}
	if snap := srv.MetricsSnapshot(); snap.QueriesErr != 2 {
		t.Fatalf("queries_err = %d, want 2", snap.QueriesErr)
	}
}

// TestQueryStreamDeadline checks the per-query deadline aborts a stream
// mid-flight with a deadline error on the final line.
func TestQueryStreamDeadline(t *testing.T) {
	srv, addr := startServer(t, Config{DB: streamDB(t, 4000)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Self-join on mod fans each row out ~571×: ~2.3M output rows,
	// far beyond a 25ms budget.
	resp, err := c.DoStream(Request{
		Stmt:      "from nums join nums on mod = mod",
		TimeoutMS: 25,
	}, func([]string) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "deadline") {
		t.Fatalf("expected deadline error, got %+v", resp)
	}
	if got := srv.MetricsSnapshot().QueriesTimeout; got != 1 {
		t.Errorf("queries_timeout = %d, want 1", got)
	}
}
