package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/trace"
	"xst/internal/wal"
)

// End-to-end durability through the wire protocol: shared-table loads
// commit through the WAL, the freshly loaded rows are immediately
// servable through the index access path (incremental maintenance —
// no .analyze in between), `.checkpoint` folds the log, and the WAL
// metrics move.

func durableDB(t *testing.T) *catalog.Database {
	t.Helper()
	dir := t.TempDir()
	pager, err := store.OpenFilePager(filepath.Join(dir, "base.pages"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.OpenFileLog(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	db, err := catalog.CreateDurable(pager, log, 256)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func loadChunk(t *testing.T, c *Client, tbl string, cols []string, rows []table.Row) string {
	t.Helper()
	lr := struct {
		Table string   `json:"table"`
		Cols  []string `json:"cols,omitempty"`
		Rows  []string `json:"rows"`
	}{Table: tbl, Cols: cols}
	for _, r := range rows {
		lr.Rows = append(lr.Rows, base64.StdEncoding.EncodeToString(table.EncodeRow(nil, r)))
	}
	buf, _ := json.Marshal(lr)
	got, err := c.Eval(".load " + string(buf))
	if err != nil {
		t.Fatalf(".load %s: %v", tbl, err)
	}
	return got
}

func TestDurableLoadIndexedImmediately(t *testing.T) {
	db := durableDB(t)
	_, addr := startServer(t, Config{DB: db})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// First chunk creates the shared table durably.
	rows := make([]table.Row, 200)
	for i := range rows {
		rows[i] = table.Row{core.Int(int64(i)), core.Str("a")}
	}
	if got := loadChunk(t, c, "events", []string{"id", "kind"}, rows); got != "events: 200 rows" {
		t.Fatalf("first chunk: %q", got)
	}
	if got, err := c.Eval(".createindex events id hash"); err != nil || !strings.Contains(got, "events.id") {
		t.Fatalf(".createindex = %q, %v", got, err)
	}
	if _, err := c.Eval(".analyze"); err != nil {
		t.Fatal(err)
	}

	// Load more rows, then point-look-up a brand-new key immediately:
	// the index version that commit derived must serve it through the
	// index access path.
	rows = rows[:0]
	for i := 200; i < 260; i++ {
		rows = append(rows, table.Row{core.Int(int64(i)), core.Str("b")})
	}
	if got := loadChunk(t, c, "events", nil, rows); got != "events: 260 rows" {
		t.Fatalf("second chunk: %q", got)
	}
	snap, err := c.Trace("from events where id = 237")
	if err != nil {
		t.Fatal(err)
	}
	var sawIndex bool
	var gotRows int64
	snap.Walk(func(sp trace.SpanSnapshot, _ int) {
		if strings.HasPrefix(sp.Name, "indexscan(") {
			sawIndex = true
			gotRows = sp.Rows
		}
	})
	if !sawIndex {
		t.Fatalf("point lookup after load skipped the index:\n%s", snap.Render())
	}
	if gotRows != 1 {
		t.Fatalf("indexscan returned %d rows, want the freshly loaded row", gotRows)
	}

	// The WAL observed all of it, and `.checkpoint` folds the log.
	metrics := metricsOf(t, c)
	for _, m := range []string{"xstd_wal_appends_total", "xstd_txn_commit_total", "xstd_wal_fsync_seconds"} {
		if _, ok := metrics[m]; !ok {
			t.Fatalf("metric %s missing from registry", m)
		}
	}
	if metrics["xstd_txn_commit_total"] == 0 {
		t.Fatal("no transactions counted")
	}
	if metrics["xstd_wal_appends_total"] == 0 {
		t.Fatal("no WAL appends counted")
	}
	if got, err := c.Eval(".checkpoint"); err != nil || got != "checkpoint complete" {
		t.Fatalf(".checkpoint = %q, %v", got, err)
	}
	if db.WAL().LoggedBytes() != 0 {
		t.Fatalf("log not truncated after checkpoint: %d bytes", db.WAL().LoggedBytes())
	}
	if metricsOf(t, c)["xstd_checkpoints_total"] == 0 {
		t.Fatal("checkpoint not counted")
	}
}

// One snapshot names the tables: a commit by one connection must cost
// the others neither the index path nor the sight of what it created,
// and a stream pinned before the commit must not see it at all.
func TestForeignCommitKeepsIndexPath(t *testing.T) {
	db := durableDB(t)
	const seeded = 20_000
	if _, err := db.CreateTable(table.Schema{Name: "events", Cols: []string{"id", "kind"}}); err != nil {
		t.Fatal(err)
	}
	chunk := func(from, n int) []table.Row {
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = table.Row{core.Int(int64(from + i)), core.Str("e")}
		}
		return rows
	}
	if err := db.Load(context.Background(), "events", chunk(0, seeded)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(context.Background(), "events", "id", catalog.IndexHash); err != nil {
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
	a, b := dial(), dial()

	// A commits into the indexed table; B, which has never loaded
	// anything, looks up a row of that commit through the index.
	loadChunk(t, a, "events", nil, chunk(seeded, 50))
	snap, err := b.Trace(fmt.Sprintf("from events where id = %d", seeded+25))
	if err != nil {
		t.Fatal(err)
	}
	indexRows := int64(-1)
	snap.Walk(func(sp trace.SpanSnapshot, _ int) {
		if strings.HasPrefix(sp.Name, "indexscan(") {
			indexRows = sp.Rows
		}
	})
	if indexRows != 1 {
		t.Fatalf("B after A's commit: indexscan rows = %d (-1: no indexscan), want 1:\n%s", indexRows, snap.Render())
	}

	// A creates a table; B can query it without reconnecting.
	loadChunk(t, a, "fresh", []string{"id", "kind"}, chunk(0, 7))
	if resp, err := b.Query("from fresh select id", nil); err != nil || resp.Rows != 7 {
		t.Fatalf("B querying the table A just created: %+v, %v", resp, err)
	}

	// B streams the whole table; A commits once B's first batch is out,
	// so B's snapshot was pinned before. B must get exactly its snapshot,
	// and its next statement the commit as well.
	committed := false
	streamed := 0
	resp, err := b.Query("from events select id", func(rows []string) error {
		if !committed {
			loadChunk(t, a, "events", nil, chunk(seeded+50, 50))
			committed = true
		}
		streamed += len(rows)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows != seeded+50 || streamed != seeded+50 {
		t.Fatalf("pinned stream returned %d rows (%d streamed), want its snapshot's %d", resp.Rows, streamed, seeded+50)
	}
	if resp, err := b.Query("from events select id", nil); err != nil || resp.Rows != seeded+100 {
		t.Fatalf("B after the stream: %+v, %v, want %d rows", resp, err, seeded+100)
	}
}
