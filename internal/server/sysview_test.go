package server

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"xst/internal/core"
	"xst/internal/table"
)

// queryRows collects every rendered row of one query statement.
func queryRows(t *testing.T, c *Client, stmt string) []string {
	t.Helper()
	var out []string
	if _, err := c.Query(stmt, func(rows []string) error {
		out = append(out, rows...)
		return nil
	}); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return out
}

// fieldsOf splits a rendered tuple `<1,"a",2>` into its fields, with
// string quotes stripped. Good enough for system rows, whose string
// fields never contain commas.
func fieldsOf(row string) []string {
	parts := strings.Split(strings.Trim(row, "<>"), ",")
	for i, p := range parts {
		parts[i] = strings.Trim(strings.TrimSpace(p), `"`)
	}
	return parts
}

// metricsOf reads the server's ledger through the `.metrics` alias:
// series name → value (a histogram's observation count).
func metricsOf(t *testing.T, c *Client) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, r := range queryRows(t, c, ".metrics") {
		f := fieldsOf(r)
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			t.Fatalf("metrics row %s: %v", r, err)
		}
		out[f[0]] = v
	}
	return out
}

// findRow returns the first rendered row whose fields contain every
// needle, or "".
func findRow(rows []string, needles ...string) string {
	for _, r := range rows {
		ok := true
		for _, n := range needles {
			if !strings.Contains(r, n) {
				ok = false
				break
			}
		}
		if ok {
			return r
		}
	}
	return ""
}

// TestSysQueriesView: __sys.queries shows finished statements from the
// recent ring (state ok, phase done) and — because the view snapshots
// mid-flight — the __sys.queries statement itself as running in its
// exec phase.
func TestSysQueriesView(t *testing.T) {
	_, addr := startServer(t, Config{DB: testDB(t)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got := queryRows(t, c, "from cities"); len(got) != 3 {
		t.Fatalf("from cities returned %d rows", len(got))
	}
	if _, err := c.Eval("card(cities)"); err != nil {
		t.Fatal(err)
	}

	rows := queryRows(t, c, "from __sys.queries")
	if r := findRow(rows, "from cities", "ok", "done"); r == "" {
		t.Fatalf("finished statement missing from __sys.queries:\n%s", strings.Join(rows, "\n"))
	}
	if r := findRow(rows, "card(cities)", "ok", "done"); r == "" {
		t.Fatalf("finished eval missing from __sys.queries:\n%s", strings.Join(rows, "\n"))
	}
	self := findRow(rows, "from __sys.queries", "run", "exec")
	if self == "" {
		t.Fatalf("in-flight statement missing from __sys.queries:\n%s", strings.Join(rows, "\n"))
	}
	// The in-flight row carries the admission outcome: dop ≥ 1 and the
	// pinned snapshot epoch (cols: qid stmt state phase dur_us rows dop epoch).
	f := fieldsOf(self)
	if len(f) != 8 {
		t.Fatalf("__sys.queries row has %d fields, want 8: %s", len(f), self)
	}
	if f[6] == "0" {
		t.Fatalf("in-flight row records dop 0: %s", self)
	}
}

// TestSysMetricsAgree: __sys.metrics is the metrics registry — same
// series names as .metrics, one row each, with live values.
func TestSysMetricsAgree(t *testing.T) {
	srv, addr := startServer(t, Config{DB: testDB(t)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows := queryRows(t, c, "from __sys.metrics")
	want := srv.Registry().Snapshot()
	if len(rows) != len(want) {
		t.Fatalf("__sys.metrics has %d rows, registry %d series", len(rows), len(want))
	}
	names := map[string]bool{}
	for _, r := range rows {
		f := fieldsOf(r)
		if len(f) != 3 {
			t.Fatalf("__sys.metrics row has %d fields, want 3: %s", len(f), r)
		}
		names[f[0]] = true
	}
	for _, m := range want {
		if !names[m.Name] {
			t.Fatalf("registry series %s missing from __sys.metrics", m.Name)
		}
	}
	// Spot-check live values: the connection serving the view counted
	// itself, and the process gauges see a running runtime.
	for _, series := range []string{"xstd_conns_total", "xstd_go_goroutines", "xstd_heap_bytes", "xstd_mvcc_pinned_snapshots"} {
		r := findRow(rows, series)
		if r == "" {
			t.Fatalf("%s missing from __sys.metrics", series)
		}
		if series != "xstd_mvcc_pinned_snapshots" && fieldsOf(r)[2] == "0" {
			t.Fatalf("%s reads zero: %s", series, r)
		}
	}
	// The view's own statement read under a pinned snapshot.
	if r := findRow(rows, "xstd_mvcc_pinned_snapshots"); fieldsOf(r)[2] == "0" {
		t.Fatalf("pinned-snapshots gauge reads zero during a query: %s", r)
	}
}

// TestAdminReadsAreViews: each admin read command is its view's query.
// The alias answers the view's rows (up to what the statement between
// the two reads moved: metric values, one more slow entry), shows in
// __sys.queries as that query, and the view composes with a restriction
// like any table.
func TestAdminReadsAreViews(t *testing.T) {
	_, addr := startServer(t, Config{DB: testDB(t), SlowQuery: time.Nanosecond})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	queryRows(t, c, "from cities where id > 1")

	firsts := func(rows []string) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fieldsOf(r)[0]
		}
		return out
	}
	for _, tc := range []struct {
		alias, view string
		key         func([]string) []string // the part both reads share
		extra       []string                // what the alias itself adds
	}{
		{".stats", "from __sys.metrics", firsts, nil},
		{".metrics", "from __sys.metrics", firsts, nil},
		{".slow", "from __sys.slow", firsts, []string{"from __sys.slow"}},
		{".tables", "from __sys.tables", nil, nil},
		{".schema", "from __sys.tables", nil, nil},
	} {
		got, want := queryRows(t, c, tc.alias), queryRows(t, c, tc.view)
		if len(got) == 0 {
			t.Fatalf("%s answered no rows", tc.alias)
		}
		if tc.key != nil {
			got, want = tc.key(got), tc.key(want)
		}
		got = append(got, tc.extra...)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s = %q, %s = %q", tc.alias, got, tc.view, want)
		}
	}

	if r := findRow(queryRows(t, c, "from __sys.queries"), "from __sys.tables", "ok", "done"); r == "" {
		t.Fatal(".tables did not run as a query of __sys.tables")
	}
	all := queryRows(t, c, ".tables")
	if got := queryRows(t, c, `from __sys.tables where tbl = "cities" and part_kind = ""`); len(got) != 1 || got[0] != all[0] {
		t.Fatalf("restricted __sys.tables = %q, want %q", got, all[0])
	}
	if got := queryRows(t, c, "from __sys.tables where rows > 3"); len(got) != 0 {
		t.Fatalf("restriction on __sys.tables ignored: %q", got)
	}
}

// TestTablesWithoutDatabase: with no database attached, `.tables` fails
// as cleanly as any other database view, while the server's own views
// still answer.
func TestTablesWithoutDatabase(t *testing.T) {
	_, addr := startServer(t, Config{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query(".tables", nil)
	_, viewErr := c.Query("from __sys.tables", nil)
	if err == nil || viewErr == nil || err.Error() != viewErr.Error() {
		t.Fatalf(".tables error %v, from __sys.tables error %v", err, viewErr)
	}
	t.Log(err)
	if len(queryRows(t, c, ".stats")) == 0 {
		t.Fatal(".stats answered nothing without a database")
	}
}

// TestSysStorageViews: the database-derived views answer live state —
// one __sys.wal health row, the view query's own pinned snapshot in
// __sys.txns, declared indexes with entry counts, analyze output in
// __sys.stats.
func TestSysStorageViews(t *testing.T) {
	_, addr := startServer(t, Config{DB: testDB(t)})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Eval(".analyze"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Eval(".createindex cities id hash"); err != nil {
		t.Fatal(err)
	}

	rows := queryRows(t, c, "from __sys.wal")
	if len(rows) != 1 {
		t.Fatalf("__sys.wal returned %d rows, want 1", len(rows))
	}
	if f := fieldsOf(rows[0]); len(f) != 6 {
		t.Fatalf("__sys.wal row has %d fields, want 6: %s", len(f), rows[0])
	}

	// The __sys.txns statement reads under its own pinned snapshot, so
	// the view can never be empty while it runs.
	rows = queryRows(t, c, "from __sys.txns")
	if len(rows) == 0 {
		t.Fatal("__sys.txns empty during its own query")
	}

	rows = queryRows(t, c, "from __sys.indexes")
	if r := findRow(rows, "cities", "id", "hash", "3"); r == "" {
		t.Fatalf("__sys.indexes missing the declared index:\n%s", strings.Join(rows, "\n"))
	}

	rows = queryRows(t, c, "from __sys.stats")
	for _, col := range []string{"id", "name"} {
		if r := findRow(rows, "cities", col, "3"); r == "" {
			t.Fatalf("__sys.stats missing cities.%s:\n%s", col, strings.Join(rows, "\n"))
		}
	}
}

// gaugeVal reads one registry series' current value by name.
func gaugeVal(t *testing.T, srv *Server, name string) int64 {
	t.Helper()
	for _, m := range srv.Registry().Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("series %s not registered", name)
	return 0
}

// TestMVCCWALGauges: the MVCC/WAL health telemetry moves with the
// machinery it watches — pinning a snapshot and committing writes
// raises the pinned/superseded gauges, releasing the pin prunes (prune
// histogram + reclaimed counter), checkpointing records a duration and
// zeroes the bytes-since-checkpoint gauge.
func TestMVCCWALGauges(t *testing.T) {
	db := testDB(t)
	srv, _ := startServer(t, Config{DB: db})

	rt := db.BeginRead()
	rows := make([]table.Row, 60)
	for i := range rows {
		rows[i] = table.Row{core.Int(int64(100 + i)), core.Str(fmt.Sprintf("town%02d", i))}
	}
	if err := db.Load(context.Background(), "cities", rows); err != nil {
		t.Fatal(err)
	}

	if got := gaugeVal(t, srv, "xstd_mvcc_pinned_snapshots"); got < 1 {
		t.Fatalf("pinned snapshots = %d with a view held", got)
	}
	superseded := gaugeVal(t, srv, "xstd_mvcc_superseded_pages")
	if superseded < 1 {
		t.Fatal("no superseded pages after committing over a pinned snapshot")
	}
	if db.Pool().OldestPinnedAge() <= 0 {
		t.Fatal("oldest pinned age not advancing")
	}
	if got := gaugeVal(t, srv, "xstd_wal_bytes_since_checkpoint"); got <= 0 {
		t.Fatalf("wal bytes since checkpoint = %d after a load", got)
	}

	rt.View.Release()
	if got := gaugeVal(t, srv, "xstd_mvcc_superseded_pages"); got != 0 {
		t.Fatalf("superseded pages = %d after releasing the only pin", got)
	}
	if got := gaugeVal(t, srv, "xstd_mvcc_images_reclaimed_total"); got < superseded {
		t.Fatalf("reclaimed %d images, want ≥ %d", got, superseded)
	}
	if srv.Metrics().PruneBatch.Count() == 0 {
		t.Fatal("prune histogram recorded nothing")
	}
	if got := gaugeVal(t, srv, "xstd_mvcc_pinned_snapshots"); got != 0 {
		t.Fatalf("pinned snapshots = %d after release", got)
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if srv.Metrics().CheckpointDur.Count() == 0 {
		t.Fatal("checkpoint histogram recorded nothing")
	}
	if got := srv.Metrics().Checkpoints.Value(); got < 1 {
		t.Fatalf("checkpoints counter = %d", got)
	}
	if got := gaugeVal(t, srv, "xstd_wal_bytes_since_checkpoint"); got != 0 {
		t.Fatalf("wal bytes since checkpoint = %d right after a checkpoint", got)
	}
}
