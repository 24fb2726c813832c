package fed

import (
	"context"
	"strings"
	"testing"
	"time"

	"xst/internal/core"
	"xst/internal/table"
	"xst/internal/trace"
)

// siteOf reads the leading site-ordinal column of a federated __sys row.
func siteOf(t *testing.T, r table.Row) int {
	t.Helper()
	n, ok := r[0].(core.Int)
	if !ok {
		t.Fatalf("site column is %T, want core.Int", r[0])
	}
	return int(n)
}

// TestFedSysUnion: a federated `from __sys.X` is the union of every
// site's rows behind a site ordinal — one __sys.wal health row per
// site, every site's metrics registry, and predicate pushability on
// the site column via the ordinary planner.
func TestFedSysUnion(t *testing.T) {
	d := makeData(53, 120, 90)
	lf := bootTestFed(t, 3, Config{}, d)
	runFed(t, lf, "from users where age > 10")

	_, rows := runFed(t, lf, "from __sys.wal")
	if len(rows) != 3 {
		t.Fatalf("federated __sys.wal returned %d rows, want one per site", len(rows))
	}
	seen := map[int]bool{}
	for _, r := range rows {
		if len(r) != 7 {
			t.Fatalf("federated __sys.wal arity %d, want 7 (site + 6)", len(r))
		}
		seen[siteOf(t, r)] = true
	}
	for s := 0; s < 3; s++ {
		if !seen[s] {
			t.Fatalf("site %d missing from federated __sys.wal union", s)
		}
	}

	// Every site serves the same registry, so the union splits evenly
	// and every ordinal contributes.
	_, rows = runFed(t, lf, "from __sys.metrics")
	perSite := map[int]int{}
	for _, r := range rows {
		perSite[siteOf(t, r)]++
	}
	if len(perSite) != 3 || perSite[0] != perSite[1] || perSite[1] != perSite[2] {
		t.Fatalf("federated __sys.metrics split %v, want three equal shares", perSite)
	}

	// The view compiles through the normal planner, so predicates work.
	_, rows = runFed(t, lf, "from __sys.wal where site = 1")
	if len(rows) != 1 || siteOf(t, rows[0]) != 1 {
		t.Fatalf("site predicate returned %d rows (first site %v)", len(rows), rows)
	}

	// A coordinator's __sys.tables (its `.tables`) is the tagged union of
	// the site catalogs: each site's shard of a partitioned table, at its
	// own ordinal, with the rows that site holds.
	_, rows = runFed(t, lf, `from __sys.tables where tbl = "orders"`)
	meta := lf.Coord.tables["orders"]
	if len(rows) != 3 {
		t.Fatalf("federated __sys.tables has %d orders rows, want one per site", len(rows))
	}
	for _, r := range rows {
		site := siteOf(t, r)
		tab, err := lf.DBs[site].Table("orders")
		if err != nil {
			t.Fatal(err)
		}
		if r[3] != core.Int(tab.Count()) || r[5] != core.Str("range") || r[7] != core.Int(site) {
			t.Fatalf("site %d orders row %v disagrees with the merged catalog %+v", site, r, *meta)
		}
	}
}

// TestFedSysQueriesRemote: the site-local query log is visible through
// the union — the fragments a federated statement just ran appear as
// finished entries on their sites.
func TestFedSysQueriesRemote(t *testing.T) {
	d := makeData(59, 120, 90)
	lf := bootTestFed(t, 3, Config{}, d)
	runFed(t, lf, "from users where age > 20")

	_, rows := runFed(t, lf, "from __sys.queries")
	found := 0
	for _, r := range rows {
		stmt, ok := r[2].(core.Str)
		if !ok {
			t.Fatalf("stmt column is %T", r[2])
		}
		if strings.Contains(string(stmt), "from users") && string(r[3].(core.Str)) == "ok" {
			found++
		}
	}
	if found < 3 {
		t.Fatalf("only %d sites logged the fragment statement:\n%v", found, rows)
	}
}

// TestFedSysSites: __sys.sites reports the coordinator's own health
// state — one row per site agreeing with the per-site counters — and a
// killed site flips to down after the failure is observed.
func TestFedSysSites(t *testing.T) {
	d := makeData(61, 120, 90)
	lf := bootTestFed(t, 3, Config{Retries: 1, Backoff: time.Millisecond}, d)
	runFed(t, lf, "from users")
	runFed(t, lf, "from orders where amount > 10")

	_, rows := runFed(t, lf, "from __sys.sites")
	if len(rows) != 3 {
		t.Fatalf("__sys.sites returned %d rows, want 3", len(rows))
	}
	for i, r := range rows {
		if len(r) != 8 {
			t.Fatalf("__sys.sites arity %d, want 8", len(r))
		}
		if siteOf(t, r) != i {
			t.Fatalf("row %d reports site %d", i, siteOf(t, r))
		}
		if up := bool(r[2].(core.Bool)); !up {
			t.Fatalf("site %d reported down while healthy", i)
		}
		st := lf.Coord.sites[i]
		if got := int64(r[3].(core.Int)); got != int64(st.frags.Value()) {
			t.Fatalf("site %d fragments = %d, counter says %d", i, got, st.frags.Value())
		}
		if int64(r[3].(core.Int)) == 0 {
			t.Fatalf("site %d served no fragments after two scans", i)
		}
		if lat := int64(r[7].(core.Int)); lat <= 0 {
			t.Fatalf("site %d last fragment latency = %dµs", i, lat)
		}
	}

	// Kill a site: the next data query burns its retries and marks it
	// down; __sys.sites reflects that, and federated unions then skip it
	// rather than failing forever.
	lf.KillSite(cancelledCtx(), 0)
	q, err := lf.Coord.Compile("from users")
	if err != nil {
		t.Fatal(err)
	}
	if _, err = q.Run(context.Background(), func(*table.Batch) error { return nil }); err == nil {
		t.Fatal("scan over killed site succeeded")
	}

	_, rows = runFed(t, lf, "from __sys.sites")
	downs := 0
	for _, r := range rows {
		if !bool(r[2].(core.Bool)) {
			downs++
			if siteOf(t, r) != 0 {
				t.Fatalf("wrong site marked down: %v", r)
			}
		}
	}
	if downs != 1 {
		t.Fatalf("%d sites marked down, want 1", downs)
	}

	_, rows = runFed(t, lf, "from __sys.wal")
	if len(rows) != 2 {
		t.Fatalf("union over degraded federation returned %d rows, want 2 surviving sites", len(rows))
	}
	for _, r := range rows {
		if siteOf(t, r) == 0 {
			t.Fatal("dead site contributed rows to the union")
		}
	}
}

// spanIDs collects every span id in a snapshot tree, checking trace-id
// inheritance along the way.
func spanIDs(t *testing.T, snap trace.SpanSnapshot) []uint64 {
	t.Helper()
	var ids []uint64
	snap.Walk(func(sp trace.SpanSnapshot, _ int) {
		ids = append(ids, sp.ID)
		if sp.TraceID != snap.TraceID {
			t.Fatalf("span %q carries trace id %q, root has %q", sp.Name, sp.TraceID, snap.TraceID)
		}
	})
	return ids
}

// runTraced compiles and runs stmt under a fresh root span, returning
// the finished tree.
func runTraced(t *testing.T, lf *LocalFed, stmt string) (trace.SpanSnapshot, error) {
	t.Helper()
	q, err := lf.Coord.Compile(stmt)
	if err != nil {
		t.Fatal(err)
	}
	root := trace.NewRoot("query")
	root.SetNote(stmt)
	ctx := trace.WithSpan(context.Background(), root)
	_, err = q.Run(ctx, func(*table.Batch) error { return nil })
	root.End()
	return root.Snapshot(), err
}

// TestFedTracePropagation: a traced federated query yields ONE span
// tree — the coordinator's — with a remote span per site under exec,
// each carrying the site's own grafted span tree (the fragment's
// compile/exec phases ran on the site), every span sharing the root's
// trace id, and no duplicate span ids anywhere in the merged tree.
func TestFedTracePropagation(t *testing.T) {
	d := makeData(67, 240, 300)
	lf := bootTestFed(t, 3, Config{}, d)

	snap, err := runTraced(t, lf, "from users where age > 10")
	if err != nil {
		t.Fatal(err)
	}
	if snap.TraceID == "" {
		t.Fatal("root span has no trace id")
	}
	ids := spanIDs(t, snap)
	dup := map[uint64]bool{}
	for _, id := range ids {
		if id == 0 {
			t.Fatal("span with zero id in merged tree")
		}
		if dup[id] {
			t.Fatalf("duplicate span id %d in merged tree:\n%s", id, snap.Render())
		}
		dup[id] = true
	}

	for s := 0; s < 3; s++ {
		prefix := "remote[s" + string(rune('0'+s)) + " "
		var rsp *trace.SpanSnapshot
		snap.Walk(func(sp trace.SpanSnapshot, _ int) {
			if rsp == nil && strings.HasPrefix(sp.Name, prefix) {
				c := sp
				rsp = &c
			}
		})
		if rsp == nil {
			t.Fatalf("no span %q in tree:\n%s", prefix, snap.Render())
		}
		// The site's own tree is grafted under the attempt span: its root
		// is the site-side "query" span noted with the fragment statement,
		// with the site's exec phase below it.
		var site *trace.SpanSnapshot
		for i := range rsp.Children {
			if rsp.Children[i].Name == "query" {
				site = &rsp.Children[i]
			}
		}
		if site == nil {
			t.Fatalf("remote span s%d carries no site tree:\n%s", s, snap.Render())
		}
		if !strings.Contains(site.Note, "from users") {
			t.Fatalf("site s%d root note %q does not carry the fragment statement", s, site.Note)
		}
		if site.Find("exec") == nil {
			t.Fatalf("site s%d tree has no exec span:\n%s", s, snap.Render())
		}
		if site.DOP < 1 {
			t.Fatalf("site s%d tree records dop %d", s, site.DOP)
		}
	}
}

// TestFedTraceSiteKillRetry: with a site dead, each fragment attempt
// appears as its own span — the first plus one per retry — every one
// closed with the error that ended it, still without duplicate ids,
// while the surviving sites' spans stay intact. Run under -race in CI,
// this also exercises concurrent attempt-span creation from gather
// workers.
func TestFedTraceSiteKillRetry(t *testing.T) {
	d := makeData(71, 240, 60)
	lf := bootTestFed(t, 3, Config{Retries: 2, Backoff: time.Millisecond}, d)
	lf.KillSite(cancelledCtx(), 0)

	snap, err := runTraced(t, lf, "from users")
	if err == nil {
		t.Fatal("scan over killed site succeeded")
	}
	ids := spanIDs(t, snap)
	dup := map[uint64]bool{}
	for _, id := range ids {
		if dup[id] {
			t.Fatalf("duplicate span id %d:\n%s", id, snap.Render())
		}
		dup[id] = true
	}

	// The dead site's fragment ran its initial attempt plus both
	// configured retries; each is a distinct span closed with the error
	// that ended it. (Spans named "remote[s0 …]" without an error note
	// are the synthetic post-drain operator spans, not attempts.)
	var errSpans, retriesNamed int
	snap.Walk(func(sp trace.SpanSnapshot, _ int) {
		if strings.HasPrefix(sp.Name, "remote[s0 ") && strings.HasPrefix(sp.Note, "error: ") {
			errSpans++
			if strings.Contains(sp.Name, " retry") {
				retriesNamed++
			}
		}
	})
	if errSpans != 3 {
		t.Fatalf("%d dead-site attempt spans carry errors, want 3 (attempt + 2 retries):\n%s",
			errSpans, snap.Render())
	}
	if retriesNamed != 2 {
		t.Fatalf("%d retry attempts named in tree, want 2:\n%s", retriesNamed, snap.Render())
	}
}
