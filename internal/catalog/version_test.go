package catalog

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/wal"
)

// One committed version: every commit publishes tables, partitions,
// statistics, indexes and the planner snapshot as one value, page 0 is
// that value's catalog set, and every reader sees exactly one version.

// commitKinds runs one commit of each kind that changes the catalog,
// calling after with the kind's name once it has published.
func commitKinds(t *testing.T, db *Database, after func(kind string)) {
	t.Helper()
	ctx := context.Background()
	schema := table.Schema{Name: "orders", Cols: []string{"id", "amount"}}
	rows := make([]table.Row, 200)
	for i := range rows {
		rows[i] = table.Row{core.Int(int64(i)), core.Int(int64(i % 7))}
	}
	steps := []struct {
		kind string
		run  func() error
	}{
		{"CreateTable", func() error { _, err := db.CreateTable(schema); return err }},
		{"Load", func() error { return db.Load(ctx, "orders", rows) }},
		{"SetPartition", func() error {
			return setPartition(db, "orders", Partition{Kind: PartHash, Col: "id", Site: 1, Sites: 2})
		}},
		{"CreateIndex", func() error { _, err := db.CreateIndex(ctx, "orders", "id", IndexHash); return err }},
		{"Analyze", func() error { _, err := db.Analyze(ctx); return err }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.kind, err)
		}
		after(s.kind)
	}
}

// setPartition commits one partition declaration as a transaction of
// its own.
func setPartition(db *Database, name string, p Partition) error {
	tx := db.Begin()
	if err := tx.SetPartition(name, p); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit(context.Background())
}

func TestSyncWritesNothingCommitted(t *testing.T) {
	db, err := Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	commitKinds(t, db, func(kind string) {
		before := db.Pool().Stats().Writes
		if err := db.Sync(); err != nil {
			t.Fatalf("after %s: sync: %v", kind, err)
		}
		if after := db.Pool().Stats().Writes; after != before {
			t.Errorf("after %s: Sync wrote %d committed pages", kind, after-before)
		}
	})
}

// pagerCatalog decodes page 0 as the pager holds it, bypassing the pool.
func pagerCatalog(t *testing.T, pager store.Pager) *core.Set {
	t.Helper()
	raw := make([]byte, store.PageSize)
	if err := pager.ReadPage(catalogPage, raw); err != nil {
		t.Fatalf("read page 0: %v", err)
	}
	set, err := decodeCatalog(raw)
	if err != nil {
		t.Fatalf("decode page 0: %v", err)
	}
	return set
}

func TestCatalogPageIsThePublishedVersion(t *testing.T) {
	dir := t.TempDir()
	open := func() (*store.FilePager, wal.Log) {
		pager, err := store.OpenFilePager(filepath.Join(dir, "base.pages"))
		if err != nil {
			t.Fatal(err)
		}
		log, err := wal.OpenFileLog(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return pager, log
	}
	same := func(when string, pager store.Pager, db *Database) {
		t.Helper()
		if got, want := pagerCatalog(t, pager), db.CatalogSet(); !core.Equal(got, want) {
			t.Fatalf("%s: page 0 holds %v, the published version %v", when, got, want)
		}
	}

	pager, log := open()
	db, err := CreateDurable(pager, log, 64)
	if err != nil {
		t.Fatal(err)
	}
	same("Create", pager, db)
	commitKinds(t, db, func(kind string) { same("after "+kind, pager, db) })
	if p, ok := db.Partition("orders"); !ok || p.Site != 1 {
		t.Fatalf("partition = %+v, %v", p, ok)
	}
	published := db.CatalogSet()

	// Recovery: reopen over the files the running database still holds,
	// replaying its log.
	pager2, log2 := open()
	db2, redone, err := OpenDurable(pager2, log2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if redone == 0 {
		t.Fatal("recovery redid no transaction")
	}
	same("after OpenDurable", pager2, db2)
	if !core.Equal(db2.CatalogSet(), published) {
		t.Fatalf("recovered catalog %v, committed %v", db2.CatalogSet(), published)
	}
	pager.Close()
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	pager3, _ := open()
	db3, err := Open(pager3, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	same("after Close and Open", pager3, db3)
	if !core.Equal(db3.CatalogSet(), published) {
		t.Fatalf("reopened catalog %v, committed %v", db3.CatalogSet(), published)
	}
}

// TestSysViewsReadOneVersion interleaves catalog commits with reads of
// __sys.tables, __sys.indexes and __sys.stats: every answer must be the
// rows of one published version. The writer records each version's rows
// right after publishing it (no other writer runs), readers check theirs
// against that record at the end. Run it under -race.
func TestSysViewsReadOneVersion(t *testing.T) {
	db, err := Create(store.NewMemPager(), 256)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const ntables = 4
	for i := 0; i < ntables; i++ {
		if _, err := db.CreateTable(table.Schema{Name: fmt.Sprintf("t%d", i), Cols: []string{"a", "b"}}); err != nil {
			t.Fatal(err)
		}
	}
	views := map[string]func(context.Context) ([]table.Row, error){
		"tables": db.tableRows, "indexes": db.indexRows, "stats": db.statRows,
	}
	answer := func(view string) string {
		rows, err := views[view](ctx)
		if err != nil {
			t.Error(err)
		}
		return fmt.Sprint(rows)
	}
	var mu sync.Mutex
	published := map[string]bool{}
	record := func() {
		mu.Lock()
		defer mu.Unlock()
		for view := range views {
			published[view+" "+answer(view)] = true
		}
	}
	record()

	var stop atomic.Bool
	var wg sync.WaitGroup
	seen := make([][]string, 2)
	for r := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for view := range views {
					seen[r] = append(seen[r], view+" "+answer(view))
				}
			}
		}()
	}

	kinds := []string{IndexHash, IndexBTree}
	for round := 0; round < 16; round++ {
		name := fmt.Sprintf("t%d", round%ntables)
		rows := []table.Row{{core.Int(int64(round)), core.Int(int64(round % 3))}}
		var steps []func() error
		for site := 0; site < 3; site++ {
			steps = append(steps, func() error {
				return setPartition(db, name, Partition{Kind: PartHash, Col: "a", Site: site, Sites: 3})
			})
		}
		steps = append(steps,
			func() error { return db.Load(ctx, name, rows) },
			func() error {
				_, err := db.CreateIndex(ctx, name, []string{"a", "b"}[round/ntables%2], kinds[round/(2*ntables)])
				return err
			},
			func() error { _, err := db.Analyze(ctx); return err },
		)
		for _, step := range steps {
			if err := step(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			record()
		}
	}
	stop.Store(true)
	wg.Wait()

	reads := 0
	for _, answers := range seen {
		for _, a := range answers {
			reads++
			if !published[a] {
				t.Fatalf("an answer matches no published version:\n%s", a)
			}
		}
	}
	t.Logf("%d reads over %d published answers", reads, len(published))
}
