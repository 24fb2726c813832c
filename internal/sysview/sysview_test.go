package sysview_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"xst/internal/catalog"
	"xst/internal/core"
	"xst/internal/server"
	"xst/internal/store"
	"xst/internal/sysview"
	"xst/internal/table"
)

func TestStandardPanicsOnUnknownView(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Standard accepted a view with no standard columns")
		}
	}()
	sysview.Standard("__sys.nope", "", nil)
}

// TestPoolRowFollowsTheSchema pins __sys.bufferpool's columns and ties
// each one to the store.PoolInfo field it reports.
func TestPoolRowFollowsTheSchema(t *testing.T) {
	want := []string{"frames", "capacity", "hits", "misses", "evictions", "writes", "recycled", "pinned"}
	if got := sysview.StandardCols[sysview.Pool]; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("%s columns = %v, want %v", sysview.Pool, got, want)
	}
	row := sysview.PoolRow(store.PoolInfo{
		Stats:  store.Stats{Hits: 3, Misses: 4, Evictions: 5, Writes: 6, Recycled: 7},
		Frames: 1, Capacity: 2, Pinned: 8,
	})
	if got := fmt.Sprint(row); got != "[1 2 3 4 5 6 7 8]" {
		t.Fatalf("PoolRow = %s, want the fields in column order", got)
	}
}

// TestBufferPoolViewThroughServer asks a served database about its own
// pool in its own query language: the pool is smaller than the table,
// so after one scan `where misses > 0` holds and a restriction the row
// fails filters it out.
func TestBufferPoolViewThroughServer(t *testing.T) {
	const frames = 8
	db, err := catalog.Create(store.NewMemPager(), frames)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(table.Schema{Name: "nums", Cols: []string{"n", "pad"}}); err != nil {
		t.Fatal(err)
	}
	rows := make([]table.Row, 4000) // ≈ 40 pages through 8 frames
	for i := range rows {
		rows[i] = table.Row{core.Int(i), core.Str(strings.Repeat("p", 30))}
	}
	if err := db.Load(context.Background(), "nums", rows); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != server.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	})
	for deadline := time.Now().Add(2 * time.Second); srv.Addr() == ""; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("server did not start")
		}
	}
	c, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	query := func(stmt string) []string {
		var out []string
		if _, err := c.Query(stmt, func(batch []string) error { out = append(out, batch...); return nil }); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return out
	}

	if got := query("from nums where n < 0"); len(got) != 0 { // one full scan
		t.Fatalf("scan returned %d rows", len(got))
	}
	got := query("from " + sysview.Pool + " where misses > 0")
	if len(got) != 1 {
		t.Fatalf("from %s where misses > 0: %d rows, want the pool's one row", sysview.Pool, len(got))
	}
	var f [8]uint64 // the columns, in StandardCols order
	if _, err := fmt.Sscanf(got[0], "<%d,%d,%d,%d,%d,%d,%d,%d>", &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]); err != nil {
		t.Fatalf("row %q: %v", got[0], err)
	}
	frs, capacity, misses, evictions, recycled := f[0], f[1], f[3], f[4], f[6]
	if capacity != frames || frs > frames || evictions == 0 || recycled != evictions || misses < evictions {
		t.Fatalf("row %q does not describe an evicting %d-frame pool", got[0], frames)
	}
	if none := query("from " + sysview.Pool + " where capacity > 8"); len(none) != 0 {
		t.Fatalf("restriction on the view ignored: %v", none)
	}

}
