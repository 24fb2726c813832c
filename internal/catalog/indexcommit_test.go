package catalog

import (
	"context"
	"errors"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/wal"
)

// syncFails is a log whose Sync fails while fail is set.
type syncFails struct {
	wal.Log
	fail bool
}

func (l *syncFails) Sync() error {
	if l.fail {
		return errors.New("injected fsync failure")
	}
	return l.Log.Sync()
}

// A commit extends its hash index before it takes the publish lock, so
// a commit whose log then fails has already filed its entries in the
// table the index's versions share. They must stay invisible, and the
// next commit must extend the committed version, not the dead one.
func TestFailedCommitLeavesTheIndexAtItsVersion(t *testing.T) {
	ctx := context.Background()
	log := &syncFails{Log: wal.NewMemLog()}
	db, err := CreateDurable(store.NewMemPager(), log, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateTable(table.Schema{Name: "t", Cols: []string{"id", "tag"}}); err != nil {
		t.Fatal(err)
	}
	load := func(lo, hi int) error {
		rows := make([]table.Row, 0, hi-lo)
		for k := lo; k < hi; k++ {
			rows = append(rows, table.Row{core.Int(int64(k)), core.Str("r")})
		}
		return db.Load(ctx, "t", rows)
	}
	if err := load(0, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(ctx, "t", "id", IndexHash); err != nil {
		t.Fatal(err)
	}
	if err := load(100, 150); err != nil {
		t.Fatal(err)
	}
	log.fail = true
	if err := load(150, 200); err == nil {
		t.Fatal("a commit whose log sync fails succeeded")
	}
	log.fail = false
	if err := load(200, 250); err != nil {
		t.Fatal(err)
	}
	tb, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	ix := db.Indexes("t")[0].Hash
	if want := 200; ix.Len() != want || tb.Count() != want {
		t.Fatalf("index Len %d, table rows %d, want %d each", ix.Len(), tb.Count(), want)
	}
	for k := 0; k < 250; k++ {
		rids := ix.Probe(nil, core.Int(int64(k)))
		if failed := k >= 150 && k < 200; failed {
			if len(rids) != 0 {
				t.Fatalf("key %d of the failed commit is visible: %v", k, rids)
			}
			continue
		}
		if len(rids) != 1 {
			t.Fatalf("key %d: %d records, want 1", k, len(rids))
		}
		r, err := tb.Get(rids[0])
		if err != nil || !core.Equal(r[0], core.Int(int64(k))) {
			t.Fatalf("key %d's record holds %v (%v)", k, r, err)
		}
	}
}
