package catalog

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/plan"
	"xst/internal/store"
	"xst/internal/table"
	"xst/internal/wal"
	"xst/internal/xlang"
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

// A committed row whose key is a set cannot enter a btree. The commit
// must fail as a rebuild would and publish nothing: publishing the rows
// beside the old tree would answer index-path queries without them, and
// every later Analyze, which rebuilds the tree, would fail.
func TestSetKeyUnderABTreeFailsTheCommit(t *testing.T) {
	ctx := context.Background()
	db, err := Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(table.Schema{Name: "t", Cols: []string{"k", "v"}}); err != nil {
		t.Fatal(err)
	}
	rows := make([]table.Row, 200)
	for i := range rows {
		rows[i] = table.Row{core.Int(int64(i)), core.Int(1)}
	}
	if err := db.Load(ctx, "t", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(ctx, "t", "k", IndexBTree); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Analyze(ctx); err != nil {
		t.Fatal(err)
	}

	more := make([]table.Row, 0, 51)
	for k := 1000; k < 1050; k++ {
		more = append(more, table.Row{core.Int(int64(k)), core.Int(2)})
	}
	more = append(more, table.Row{core.Tuple(core.Int(7)), core.Int(2)})
	err = db.Load(ctx, "t", more)
	if err == nil || !strings.Contains(err.Error(), "btree needs atoms") {
		t.Fatalf("a commit of a set key under a btree: %v, want the rebuild's error", err)
	}

	env := xlang.NewEnv()
	if err := db.BindAll(env); err != nil {
		t.Fatal(err)
	}
	count := func(src string) int {
		t.Helper()
		v, err := xlang.Eval(env, src)
		if err != nil {
			t.Fatal(err)
		}
		return core.Card(v.(*core.Set))
	}
	q, err := xlang.CompileQuery(env, "from t where k >= 1000 select k")
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Explain(q.Node); !strings.Contains(got, "indexscan") {
		t.Fatalf("the range query does not take the btree:\n%s", got)
	}
	byIndex, byScan := count("from t where k >= 1000 select k"), count("from t where v = 2 select k")
	if byIndex != byScan || count("from t where k = 1010 select k") != byScan/50 {
		t.Fatalf("index path finds %d rows, a scan %d", byIndex, byScan)
	}
	if _, err := db.Analyze(ctx); err != nil {
		t.Fatalf("Analyze after the failed commit: %v", err)
	}
}

// A transaction keeps, per inserted row, only the keys of the indexes on
// its table, so a load into a table with no index keeps nothing beside
// the pages it writes. A 10 000-row Load of three int columns allocates
// 0.47 MB; when every row and its rid were kept for the commit, 1.94 MB.
func TestUnindexedLoadKeepsNoRows(t *testing.T) {
	rows := make([]table.Row, 10000)
	for i := range rows {
		rows[i] = table.Row{core.Int(int64(i)), core.Int(int64(i % 7)), core.Int(int64(3 * i))}
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db, err := Create(store.NewMemPager(), 64)
			if err == nil {
				_, err = db.CreateTable(table.Schema{Name: "t", Cols: []string{"a", "b", "c"}})
			}
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := db.Load(context.Background(), "t", rows); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("a %d-row load: %d B in %d objects", len(rows), res.AllocedBytesPerOp(), res.AllocsPerOp())
	if got := res.AllocedBytesPerOp(); got > 1_000_000 {
		t.Errorf("a %d-row load into an unindexed table allocates %d B, budget 1 000 000", len(rows), got)
	}
}
