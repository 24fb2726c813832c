package catalog

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"xst/internal/core"
	"xst/internal/exec"
	"xst/internal/store"
	"xst/internal/table"
)

// A table version is its own snapshot: it reads the pool's current page
// images and stops at its tail on its last page, so a reader holding an
// old version needs nothing pinned, and a commit keeps nothing for it.

// keyedRows returns rows <id, id mod 7> for ids from … from+n-1.
func keyedRows(from, n int) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{core.Int(int64(from + i)), core.Int(int64((from + i) % 7))}
	}
	return rows
}

func rowStrings(rows []table.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// TestPinnedVersionReadsOnlyItsRows pins a version whose last page later
// loads keep filling (three of them), then spill past (twenty more), and
// reads it through every path: Scan, ScanBatches, a cursor, a two-worker
// morsel run, Get and Fetch of its hash index's record ids, and SetAt.
// Each returns exactly the pinned rows; a later row's record id, on the
// pinned page or past it, is no record of the pinned version.
func TestPinnedVersionReadsOnlyItsRows(t *testing.T) {
	db, err := Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(table.Schema{Name: "ev", Cols: []string{"id", "g"}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := db.CreateIndex(ctx, "ev", "id", IndexHash); err != nil {
		t.Fatal(err)
	}
	const pinnedRows = 40
	if err := db.Load(ctx, "ev", keyedRows(0, pinnedRows)); err != nil {
		t.Fatal(err)
	}
	snap := db.BeginRead().Snap
	tab := snap.Tables["ev"]
	var ix *Index
	for _, x := range snap.Indexes {
		if x.Table == tab && x.Col == "id" {
			ix = x
		}
	}
	pinnedPages, _ := tab.PageIDs()
	if ix == nil || len(pinnedPages) != 1 {
		t.Fatalf("pinned version: index %v, pages %v", ix, pinnedPages)
	}
	next := pinnedRows
	load := func(n int) {
		if err := db.Load(ctx, "ev", keyedRows(next, n)); err != nil {
			t.Fatal(err)
		}
		next += n
	}
	for i := 0; i < 3; i++ {
		load(10)
		cur, _ := db.Table("ev")
		if ids, _ := cur.PageIDs(); fmt.Sprint(ids) != fmt.Sprint(pinnedPages) {
			t.Fatalf("load %d left the pinned last page: pages %v", i, ids)
		}
	}
	for i := 0; i < 20; i++ {
		load(100)
	}
	cur, _ := db.Table("ev")
	if ids, _ := cur.PageIDs(); len(ids) < 3 {
		t.Fatalf("the newest version spans %d pages, want several", len(ids))
	}
	want := rowStrings(keyedRows(0, pinnedRows))
	same := func(path string, got []table.Row) {
		t.Helper()
		if g := rowStrings(got); fmt.Sprint(g) != fmt.Sprint(want) {
			t.Fatalf("%s of the pinned version: %d rows, want its %d", path, len(g), len(want))
		}
	}

	var scanned []table.Row
	if err := tab.Scan(func(_ store.RID, r table.Row) (bool, error) {
		scanned = append(scanned, r)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	same("Scan", scanned)

	var batched []table.Row
	if err := tab.ScanBatches(func(_ store.PageID, rows []table.Row) (bool, error) {
		batched = append(batched, rows...)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	same("ScanBatches", batched)

	var pulled []table.Row
	for c := tab.NewCursor(); ; {
		_, r, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		pulled = append(pulled, r)
	}
	same("a cursor", pulled)

	src := tab.NewMorselSource()
	var morsels []table.Row
	if err := exec.Stream(ctx, exec.NewGather([]exec.Operator{
		exec.NewMorselScan(src, nil), exec.NewMorselScan(src, nil),
	}), func(rows []table.Row) error {
		for _, r := range rows {
			morsels = append(morsels, r.Clone())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(morsels, func(i, j int) bool { return morsels[i][0].(core.Int) < morsels[j][0].(core.Int) })
	same("a two-worker morsel run", morsels)

	var rids []store.RID
	var got []table.Row
	for id := 0; id < pinnedRows; id++ {
		n := len(rids)
		rids = ix.Hash.Probe(rids, core.Int(int64(id)))
		if len(rids) != n+1 {
			t.Fatalf("the pinned index holds %d record ids for id %d, want 1", len(rids)-n, id)
		}
		r, err := tab.Get(rids[n])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	same("Get", got)
	var fetched table.Batch
	if err := tab.Fetch(rids, &fetched, nil); err != nil {
		t.Fatal(err)
	}
	got, _ = fetched.AppendRows(nil, nil)
	same("Fetch", got)

	// The first later row shares the pinned page; the last lies past it.
	newest := db.BeginRead().Snap
	for _, x := range newest.Indexes {
		if x.Table != newest.Tables["ev"] || x.Col != "id" {
			continue
		}
		for _, id := range []int{pinnedRows, next - 1} {
			later := x.Hash.Probe(nil, core.Int(int64(id)))
			if len(later) != 1 || len(ix.Hash.Probe(nil, core.Int(int64(id)))) != 0 {
				t.Fatalf("id %d: newest index holds %v, pinned index must hold none", id, later)
			}
			if _, err := tab.Get(later[0]); !errors.Is(err, store.ErrNoRecord) {
				t.Fatalf("Get of later row %d (%v) through the pinned version = %v, want ErrNoRecord", id, later[0], err)
			}
			if err := tab.Fetch(later, &fetched, nil); !errors.Is(err, store.ErrNoRecord) {
				t.Fatalf("Fetch of later row %d (%v) through the pinned version = %v, want ErrNoRecord", id, later[0], err)
			}
		}
	}

	s, err := tab.SetAt()
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBuilder(pinnedRows)
	for _, r := range keyedRows(0, pinnedRows) {
		b.AddClassical(r.Tuple())
	}
	if !core.Equal(s, b.Set()) {
		t.Fatalf("SetAt of the pinned version has %d members, want its %d rows", core.Card(s), pinnedRows)
	}
}

// TestExtendingASupersededVersionFails: only a table's newest version
// may grow. Extending an older one, whose last page already holds its
// successor's rows, is an error naming the page, and the commit that
// follows publishes nothing of it.
func TestExtendingASupersededVersionFails(t *testing.T) {
	db, err := Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(table.Schema{Name: "ev", Cols: []string{"id", "g"}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := db.Load(ctx, "ev", keyedRows(0, 10)); err != nil {
		t.Fatal(err)
	}
	old, _ := db.Table("ev")
	if err := db.Load(ctx, "ev", keyedRows(10, 10)); err != nil {
		t.Fatal(err)
	}
	page, _ := old.PageIDs()
	tx := db.Begin()
	_, err = old.Extend(tx.io).Insert(table.Row{core.Int(99), core.Int(1)})
	tx.Abort()
	if !errors.Is(err, store.ErrStaleVersion) || !strings.Contains(err.Error(), fmt.Sprintf("page %d ", page[len(page)-1])) {
		t.Fatalf("Extend of a superseded version then Insert = %v, want ErrStaleVersion naming page %d", err, page[len(page)-1])
	}
	if cur, _ := db.Table("ev"); cur.Count() != 20 || len(scanAll(t, cur)) != 20 {
		t.Fatalf("the newest version after the refused append: %d rows counted", cur.Count())
	}
}

// TestHeldReaderCostsACommitNothing: a reader holding a snapshot across
// commits makes them no dearer. Two databases in the same state take the
// same 50-row loads, one with a BeginRead snapshot held throughout: each
// load allocates exactly as much in both, and after 200 loads the held
// version still reads its own rows.
func TestHeldReaderCostsACommitNothing(t *testing.T) {
	ctx := context.Background()
	twin := func() (*Database, func()) {
		db, err := Create(store.NewMemPager(), 256)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateTable(table.Schema{Name: "ev", Cols: []string{"b", "i"}}); err != nil {
			t.Fatal(err)
		}
		b := 0
		return db, func() {
			if err := db.Load(ctx, "ev", mvccRows(b, 50)); err != nil {
				t.Fatal(err)
			}
			b++
		}
	}
	free, loadFree := twin()
	held, loadHeld := twin()
	loadFree()
	loadHeld()
	rt := held.BeginRead()
	pinned := rt.Snap.Tables["ev"]
	want := scanAll(t, pinned)

	const runs = 100 // AllocsPerRun loads once more to warm up
	without := testing.AllocsPerRun(runs, loadFree)
	with := testing.AllocsPerRun(runs, loadHeld)
	if with != without {
		t.Fatalf("a 50-row load allocates %.0f objects with a reader held, %.0f without", with, without)
	}
	for i := runs + 1; i < 200; i++ {
		loadHeld()
	}
	if got := scanAll(t, pinned); fmt.Sprint(got) != fmt.Sprint(want) || pinned.Count() != 50 {
		t.Fatalf("the version held across 200 loads reads %d rows, want its %d", len(got), len(want))
	}
	if cur, _ := held.Table("ev"); cur.Count() != 201*50 {
		t.Fatalf("%d rows after the loads, want %d", cur.Count(), 201*50)
	}
	if cur, _ := free.Table("ev"); cur.Count() != (runs+2)*50 {
		t.Fatalf("%d rows in the twin, want %d", cur.Count(), (runs+2)*50)
	}
}
