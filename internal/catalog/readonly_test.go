package catalog

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xst/internal/core"
	"xst/internal/store"
	"xst/internal/table"
)

// A published table version only reads: its type has no method that
// appends, so a commit is the one way a table gains rows. The commit
// files them in the table's indexes and leaves every earlier version
// as it was.
func TestPublishedTableIsReadOnly(t *testing.T) {
	typ := reflect.TypeOf((*table.Table)(nil))
	for _, name := range []string{"Insert", "InsertAll"} {
		if _, ok := typ.MethodByName(name); ok {
			t.Errorf("*table.Table has a method %s; a published version must not append", name)
		}
	}

	ctx := context.Background()
	db, err := Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	seedOrders(t, db, 50)
	if _, err := db.CreateIndex(ctx, "orders", "id", IndexHash); err != nil {
		t.Fatal(err)
	}
	before, err := db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	rt := db.BeginRead()
	defer rt.Release()
	if rt.Snap.Tables["orders"] != before {
		t.Fatal("the snapshot names another version than Table")
	}
	if err := db.Load(ctx, "orders", []table.Row{{core.Int(77), core.Str("east"), core.Int(1)}}); err != nil {
		t.Fatal(err)
	}

	explain, rows := compileExplain(t, db, "from orders where id = 77")
	if !strings.Contains(explain, "indexscan(orders.id=77 hash)") || rows != 1 {
		t.Fatalf("from orders where id = 77: %d rows by %s, want 1 by the hash index", rows, explain)
	}
	if _, rows := compileExplain(t, db, "from orders where amount = 1"); rows != 1 {
		t.Fatalf("from orders where amount = 1: %d rows by a scan, want 1", rows)
	}
	if n := before.Count(); n != 50 {
		t.Fatalf("the version before the load counts %d rows, want 50", n)
	}
	s, err := before.SetAt(rt.View)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 50 {
		t.Fatalf("the version before the load has %d members, want 50", s.Len())
	}
}

// Readers scan table versions while a writer commits loads. A version
// taken from Database.Table or from a BeginRead snapshot holds exactly
// the rows committed up to it, in order, however many commits land
// while it is read, and its count never moves. Under -race the detector
// also sees no write to a page or page list a reader reads.
func TestReadersSeeTheirVersionUnderLoads(t *testing.T) {
	db, err := Create(store.NewMemPager(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(table.Schema{Name: "ev", Cols: []string{"b", "i"}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const batch, loads, readers = 40, 30, 4
	if err := db.Load(ctx, "ev", mvccRows(0, batch)); err != nil {
		t.Fatal(err)
	}

	// check reads one version under a view that shows it.
	check := func(tab *table.Table, view *store.View) error {
		n := tab.Count()
		seen := 0
		err := tab.At(view).Scan(func(_ store.RID, r table.Row) (bool, error) {
			want := table.Row{core.Int(int64(seen / batch)), core.Int(int64(seen % batch))}
			if !core.Equal(r.Tuple(), want.Tuple()) {
				return false, fmt.Errorf("row %d is %v, want %v", seen, r, want)
			}
			seen++
			return true, nil
		})
		switch {
		case err != nil:
			return err
		case seen != n || n%batch != 0:
			return fmt.Errorf("scanned %d rows of a version counting %d", seen, n)
		case tab.Count() != n:
			return fmt.Errorf("a version's count moved %d → %d while it was read", n, tab.Count())
		}
		return nil
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(fromTable bool) {
			defer wg.Done()
			for k := 0; k < 5 || !stop.Load(); k++ {
				var tab *table.Table
				if fromTable {
					var err error
					if tab, err = db.Table("ev"); err != nil {
						errs <- err
						return
					}
				}
				rt := db.BeginRead()
				if !fromTable {
					tab = rt.Snap.Tables["ev"]
				} else if rt.Snap.Tables["ev"] != tab {
					// A commit landed between the two reads; this view
					// shows a later version.
					rt.Release()
					continue
				}
				err := check(tab, rt.View)
				rt.Release()
				if err != nil {
					errs <- err
					return
				}
			}
		}(r%2 == 0)
	}
	var loadErr error
	for b := 1; b <= loads && loadErr == nil; b++ {
		loadErr = db.Load(ctx, "ev", mvccRows(b, batch))
	}
	stop.Store(true)
	wg.Wait()
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if tab, _ := db.Table("ev"); tab.Count() != (loads+1)*batch {
		t.Fatalf("%d rows after the loads, want %d", tab.Count(), (loads+1)*batch)
	}
}
